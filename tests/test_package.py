"""The package's public names."""

import types

import distillaudit as da


def test_all_lists_every_public_name_once():
    public = {
        name for name in dir(da) if not name.startswith("_") and not isinstance(getattr(da, name), types.ModuleType)
    }
    assert len(da.__all__) == len(set(da.__all__))
    assert set(da.__all__) == public


def test_every_listed_name_resolves():
    namespace = {}
    exec("from distillaudit import *", namespace)
    for name in da.__all__:
        assert namespace[name] is getattr(da, name)
