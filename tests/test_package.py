"""The package's public names, and what importing it sets."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import distillaudit as da

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


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


def import_in_fresh_process(**blas_env) -> list[str]:
    """OPENBLAS_NUM_THREADS and the thread count (0 off Linux) of a new
    interpreter that imports the package, with only ``blas_env`` set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas_env, PYTHONPATH=str(Path(da.__file__).resolve().parents[1]))
    code = (
        "import os, sys, distillaudit\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform.startswith('linux') else 0\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_pins_blas_to_one_thread():
    setting, tasks = import_in_fresh_process()
    assert setting == "1"
    if not sys.platform.startswith("linux"):
        pytest.skip("thread count read from /proc")
    assert tasks == "1"


def test_blas_setting_from_the_environment_wins():
    assert import_in_fresh_process(OPENBLAS_NUM_THREADS="3")[0] == "3"
