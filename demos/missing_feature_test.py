"""Detect that the scorer saw a feature the audit dataset lacks.

When the black box used an input that is absent from the audit table, both
the mimic and the outcome model are blind to it in the same rows, so their
held-out errors co-move. The test bootstraps rank and linear correlations
of those error pairs; a control run with the hidden link severed shows
what innocence looks like.
"""

import distillaudit as da


def run_arm(hidden: bool) -> da.CorrelationTest:
    ds, _ = da.gen_hidden_feature(n_rows=10000, seed=0, strength=1.0, hidden=hidden)
    cfg = da.TrainConfig(learning_rate=0.1, max_rounds=400, patience=50)
    plan = da.plan_bags(ds.n_rows, K=2, L=2, seed=0)
    paired = da.train_paired(
        ds, plan=plan, config=cfg, schema=da.fit_schema(ds, max_bins=32), jobs=2
    )
    pairs = da.error_pairs(paired)
    return da.correlation_test(pairs.mimic_error, pairs.outcome_error, seed=0)


def show(label: str, res: da.CorrelationTest) -> None:
    print(f"\n{label}")
    for name in ("pearson", "spearman", "kendall"):
        iv = getattr(res, name)
        print(f"  {name:8s} {iv.estimate:7.4f}  95% CI [{iv.lower:7.4f}, {iv.upper:7.4f}]")
    print(f"  verdict: {res.verdict}")


def main() -> None:
    show("score built on a hidden feature:", run_arm(hidden=True))
    show("control, hidden link severed:", run_arm(hidden=False))


if __name__ == "__main__":
    main()
