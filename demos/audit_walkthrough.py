"""Full audit of a black box that ignores half its inputs.

Sixteen features all carry outcome signal, but the audited score is built
from only eight of them. Distilling the score and fitting the outcome on
identical bag splits makes the omission visible: the mimic's curves are
flat with tight bands on the ignored features while the outcome model's
are not, and the per-feature discrepancy ranking puts all eight ignored
features on top. The demo runs the whole audit, as the ``audit`` subcommand
does, and prints its calibration decision first: this score's link to the
outcome is far enough from log-odds linear that the mimic targets the
calibrated score.
"""

import tempfile

import numpy as np

import distillaudit as da
from distillaudit.cli import run_audit


def main() -> None:
    ds, truth = da.gen_partial_use(n_rows=8000, seed=7)
    unused = set(truth["unused"])

    cfg = da.TrainConfig(learning_rate=0.1, max_rounds=300, patience=40, seed=0)
    with tempfile.TemporaryDirectory() as out_dir:
        result = run_audit(ds, out_dir, da.LoadConfig(max_bins=32), cfg, K=3, L=3, jobs=2)

    decision = result.decision
    print(f"calibration: {'applied' if decision['applied'] else 'not applied'} ({decision['reason']})")
    for fm in result.fidelities:
        print(f"{fm.name} held-out score RMSE {fm.score_rmse_mean:.4f}, outcome AUC {fm.outcome_auc_mean:.4f}")
    print(f"missing-feature test: {result.missing.get('verdict', 'skipped')}")

    summary = result.summary
    print("\ndiscrepancy ranking (mimic curve vs outcome curve):")
    print("rank  feature  discrepancy  ignored by score?")
    for rank, (name, gap) in enumerate(summary.ranking, start=1):
        mark = "yes" if name in unused else "no"
        print(f"{rank:4d}  {name:7s} {gap:12.4f}  {mark}")

    # Band check on one ignored feature: the mimic's interval covers zero
    # everywhere, the outcome model's does not.
    name = sorted(unused)[0]
    fc = next(f for f in summary.features if f.feature == name)
    m_lo, m_hi = np.asarray(fc.mimic.lower), np.asarray(fc.mimic.upper)
    o_lo, o_hi = np.asarray(fc.outcome.lower), np.asarray(fc.outcome.upper)
    mass = np.asarray(fc.bin_mass) > 0
    print(f"\nfeature {name}:")
    print(f"  mimic bins whose 95% band covers zero:   {int(np.sum((m_lo <= 0) & (m_hi >= 0) & mass))}/{int(mass.sum())}")
    print(f"  outcome bins whose band excludes zero:   {int(np.sum(((o_lo > 0) | (o_hi < 0)) & mass))}/{int(mass.sum())}")


if __name__ == "__main__":
    main()
