"""Find the feature pair an additive model cannot explain.

The generator hides one genuine pairwise interaction among five features.
Screening scores every pair by how much a shallow two-dimensional tree on
the additive model's residuals would help; fitting a grid for the winning
pair then removes most of the remaining held-out error.
"""

import numpy as np

import distillaudit as da


def main() -> None:
    ds, truth = da.gen_interaction(n_rows=6000, seed=0)
    X = da.bin_dataset(ds, da.fit_schema(ds, max_bins=16))
    perm = np.random.default_rng(0).permutation(ds.n_rows)
    test, rest = perm[:1200], perm[1200:]
    Xf, yf = X.take(rest), ds.score[rest]

    cfg = da.TrainConfig(learning_rate=0.2, max_rounds=200, patience=30)
    mains = da.train_regressor(Xf, yf, cfg, validation=np.arange(1200))

    ranked = da.rank_interaction_pairs(mains, Xf, yf, rows=np.arange(1200, len(rest)))
    names = ds.feature_names
    print("pair screening (residual gain, best first):")
    for ps in ranked:
        mark = " <- planted" if (ps.i, ps.j) == tuple(truth["pair_indices"]) else ""
        print(f"  ({names[ps.i]}, {names[ps.j]})  gain {ps.gain:10.4f}{mark}")

    top = [(ranked[0].i, ranked[0].j)]
    both = da.fit_interactions(mains, Xf, yf, top, cfg, validation=np.arange(1200))
    Xt, yt = X.take(test), ds.score[test]
    rmse_mains = float(np.sqrt(np.mean((mains.predict(Xt) - yt) ** 2)))
    rmse_both = float(np.sqrt(np.mean((both.predict(Xt) - yt) ** 2)))
    print(f"\nheld-out RMSE, additive only:      {rmse_mains:.4f}")
    print(f"held-out RMSE, with the top pair:  {rmse_both:.4f}")
    print(f"reduction: {100.0 * (1.0 - rmse_both / rmse_mains):.1f}%")


if __name__ == "__main__":
    main()
