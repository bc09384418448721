#!/usr/bin/env python3
"""Risk contrast between the classical and inverse covariate estimators.

Writes per-replication estimates and prints the stability summary: the
inverse estimator's empirical MSE settles, the classical estimator's running
maximum is outlier-dominated.
"""

import argparse
from pathlib import Path

from bayesinv.csvio import write_csv
from bayesinv.inverse_regression import estimator_risk_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=10000)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--x-true", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--out", type=str, default="runs/risk_contrast/replications.csv")
    args = ap.parse_args()

    res = estimator_risk_experiment(args.reps, args.beta, args.sigma, args.n,
                                    args.x_true, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, ["replication", "x_classical", "x_inverse"],
              zip(range(args.reps), res.x_classical, res.x_inverse))
    print(f"inverse-estimator MSE first-half/full: "
          f"{res.mse_inverse_half / res.mse_inverse_full:.3f}")
    print(f"classical estimator max|x_C| / median|x_C|: "
          f"{res.max_abs_classical / res.median_abs_classical:.0f}")
    print(f"replication table -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
