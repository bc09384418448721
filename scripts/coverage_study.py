#!/usr/bin/env python3
"""Monte Carlo coverage of the calibration confidence set.

Writes a per-replication table (replication, x_classical, x_inverse, covered)
and prints the empirical coverage.
"""

import argparse
from pathlib import Path

from bayesinv.csvio import write_csv
from bayesinv.inverse_regression import coverage_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=10000)
    ap.add_argument("--beta", type=float, default=5.0)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--x-true", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=123)
    ap.add_argument("--out", type=str, default="runs/coverage/replications.csv")
    args = ap.parse_args()

    res = coverage_experiment(args.reps, args.beta, args.sigma, args.n,
                              args.alpha, args.x_true, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, ["replication", "x_classical", "x_inverse", "covered"],
              zip(range(args.reps), res.x_classical, res.x_inverse, res.covered.astype(int)))
    print(f"coverage at alpha={args.alpha}: {res.coverage:.4f} "
          f"({args.reps} replications) -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
