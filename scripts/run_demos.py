#!/usr/bin/env python3
"""Run every CLI command with stock settings into runs/ (the Monte Carlo
studies at the seeds their tables have always used, 123 and 2024)."""

import sys

from bayesinv import cli

JOBS = [
    ["demo-linear", "--kernel", "deblur", "--prior", "smooth-zero", "--truth", "smooth",
     "--n", "100", "--sigma", "0.01", "--seed", "0", "--out", "runs/deblur"],
    ["demo-linear", "--kernel", "seismic", "--prior", "nonsmooth", "--truth", "step",
     "--n", "100", "--sigma", "0.01", "--tilde-sigma", "0.05", "--seed", "0",
     "--out", "runs/seismic"],
    ["gp", "--kernel", "ou", "--n", "25", "--sigma", "0.1", "--seed", "1", "--out", "runs/gp_ou"],
    ["calibrate", "--n", "30", "--beta-true", "2.0", "--x-true", "0.7", "--seed", "2",
     "--out", "runs/calibrate"],
    ["inconsistency", "--theta", "1.0", "--n-values", "100,1000,10000,100000",
     "--seed", "0", "--out", "runs/inconsistency"],
    ["coverage", "--seed", "123", "--out", "runs/coverage"],
    ["risk", "--seed", "2024", "--out", "runs/risk_contrast"],
]


def main() -> int:
    for job in JOBS:
        print("bayesinv", " ".join(job))
        code = cli.main(job)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
