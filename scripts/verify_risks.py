#!/usr/bin/env python3
"""Simulation check of the analytic risk formulas at twelve reference points.

Runs `mc verify` at each point: empirical bias and MSE of every estimator must
land within 3 standard errors of the closed-form values. Degenerate rows check
the plain estimators only; proper intervals add the truncated one.
"""

import argparse
import sys

from weibull_shrink import cli
from weibull_shrink.reference_data import MC_POINTS
from weibull_shrink.tables import DEFAULT_DESIGNS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    designs = dict(DEFAULT_DESIGNS)
    failed = 0
    for m, p, q, d1, d2 in MC_POINTS:
        call = [
            "mc",
            "verify",
            "--h",
            repr(designs[m]),
            "--p",
            repr(p),
            "--q",
            repr(q),
            "--reps",
            str(args.reps),
            "--seed",
            str(args.seed),
        ]
        if d1 == d2:
            call += ["--delta", repr(d1)]
        else:
            call += ["--delta1", repr(d1), "--delta2", repr(d2)]
        print(f"== m={m} p={p:g} q={q:g} rows ({d1:g}, {d2:g})")
        failed += cli.main(call) != 0
    print(f"{len(MC_POINTS) - failed}/{len(MC_POINTS)} points passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
