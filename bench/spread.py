#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 bench/spread.py --workload grid --seeds 1 2 3 4 5 [--seconds 30]

The spread is the distance between the first and third quartile of the
per-seed values (statistics.quantiles, n=4) as a share of their median. It is
compared with the metric's bound in BENCHMARK.json; a steady benchmark keeps
every spread but that of setup_s below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=600,
    )
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    worst = 0.0
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / med
        share = spread / m["bound"]
        if m["name"] != "setup_s":
            worst = max(worst, share)
        print(f"{args.workload:<9} {m['name']:<12} median {med:<12.6g} spread {spread:7.2%} "
              f"bound {m['bound']:.0%}  spread/bound {share:5.2f}")
    print(f"largest spread/bound apart from setup_s: {worst:.2f} (steady below 0.33)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
