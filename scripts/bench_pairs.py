#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload grid \\
        --seeds 801 802 ... --out BENCH_<n>.json

Before the first pair, every `__pycache__` under `src/` and `bench/` of both
trees is removed (`compile_trees`), so that both sides start as a fresh
checkout does and neither imports from a warmer or staler cache than the
other; each module is still compiled in memory, so a broken one stops the
run. Each seed
is one pair: `python3 bench/run.py --workload W --seed S --seconds T
--trace 0` runs once in each tree, the parent first on even pairs and the
change first on odd ones. T is `run_seconds` from the change tree's
BENCHMARK.json. The result files the runs leave in each tree's bench/out/
are summarised per gated end-to-end metric: each side's median and
quartiles, the pairs the change won, and whether a gain or a regression
shows (see `summarise`), beside the ops attempted and the provenance of
every run. The summary's provenance also records the interpreter variables
the runs inherited from this script's environment (`inherited_environment`),
null where unset: `bench/` hands them on to every `cli` op, so they decide
whether an op's stdout is buffered and whether it writes byte-code caches.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def compile_trees(trees) -> None:
    """Remove every `__pycache__` under `src/` and `bench/` of each tree and
    compile each module there in memory, writing nothing; raises if a module
    fails to compile."""
    for tree in trees:
        for sub in ("src", "bench"):
            for cache in sorted((tree / sub).rglob("__pycache__")):
                shutil.rmtree(cache)
            for path in sorted((tree / sub).rglob("*.py")):
                try:
                    compile(path.read_bytes(), str(path), "exec", dont_inherit=True)
                except (SyntaxError, ValueError) as exc:
                    raise RuntimeError(f"cannot compile {path}: {exc}") from exc


# interpreter variables that change what a benchmarked process does
RECORDED_ENV = ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED")


def inherited_environment(environ) -> dict:
    """Each of `RECORDED_ENV` as `environ` holds it, None where it is unset."""
    return {name: environ.get(name) for name in RECORDED_ENV}


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One --trace 0 benchmark run in `tree`; returns its result file."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    path = tree / "bench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def _spread(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def _shared(dicts: list) -> dict:
    """The entries every dict has with the same value."""
    return {k: v for k, v in dicts[0].items() if all(d.get(k) == v for d in dicts[1:])}


def summarise(pairs: list, metrics: list) -> dict:
    """Summary of (parent result, change result) pairs.

    `metrics` are BENCHMARK.json's end_to_end entries (name, unit, better,
    bound). A gain shows when the change wins at least nine tenths of the
    pairs and its median beats the parent's by more than the parent's
    interquartile range; a regression when its median is worse than the
    parent's by more than the bound.
    """
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        a, b = _spread(parent), _spread(change)
        gap = sign * (b["median"] - a["median"])  # < 0 is better
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": a,
            "change": b,
            "wins": wins,
            "pairs": len(pairs),
            "median_ratio": b["median"] / a["median"] if a["median"] else None,
            "parent_iqr": a["q3"] - a["q1"],
            "gain_shown": wins >= 0.9 * len(pairs) and -gap > a["q3"] - a["q1"],
            "bound": spec["bound"],
            "within_bound": gap <= spec["bound"] * abs(a["median"]),
        }
    return {
        "pairs": len(pairs),
        "metrics": out,
        "runs": [
            {side: {"seed": r["provenance"]["seed"], "first": (i % 2 == 0) == (side == "parent"),
                    "attempted": r["attempted"], "failed": r["failed"], "correct": r["correct"]}
             for side, r in (("parent", p), ("change", c))}
            for i, (p, c) in enumerate(pairs)
        ],
        "provenance": {
            "parent": _shared([p["provenance"] for p, _ in pairs]),
            "change": _shared([c["provenance"] for _, c in pairs]),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit's tree")
    parser.add_argument("--change", type=Path, required=True, help="changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--out", type=Path, required=True, help="summary JSON to write")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    print(f"removing byte-code caches from src/ and bench/ in {args.parent} and {args.change}",
          file=sys.stderr, flush=True)
    compile_trees([args.parent, args.change])
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed}: {side}", file=sys.stderr, flush=True)
            got[side] = run_one(getattr(args, side), args.workload, seed, seconds)
        pairs.append((got["parent"], got["change"]))
    summary = {"workload": args.workload, "seconds": seconds,
               **summarise(pairs, bench["end_to_end"])}
    # every run inherits this process's environment unchanged
    summary["provenance"]["environment"] = inherited_environment(os.environ)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for name, m in summary["metrics"].items():
        print(f"{name:<12} parent {m['parent']['median']:.6g}  change {m['change']['median']:.6g}"
              f" {m['unit']}  wins {m['wins']}/{m['pairs']}  gain shown {m['gain_shown']}"
              f"  within bound {m['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
