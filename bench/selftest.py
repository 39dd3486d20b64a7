"""Smoke checks of the benchmark itself: python3 bench/run.py --self-test

1. Short runs of every workload emit every metric named in BENCHMARK.json,
   with its unit, and report no failed op.
2. Each workload's checker accepts a true record and rejects a planted wrong
   one: a perturbed table cell or audit count, a shifted Monte Carlo mean, a
   wrong exit code or stdout.
3. Tracing leaves the outputs of every workload unchanged.
4. Without the package source next to it the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

from spread import run_once
from tracing import Tracer, installed
from workloads import OUT, ROOT, WORKLOADS

SMOKE_SECONDS = 2
TRACE_SECONDS = 6


def emitted_metrics(problems: list) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [(w, 0, SMOKE_SECONDS, spec["end_to_end"]) for w in WORKLOADS]
    runs.append(("grid", 1, TRACE_SECONDS, spec["per_layer"]))
    for workload, trace, seconds, wanted in runs:
        result = run_once(workload, 1, seconds, trace)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in wanted}
        if got != want:
            problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload} trace={trace}: {result['failed']} failed ops")


def _first_record(wl, i=0):
    inp = wl.op_input(i)
    return wl.record(i, inp, wl.run(inp))


def planted_results(problems: list) -> None:
    def expect(name, wl, records, should_fail):
        failed = bool(wl.check(records))
        if failed != should_fail:
            problems.append(f"{name}: checker {'missed' if should_fail else 'rejected'} it")

    grid = WORKLOADS["grid"](1)
    rec = _first_record(grid)
    expect("grid true record", grid, [rec], False)
    bad = copy.deepcopy(rec)
    bad.samples[5][1]["pre"] *= 1.0 + 1e-5
    expect("grid perturbed fresh cell", grid, [bad], True)
    bad = copy.deepcopy(rec)
    bad.stock[1][7]["pre"] *= 1.0 + 1e-5
    expect("grid perturbed stock cell", grid, [bad], True)
    bad = copy.deepcopy(rec)
    bad.audits["51"]["pass"] += 1
    expect("grid audit count", grid, [bad], True)

    sim = WORKLOADS["simulate"](1, replicates=20_000)
    rec = _first_record(sim)
    expect("simulate true record", sim, [rec], False)
    name, bias, mse, se_b, se_m, a_bias, a_mse = rec.rows[1]
    shifted = (name, bias + 10.0 * se_b, mse, se_b, se_m, a_bias, a_mse)
    rows = (rec.rows[0], shifted, *rec.rows[2:])
    expect("simulate shifted mean", sim, [_with(rec, rows=rows)], True)

    cli = WORKLOADS["cli"](1)
    i = next(k for k in range(cli.window) if cli.kind_of(k) == "risk")
    rec = _first_record(cli, i)
    expect("cli true record", cli, [rec], False)
    expect("cli wrong exit code", cli, [_with(rec, code=1)], True)
    expect("cli wrong stdout", cli, [_with(rec, stdout_digest="0" * 64)], True)


def _with(rec, **changes):
    out = copy.copy(rec)
    for k, v in changes.items():
        setattr(out, k, v)
    return out


def tracing_transparent(problems: list) -> None:
    for name in ("grid", "simulate"):
        wl = WORKLOADS[name](2)
        inp = wl.op_input(3)
        plain = wl.record(3, inp, wl.run(inp))
        with installed(Tracer()):
            traced = wl.record(3, inp, wl.run(inp))
        if plain.digest != traced.digest:
            problems.append(f"{name}: tracing changed the outputs")
    cli = WORKLOADS["cli"](2)
    for i in range(cli.window):
        _, argv = cli.op_input(i)
        plain = cli.inprocess(argv)
        with installed(Tracer()):
            traced = cli.inprocess(argv)
        if plain != traced:
            problems.append(f"cli {' '.join(argv)}: tracing changed the outputs")


def refuses_without_source(problems: list) -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or b"correct" in out.stdout:
        problems.append(f"without src/ the benchmark exited {out.returncode} with {out.stdout!r}")


def main() -> int:
    problems: list = []
    for check in (planted_results, tracing_transparent, refuses_without_source, emitted_metrics):
        before = len(problems)
        check(problems)
        print(f"{check.__name__}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for p in problems:
        print("  " + p)
    print("self-test passed" if not problems else f"self-test FAILED ({len(problems)} problems)")
    return 1 if problems else 0
