#!/usr/bin/env python3
"""Benchmark of the weibull-shrink package: grid, simulate and cli workloads.

    python3 bench/run.py --workload {grid,simulate,cli} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --self-test

Each workload is a closed loop with one client in this one process: the next
op starts when the previous one has finished. With --trace 0 the run measures
end-to-end metrics for --seconds seconds. With --trace 1 it runs every
workload, half of each slice untraced and half traced, and reports per-layer
metrics and the tracing overhead.
Outputs are checked after the timed interval. The last line of stdout is one
JSON object; the full result, with provenance, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import KINDS, OUT, ROOT, SRC, WORKLOADS

SETUP_PROBES = (5, 4)  # fresh interpreters timed before and after the timed interval
WARMUP_OPS = 2
REPEATED_OPS = 2  # ops run again after the timed interval; outputs must match bit for bit
# The end-to-end metrics BENCHMARK.json bounds. The median latency and the
# throughput are reported beside them but not gated: on a shared machine they
# spread more between runs than the largest bound a metric may have.
GATED = ("setup_s", "op_p90_s", "peak_rss_mb")


@dataclass
class Measurement:
    durations: list = field(default_factory=list)
    works: list = field(default_factory=list)
    records: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # op index -> exception text


def measure(wl, seconds: float, tracer=None, min_ops: int = 1, op_base: int = 0) -> Measurement:
    """Run ops 0, 1, ... until `seconds` have passed; only `wl.run` is timed."""
    m = Measurement()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        if tracer is not None and tracer.full:
            break
        inp = wl.op_input(i)
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = wl.run(inp)
                t1 = time.perf_counter()
            else:
                with tracer.op_span(op_base + i, wl.name):
                    t0 = time.perf_counter()
                    out = wl.run(inp)
                    t1 = time.perf_counter()
        except Exception:  # an op that raises counts as a failed op
            m.errors[i] = traceback.format_exc(limit=3)
        else:
            m.durations.append(t1 - t0)
            m.works.append(wl.work(inp, out))
            m.records.append(wl.record(i, inp, out))
        i += 1
    return m


def warm_up(wl) -> None:
    for k in range(WARMUP_OPS):
        wl.run(wl.op_input(-1 - k))  # negative indices: inputs unlike any timed op


def quantile(values, share: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def windowed_rate(works: list, durations: list, window: int) -> tuple[float, int]:
    """Median of work/time over consecutive windows of `window` ops."""
    n = len(durations)
    size = window if n >= window else n
    rates = [
        sum(works[a:a + size]) / sum(durations[a:a + size])
        for a in range(0, n - size + 1, size)
    ]
    return statistics.median(rates), len(rates)


def setup_seconds(workload: str, seed: int, count: int) -> list:
    """Seconds from spawning a fresh interpreter to the workload being set up."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}, exit {proc.returncode}")
        times.append(t1 - t0)
    return times


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# end-to-end run


def repeat_failures(wl, m: Measurement, seed: int) -> dict:
    """Run a few seeded ops again; the same inputs must give the same outputs."""
    rng = random.Random(f"repeat:{seed}")
    failures = {}
    for rec in rng.sample(m.records, min(REPEATED_OPS, len(m.records))):
        inp = wl.op_input(rec.i)
        again = wl.record(rec.i, inp, wl.run(inp))
        if again.digest != rec.digest:
            failures[rec.i] = "running the op again gave different outputs"
    return failures


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    before, after = SETUP_PROBES
    setups = setup_seconds(workload, seed, before)
    wl = WORKLOADS[workload](seed)
    warm_up(wl)
    m = measure(wl, seconds)
    rss = peak_rss_mb(children=workload == "cli")  # before the checks import scipy
    setups += setup_seconds(workload, seed, after)
    failures = {**m.errors, **wl.check(m.records)}
    for i, why in repeat_failures(wl, m, seed).items():
        failures[i] = failures.get(i, "") + why
    attempted = len(m.durations) + len(m.errors)
    rate, windows = windowed_rate(m.works, m.durations, wl.window)
    measured = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(m.durations), "s"),
        "op_p90_s": (quantile(m.durations, 0.9), "s"),
        "work_per_s": (rate, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    metrics = {k: v for k, v in measured.items() if k in GATED}
    detail = {
        "ops": len(m.durations),
        "work_unit": wl.work_unit,
        "work_per_s_name": wl.throughput_name,
        "work_per_s_windows": windows,
        "setup_probes": setups,
        "error_rate": len(failures) / attempted,
    }
    result = _result(attempted, failures, metrics, detail)
    result["reported"] = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}
    return result


def _result(attempted, failures, metrics, detail) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "failures": {str(k): v for k, v in sorted(failures.items())[:20]},
    }


# ---------------------------------------------------------------------------
# traced run


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    from tracing import Tracer, installed

    tracer = Tracer()
    share = seconds / 3.0
    metrics, failures, attempted = {}, {}, 0
    op_base = 0
    for name in ("grid", "simulate"):
        wl = WORKLOADS[name](seed)
        warm_up(wl)
        plain = measure(wl, share / 2.0)
        with installed(tracer):
            traced = measure(wl, share / 2.0, tracer=tracer, op_base=op_base)
        ops = set(range(op_base, op_base + len(traced.durations) + len(traced.errors)))
        op_base += len(ops)
        for label, m in (("untraced", plain), ("traced", traced)):
            attempted += len(m.durations) + len(m.errors)
            for i, why in {**m.errors, **wl.check(m.records)}.items():
                failures[f"{name}/{label}/{i}"] = why
        untraced_digest = {r.i: r.digest for r in plain.records}
        for r in traced.records:
            if untraced_digest.get(r.i, r.digest) != r.digest:
                failures[f"{name}/traced/{r.i}"] = "traced outputs differ from untraced ones"
        metrics.update(LAYER_METRICS[name](tracer, ops))
        metrics[f"trace.{name}.overhead_s"] = (paired_overhead(plain, traced), "s")
    cli_metrics, cli_failures, cli_attempted = cli_layers(seed, share, tracer, op_base)
    metrics.update(cli_metrics)
    failures.update(cli_failures)
    attempted += cli_attempted
    stem = OUT / f"spans-{workload}"  # one file per workload bounds the disk used
    tracer.write(stem)
    detail = {"spans": len(tracer.start), "spans_file": str(stem.relative_to(ROOT)) + ".bin"}
    return _result(attempted, failures, metrics, detail)


def paired_overhead(plain: Measurement, traced: Measurement) -> float:
    """Median over op indices run both ways of traced minus untraced seconds."""
    untraced = {r.i: d for r, d in zip(plain.records, plain.durations)}
    return statistics.median(
        d - untraced[r.i] for r, d in zip(traced.records, traced.durations) if r.i in untraced
    )


def _per_op(value: float, ops: set) -> float:
    return value / len(ops)


def grid_layers(tracer, ops: set) -> dict:
    calls, secs = tracer.layer_totals(ops)
    out = {}

    def layer(name, with_calls=False):
        out[f"{name}.self_s"] = (_per_op(secs.get(name, 0.0), ops), "s")
        if with_calls:
            out[f"{name}.calls"] = (_per_op(calls.get(name, 0), ops), "count")

    layer("specfun.reg_lower_inc_gamma", True)
    layer("estimators.shrink_weight", True)
    distinct = tracer.distinct_total("estimators.shrink_weight", ops)
    out["estimators.shrink_weight.distinct_ratio"] = (
        distinct / calls["estimators.shrink_weight"], "ratio")
    for name in ("risk.pre_shrink", "risk.arb_shrink", "risk.dominance", "risk.pre_modified"):
        layer(name)
    layer("risk.mse_modified", True)
    out["risk.mse_modified.calls_per_cell"] = (
        calls.get("risk.mse_modified", 0) / tracer.counter_total("tables.cells_51", ops), "ratio")
    for name in ("tables.build", "tables.audit", "tables.serialize"):
        layer(name)
    out["tables.cells"] = (_per_op(tracer.counter_total("tables.cells", ops), ops), "count")
    layer("model.validate", True)
    return out


def simulate_layers(tracer, ops: set) -> dict:
    _, secs = tracer.layer_totals(ops)
    out = {
        f"{name}.self_s": (_per_op(secs.get(name, 0.0), ops), "s")
        for name in ("montecarlo.sample_t", "montecarlo.estimator", "montecarlo.empirical_risk")
    }
    drawn = tracer.counter_total("montecarlo.streams_drawn", ops)
    out["montecarlo.chunks"] = (_per_op(drawn, ops), "count")
    draws = tracer.counter_total("montecarlo.gamma_draws", ops)
    out["montecarlo.gamma_draws"] = (_per_op(draws, ops), "count")
    streams = tracer.distinct_total("montecarlo.streams", ops)
    out["montecarlo.draw_reuse_ratio"] = (streams / drawn, "ratio")
    return out


LAYER_METRICS = {"grid": grid_layers, "simulate": simulate_layers}

PROBE_CODE = {
    "cli.import_s": "import weibull_shrink.cli",
    "cli.numpy_import_s": "import numpy",
}
PROBE_REPEATS = 3


def _probe(code: str, env) -> float:
    """In-interpreter seconds taken by `code`, measured in a fresh interpreter."""
    timed = (
        "import sys, time\nt = time.perf_counter()\n" + code
        + "\nsys.stdout.write(repr(time.perf_counter() - t))\n"
    )
    out = subprocess.run([sys.executable, "-c", timed], cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, check=True, timeout=60)
    return float(out.stdout)


def cli_layers(seed: int, seconds: float, tracer, op_base: int):
    from tracing import installed
    from workloads import GROUPS, subprocess_env

    env = subprocess_env()
    metrics = {}
    starts = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
        starts.append(time.perf_counter() - t0)
    metrics["cli.interpreter_s"] = (statistics.median(starts), "s")
    for name, code in PROBE_CODE.items():
        metrics[name] = (statistics.median(_probe(code, env) for _ in range(PROBE_REPEATS)), "s")

    wl = WORKLOADS["cli"](seed)
    warm_up(wl)
    cold = measure(wl, seconds / 2.0, min_ops=len(KINDS))
    failures = {
        f"cli/cold/{i}": why for i, why in {**cold.errors, **wl.check(cold.records)}.items()
    }
    warm = {g: [] for g in GROUPS}
    overheads, calibrate_ops = [], set()
    for rec in cold.records:
        group = KINDS[rec.kind]
        wl.inprocess(rec.argv)  # the first in-process call of an argv pays one-off costs
        t0 = time.perf_counter()
        expected = wl.inprocess(rec.argv)
        untraced = time.perf_counter() - t0
        op_id = op_base + rec.i
        with installed(tracer), tracer.op_span(op_id, "cli"):
            t0 = time.perf_counter()
            got = wl.inprocess(rec.argv)
            traced = time.perf_counter() - t0
        if got != expected:
            failures[f"cli/traced/{rec.i}"] = "traced in-process output differs"
        warm[group].append(untraced)
        overheads.append(traced - untraced)
        if rec.kind in ("estimate_data", "mc_estimate_k", "mc_estimate_h"):
            calibrate_ops.add(op_id)
    by_group = {g: [] for g in GROUPS}
    for rec, d in zip(cold.records, cold.durations):
        by_group[KINDS[rec.kind]].append(d)
    for g in GROUPS:
        metrics[f"cli.{g}.cold_p50_s"] = (statistics.median(by_group[g]), "s")
        metrics[f"cli.{g}.warm_s"] = (statistics.median(warm[g]), "s")
    _, secs = tracer.layer_totals(calibrate_ops)
    calibrate = secs.get("montecarlo.calibrate", 0.0)
    metrics["montecarlo.calibrate.self_s"] = (_per_op(calibrate, calibrate_ops), "s")
    metrics["trace.cli.overhead_s"] = (statistics.median(overheads), "s")
    attempted = len(cold.durations) + len(cold.errors)
    return metrics, failures, attempted


# ---------------------------------------------------------------------------
# provenance and output


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "weibull_shrink").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    from workloads import CLI_CALIBRATE_REPS, CLI_VERIFY_REPS, REPLICATES

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "replicates_per_op": {"simulate": REPLICATES, "cli mc verify": CLI_VERIFY_REPS,
                              "cli mc estimate-k/-h": CLI_CALIBRATE_REPS},
    }


def _load_package() -> None:
    if not (SRC / "weibull_shrink" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'weibull_shrink'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import weibull_shrink

    if Path(weibull_shrink.__file__).resolve().parent != (SRC / "weibull_shrink").resolve():
        sys.exit(f"bench: imported weibull_shrink from {weibull_shrink.__file__}, not {SRC}")


def _print_summary(result: dict, args) -> None:
    d = result["detail"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"error_rate {result['failed'] / result['attempted']:.4g}")
    for name, why in result["failures"].items():
        print(f"  FAILED op {name}: {why}")
    for name, m in result.get("reported", result["metrics"]).items():
        label = d.get("work_per_s_name", name) if name == "work_per_s" else name
        gated = "" if name in result["metrics"] else "  (reported, not gated)"
        print(f"  {label:<40} {m['value']:>14.6g} {m['unit']}{gated}")
    if "ops" in d:
        print(f"  samples: {d['ops']} ops; throughput in {d['work_unit']}, median of "
              f"{d['work_per_s_windows']} windows; setup median of "
              f"{len(d['setup_probes'])} fresh interpreters")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own smoke checks")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps any child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _load_package()
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed).op_input(0)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    result["provenance"] = provenance(args)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    _print_summary(result, args)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
