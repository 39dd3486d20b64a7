"""scripts/bench_pairs.py: the summariser, on hand-made result dicts, the
interpreter environment its summary records, the host probe before each run
and the interleaved setup probes, each with a stubbed probe, the output
identity record of two stub trees, and the removal of both trees' byte-code
caches, on a temporary tree."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "op_p90_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def _result(seed, commit, attempted, host_probe_s=0.05, **values):
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()},
        "provenance": {"seed": seed, "git_commit": commit, "python": "3.11"},
        "host_probe_s": host_probe_s,
    }


def _no_identity(parent, change):
    return {"argvs": 0, "identical": 0, "different": []}


def test_summarise_one_pair():
    parent = _result(7, "abc", 700, op_p90_s=0.080, peak_rss_mb=32.0, rate=10.0)
    change = _result(7, "def", 1400, op_p90_s=0.050, peak_rss_mb=36.0, rate=9.5)
    s = bench_pairs.summarise([(parent, change)], METRICS)

    p90 = s["metrics"]["op_p90_s"]
    assert p90["parent"] == {"median": 0.080, "q1": 0.080, "q3": 0.080, "runs": [0.080]}
    assert p90["change"]["median"] == 0.050
    assert (p90["wins"], p90["pairs"]) == (1, 1)
    assert p90["median_ratio"] == pytest.approx(0.625)
    assert p90["gain_shown"] and p90["within_bound"]

    rss = s["metrics"]["peak_rss_mb"]  # 12.5% worse against a 10% bound
    assert rss["wins"] == 0
    assert not rss["gain_shown"] and not rss["within_bound"]

    rate = s["metrics"]["rate"]  # higher is better: 5% lower loses but stays in bound
    assert rate["wins"] == 0
    assert not rate["gain_shown"] and rate["within_bound"]

    assert s["pairs"] == 1
    assert s["runs"] == [{
        "parent": {"seed": 7, "first": True, "attempted": 700, "failed": 0, "correct": True,
                   "host_probe_s": 0.05},
        "change": {"seed": 7, "first": False, "attempted": 1400, "failed": 0, "correct": True,
                   "host_probe_s": 0.05},
    }]
    assert s["host_probe"]["median_paired_ratio"] == 1.0
    assert not any(m["host_moved_beyond_bound"] for m in s["metrics"].values())
    assert s["provenance"] == {
        "parent": {"seed": 7, "git_commit": "abc", "python": "3.11"},
        "change": {"seed": 7, "git_commit": "def", "python": "3.11"},
    }


def test_summarise_quartiles_and_alternation():
    pairs = [
        (_result(s, "abc", 10, op_p90_s=p, peak_rss_mb=30.0, rate=1.0),
         _result(s, "def", 10, op_p90_s=c, peak_rss_mb=30.0, rate=1.0))
        for s, p, c in ((1, 0.08, 0.05), (2, 0.09, 0.09), (3, 0.10, 0.06))
    ]
    s = bench_pairs.summarise(pairs, METRICS)
    p90 = s["metrics"]["op_p90_s"]
    assert p90["parent"]["q1"] == pytest.approx(0.085)
    assert p90["parent"]["q3"] == pytest.approx(0.095)
    assert p90["wins"] == 2  # the tie counts for neither side
    assert not p90["gain_shown"]  # 2 of 3 is under nine tenths
    assert s["metrics"]["peak_rss_mb"]["within_bound"]
    assert [r["change"]["first"] for r in s["runs"]] == [False, True, False]
    assert "seed" not in s["provenance"]["parent"]  # seeds differ, so it is per run


def test_summary_records_the_environment_the_runs_inherited(tmp_path, monkeypatch):
    seen = []

    def fake_run(tree, workload, seed, seconds):
        # what a child process started now would inherit
        seen.append(bench_pairs.inherited_environment(os.environ))
        return _result(seed, tree.name, 10, op_p90_s=0.05, peak_rss_mb=30.0, rate=1.0)

    for tree in ("parent", "change"):
        (tmp_path / tree).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "compile_trees", lambda trees: None)
    monkeypatch.setattr(bench_pairs, "run_one", fake_run)
    monkeypatch.setattr(bench_pairs, "setup_probe", lambda tree, workload, seed: 0.1)
    monkeypatch.setattr(bench_pairs, "host_probe", lambda: 0.05)
    monkeypatch.setattr(bench_pairs, "output_identity", _no_identity)
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    out = tmp_path / "summary.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--workload", "grid",
                             "--seeds", "1", "2", "--out", str(out)]) == 0
    want = {"PYTHONUNBUFFERED": "1", "PYTHONDONTWRITEBYTECODE": None, "PYTHONHASHSEED": "0"}
    assert seen == [want] * 4
    provenance = json.loads(out.read_text())["provenance"]
    assert provenance["environment"] == want  # an unset variable is null
    assert provenance["parent"]["git_commit"] == "parent"


def test_setup_probes_run_after_the_pairs_in_a_b_b_a_order(tmp_path, monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append(("run", tree.name, seed))
        return _result(seed, tree.name, 10, op_p90_s=0.05, peak_rss_mb=30.0, rate=1.0)

    def fake_probe(tree, workload, seed):
        # the parent always reads 0.100 s; the change 0.090 s on its first
        # five probes, 0.105 s after them
        calls.append(("probe", tree.name, workload, seed))
        made = sum(c[0] == "probe" and c[1] == tree.name for c in calls)
        return 0.100 if tree.name == "parent" else (0.090 if made <= 5 else 0.105)

    for tree in ("parent", "change"):
        (tmp_path / tree).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "compile_trees", lambda trees: None)
    monkeypatch.setattr(bench_pairs, "run_one", fake_run)
    monkeypatch.setattr(bench_pairs, "setup_probe", fake_probe)
    monkeypatch.setattr(bench_pairs, "host_probe", lambda: 0.05)
    monkeypatch.setattr(bench_pairs, "output_identity", _no_identity)
    out = tmp_path / "summary.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--workload", "cli",
                             "--seeds", "31", "32", "--out", str(out)]) == 0
    assert [c[0] for c in calls] == ["run"] * 4 + ["probe"] * 2 * bench_pairs.SETUP_PROBES
    probes = [c[1:] for c in calls[4:]]
    assert {(workload, seed) for _, workload, seed in probes} == {("cli", 31)}
    order = [tree for tree, _, _ in probes]
    assert order[:8] == ["parent", "change", "change", "parent"] * 2
    assert order.count("parent") == order.count("change") == bench_pairs.SETUP_PROBES

    record = json.loads(out.read_text())["setup_probes_interleaved"]
    assert record["parent"]["median"] == pytest.approx(0.100)
    assert record["parent"]["q1"] == record["parent"]["q3"] == pytest.approx(0.100)
    assert record["change"]["median"] == pytest.approx(0.105)  # 15 of 20 read 0.105
    assert record["change"]["q1"] == pytest.approx(0.090 + 0.75 * 0.015)  # rank 4.75 of 0..19
    assert record["median_paired_ratio"] == pytest.approx(1.05)
    assert len(record["change"]["runs"]) == bench_pairs.SETUP_PROBES
    assert "20 fresh processes per tree" in record["what"]


def test_host_probe_runs_before_each_run_and_flags_a_moved_host(tmp_path, monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append(("run", tree.name))
        return _result(seed, tree.name, 10, op_p90_s=0.05, peak_rss_mb=30.0, rate=1.0)

    def fake_host_probe():
        # the host reads 0.040 s before every parent run and 0.046 s before
        # every change run: 15% slower, past the 10% bounds, inside the 25%
        calls.append(("host", None))
        return 0.040 if sum(c[0] == "host" for c in calls) in (1, 4, 5) else 0.046

    for tree in ("parent", "change"):
        (tmp_path / tree).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "compile_trees", lambda trees: None)
    monkeypatch.setattr(bench_pairs, "run_one", fake_run)
    monkeypatch.setattr(bench_pairs, "host_probe", fake_host_probe)
    monkeypatch.setattr(bench_pairs, "output_identity", _no_identity)
    monkeypatch.setattr(bench_pairs, "setup_probe", lambda tree, workload, seed: 0.1)
    out = tmp_path / "summary.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--workload", "grid",
                             "--seeds", "1", "2", "3", "--out", str(out)]) == 0
    # parent first on even pairs, change first on odd ones, a probe before each
    assert calls == [("host", None), ("run", "parent"), ("host", None), ("run", "change"),
                     ("host", None), ("run", "change"), ("host", None), ("run", "parent"),
                     ("host", None), ("run", "parent"), ("host", None), ("run", "change")]
    summary = json.loads(out.read_text())
    host = summary["host_probe"]
    assert host["parent"]["runs"] == [0.040] * 3
    assert host["change"]["runs"] == [0.046] * 3
    assert host["median_paired_ratio"] == pytest.approx(1.15)
    assert [r["change"]["host_probe_s"] for r in summary["runs"]] == [0.046] * 3
    moved = {name: m["host_moved_beyond_bound"] for name, m in summary["metrics"].items()}
    assert moved == {"op_p90_s": False, "peak_rss_mb": True, "rate": True}


# a stub `bench/workloads.py`: each run prints its argv, and the top-level
# help page also the tree's MARK, so two trees whose MARKs differ differ there
# alone
_STUB_WORKLOADS = """
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = {kinds!r}
MARK = {mark!r}


class Cli:
    def __init__(self, seed):
        self.seed = seed

    def kind_of(self, i):
        return KINDS[i % len(KINDS)]

    def op_input(self, i):
        return self.kind_of(i), ["op", str(i), "--format", "text"]

    def run(self, inp):
        argv = inp[1]
        out = " ".join(argv) + (MARK if argv == ["--help"] else "")
        return subprocess.CompletedProcess(argv, 0, out.encode(), b"")
"""


def test_summary_embeds_the_output_identity_of_the_two_trees(tmp_path, monkeypatch):
    # the real scripts/output_identity.py runs every argv in two stub trees
    spec = importlib.util.spec_from_file_location("output_identity",
                                                  _PATH.with_name("output_identity.py"))
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    kinds = sorted({kind for _, kind, _ in identity.EVERY_FORMAT})
    for tree, mark in (("parent", ""), ("change", " moved")):
        (tmp_path / tree / "bench").mkdir(parents=True)
        (tmp_path / tree / "bench" / "workloads.py").write_text(
            _STUB_WORKLOADS.format(kinds=kinds, mark=mark))
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "compile_trees", lambda trees: None)
    monkeypatch.setattr(bench_pairs, "run_one", lambda tree, workload, seed, seconds: _result(
        seed, tree.name, 10, op_p90_s=0.05, peak_rss_mb=30.0, rate=1.0))
    monkeypatch.setattr(bench_pairs, "setup_probe", lambda tree, workload, seed: 0.1)
    monkeypatch.setattr(bench_pairs, "host_probe", lambda: 0.05)
    out = tmp_path / "summary.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--workload", "cli",
                             "--seeds", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())["output_identity"]
    argvs = (identity.OPS + len(identity.SEEDED_MC) + len(identity.PAGES_AND_REFUSALS)
             + len(identity.EVERY_FORMAT))
    assert (record["argvs"], record["identical"]) == (argvs, argvs - 1)
    [moved] = record["different"]
    assert [moved["i"], moved["kind"], moved["argv"]] == identity.PAGES_AND_REFUSALS[0]
    assert moved["exit_code"] == [0, 0] and moved["numbers_only"] is False
    assert record["what"].startswith("bench/workloads.py Cli(7)")


def test_host_probe_times_fresh_interpreters():
    assert 0.0 < bench_pairs.host_probe(count=2) < 60.0


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts}


def test_compile_trees_removes_every_cache(tmp_path):
    sources = [tmp_path / "src" / "pkg" / "__init__.py", tmp_path / "src" / "pkg" / "mod.py",
               tmp_path / "bench" / "run.py", tmp_path / "tests" / "test_mod.py"]
    for path in sources:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("VALUE = 1\n")
        cache = Path(importlib.util.cache_from_source(str(path)))
        cache.parent.mkdir(exist_ok=True)
        cache.write_bytes(b"cache")
    (tmp_path / "bench" / "out").mkdir()
    (tmp_path / "bench" / "out" / "result.json").write_text("{}\n")
    before = _files(tmp_path)
    bench_pairs.compile_trees([tmp_path])
    assert _files(tmp_path) == before
    caches = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("__pycache__"))
    assert caches == [Path("tests", "__pycache__")]  # only src/ and bench/ are cleaned


def test_compile_trees_refuses_a_broken_module(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "bench").mkdir()
    (tmp_path / "src" / "bad.py").write_text("def (\n")
    with pytest.raises(RuntimeError, match="cannot compile .*bad.py"):
        bench_pairs.compile_trees([tmp_path])
    assert not list(tmp_path.rglob("__pycache__"))


def test_setup_probe_times_a_real_probe():
    # one real `bench/run.py --setup-probe` of this tree
    seconds = bench_pairs.setup_probe(Path(__file__).resolve().parent.parent, "grid", 1)
    assert 0.0 < seconds < 60.0
