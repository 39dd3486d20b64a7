"""scripts/bench_pairs.py: the summariser, on hand-made result dicts, the
interpreter environment its summary records, the interleaved setup probes,
with a stubbed probe, and the removal of both trees' byte-code caches, on a
temporary tree."""

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


def _result(seed, commit, attempted, **values):
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()},
        "provenance": {"seed": seed, "git_commit": commit, "python": "3.11"},
    }


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
        "parent": {"seed": 7, "first": True, "attempted": 700, "failed": 0, "correct": True},
        "change": {"seed": 7, "first": False, "attempted": 1400, "failed": 0, "correct": True},
    }]
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
