"""scripts/output_identity.py on two copies of this tree: every argv matches,
a seeded `mc` run, a help page, a refusal per exit code and a kind in a
replaced format among them, and a planted one-byte change of one
subcommand's output shows as exactly that argv; on stub records, whether
only numbers moved and by how much."""

import hashlib
import importlib.util
import itertools
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "output_identity", ROOT / "scripts" / "output_identity.py")
output_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_identity)

# Cli(7) ops 2, 4, 7 and 9: estimate --t, dominance, risk --modified and
# risk, none of which loads numpy; then the last seeded mc run,
# `mc estimate-h --n 24 --m 19` at seed 987654 in json; the top-level help
# page; the refusals that exit 1, 2, 3 and 5; and the first risk op, op 9,
# in json
_RISK_JSON = output_identity.EVERY_FORMAT[2]
JOBS = (2, 4, 7, 9, output_identity.SEEDED_MC[-1], output_identity.PAGES_AND_REFUSALS[0],
        *output_identity.PAGES_AND_REFUSALS[-4:], _RISK_JSON)
EXIT_CODES = [0, 0, 0, 0, 0, 0, 1, 2, 3, 5, 0]


def _copy(tree: Path) -> Path:
    for sub in ("src", "bench"):
        shutil.copytree(ROOT / sub, tree / sub,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    return tree


def test_identical_trees_match_and_a_planted_change_shows(tmp_path):
    parent, change = _copy(tmp_path / "parent"), _copy(tmp_path / "change")
    before = output_identity.tree_records(parent, JOBS)
    record = output_identity.compare(before, output_identity.tree_records(change, JOBS))
    assert (record["argvs"], record["identical"], record["different"]) == (11, 11, [])
    assert [r["exit_code"] for r in before] == EXIT_CODES
    assert (before[4]["i"], before[4]["kind"]) == (116, "mc_estimate_h")
    # a failed check is reported in the document; each refusal is one stderr line
    assert [r["stderr"].count("\n") for r in before[5:10]] == [0, 0, 1, 1, 1]
    # op 9's argv with its --format replaced by json
    assert _RISK_JSON == [132, "risk", "json"]
    assert (before[10]["i"], before[10]["kind"]) == (132, "risk")
    assert before[10]["argv"] == [*before[3]["argv"][:-1], "json"]
    assert json.loads(before[10]["stdout"])

    # one byte of dominance's document: its "best" key becomes "bent"
    cli = change / "src" / "weibull_shrink" / "cli.py"
    text = cli.read_text()
    assert text.count('"best": ranges["best"]') == 1
    cli.write_text(text.replace('"best": ranges["best"]', '"bent": ranges["best"]'))
    record = output_identity.compare(before, output_identity.tree_records(change, JOBS))
    assert (record["argvs"], record["identical"]) == (11, 10)
    [diff] = record["different"]
    assert (diff["i"], diff["kind"], diff["exit_code"]) == (4, "dominance", [0, 0])
    assert diff["stderr_identical"] and diff["stderr"] == ["", ""]
    assert diff["stdout_sha256"][0] != diff["stdout_sha256"][1]
    assert not diff["numbers_only"] and diff["max_rel_diff"] == 0.0


def _stub(stdout, exit_code=0):
    return {"i": 0, "kind": "mc_verify", "argv": ["mc", "verify"], "exit_code": exit_code,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "stdout": stdout, "stderr": ""}


def test_compare_tells_moved_numbers_from_moved_text():
    # one stdout whose float literals moved in their last digits, integers
    # and words alike; one whose verdict and exit code moved
    parent = [_stub("UNBIASED,bias,0.25,0,1e-05,7,PASS\r\n"), _stub("mse 0.5 PASS\n")]
    change = [_stub("UNBIASED,bias,0.25000000000000006,0,1e-05,7,PASS\r\n"),
              _stub("mse 0.5 FAIL\n", exit_code=1)]
    for i, (p, c) in enumerate(zip(parent, change)):
        p["i"] = c["i"] = i
    record = output_identity.compare(parent, change)
    assert (record["argvs"], record["identical"]) == (2, 0)
    numbers, text = record["different"]
    assert numbers["numbers_only"] and numbers["exit_code"] == [0, 0]
    assert numbers["max_rel_diff"] == pytest.approx(
        (0.25000000000000006 - 0.25) / 0.25000000000000006, rel=1e-12)
    assert not text["numbers_only"] and text["exit_code"] == [0, 1]
    assert text["max_rel_diff"] == 0.0


def test_seeded_mc_runs_follow_the_workload_ops():
    # 5 argvs at 3 seeds in 3 formats, numbered after Cli(7)'s 72 ops
    jobs = output_identity.SEEDED_MC
    assert [i for i, _, _ in jobs] == list(range(72, 117))
    assert len({tuple(argv) for _, _, argv in jobs}) == 45
    for flag, values in (("--seed", {"11", "2502", "987654"}),
                         ("--format", {"text", "csv", "json"})):
        assert {argv[argv.index(flag) + 1] for _, _, argv in jobs} == values


def test_help_pages_and_refusals_follow_the_seeded_runs():
    # the top-level page and one per subcommand, then one refusal for each
    # exit code but 0, numbered after SEEDED_MC's last index, 116
    jobs = output_identity.PAGES_AND_REFUSALS
    assert [i for i, _, _ in jobs] == list(range(117, 130))
    pages = [argv for _, kind, argv in jobs if kind == "help"]
    assert pages[0] == ["--help"] and all(argv[-1] == "--help" for argv in pages)
    assert {tuple(argv[:-1]) for argv in pages} == {
        (), ("risk",), ("dominance",), ("table",), ("estimate",), ("mc",),
        ("mc", "verify"), ("mc", "estimate-k"), ("mc", "estimate-h")}
    assert [kind for _, kind, _ in jobs[len(pages):]] == [
        "refusal_exit_1", "refusal_exit_2", "refusal_exit_3", "refusal_exit_5"]


def test_every_kind_runs_in_every_format_after_the_pages_and_refusals():
    # the workload's 12 kinds in text, csv and json, numbered after
    # PAGES_AND_REFUSALS's last index, 129
    jobs = output_identity.EVERY_FORMAT
    assert [i for i, _, _ in jobs] == list(range(130, 166))
    kinds = output_identity._workloads.KINDS
    assert len(kinds) == 12
    assert {(kind, fmt) for _, kind, fmt in jobs} == set(
        itertools.product(kinds, ("text", "csv", "json")))
