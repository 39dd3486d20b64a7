"""scripts/output_identity.py on two copies of this tree: every argv matches,
a seeded `mc` run, a help page and a refusal per exit code among them, and a
planted one-byte change of one subcommand's output shows as exactly that
argv."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "output_identity", ROOT / "scripts" / "output_identity.py")
output_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_identity)

# Cli(7) ops 2, 4, 7 and 9: estimate --t, dominance, risk --modified and
# risk, none of which loads numpy; then the last seeded mc run,
# `mc estimate-h --n 24 --m 19` at seed 987654 in json; the top-level help
# page; and the refusals that exit 1, 2, 3 and 5
JOBS = (2, 4, 7, 9, output_identity.SEEDED_MC[-1], output_identity.PAGES_AND_REFUSALS[0],
        *output_identity.PAGES_AND_REFUSALS[-4:])
EXIT_CODES = [0, 0, 0, 0, 0, 0, 1, 2, 3, 5]


def _copy(tree: Path) -> Path:
    for sub in ("src", "bench"):
        shutil.copytree(ROOT / sub, tree / sub,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    return tree


def test_identical_trees_match_and_a_planted_change_shows(tmp_path):
    parent, change = _copy(tmp_path / "parent"), _copy(tmp_path / "change")
    before = output_identity.tree_records(parent, JOBS)
    record = output_identity.compare(before, output_identity.tree_records(change, JOBS))
    assert (record["argvs"], record["identical"], record["different"]) == (10, 10, [])
    assert [r["exit_code"] for r in before] == EXIT_CODES
    assert (before[4]["i"], before[4]["kind"]) == (116, "mc_estimate_h")
    # a failed check is reported in the document; each refusal is one stderr line
    assert [r["stderr"].count("\n") for r in before[5:]] == [0, 0, 1, 1, 1]

    # one byte of dominance's document: its "best" key becomes "bent"
    cli = change / "src" / "weibull_shrink" / "cli.py"
    text = cli.read_text()
    assert text.count('"best": ranges["best"]') == 1
    cli.write_text(text.replace('"best": ranges["best"]', '"bent": ranges["best"]'))
    record = output_identity.compare(before, output_identity.tree_records(change, JOBS))
    assert (record["argvs"], record["identical"]) == (10, 9)
    [diff] = record["different"]
    assert (diff["i"], diff["kind"], diff["exit_code"]) == (4, "dominance", [0, 0])
    assert diff["stderr_identical"] and diff["stderr"] == ["", ""]
    assert diff["stdout_sha256"][0] != diff["stdout_sha256"][1]


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
