"""scripts/output_identity.py on two copies of this tree: every argv matches,
and a planted one-byte change of one subcommand's output shows as exactly
that argv."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "output_identity", ROOT / "scripts" / "output_identity.py")
output_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_identity)

# Cli(7) ops 2, 4, 7 and 9: estimate --t, dominance, risk --modified and
# risk, none of which loads numpy
OPS = (2, 4, 7, 9)


def _copy(tree: Path) -> Path:
    for sub in ("src", "bench"):
        shutil.copytree(ROOT / sub, tree / sub,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    return tree


def test_identical_trees_match_and_a_planted_change_shows(tmp_path):
    parent, change = _copy(tmp_path / "parent"), _copy(tmp_path / "change")
    before = output_identity.tree_records(parent, OPS)
    record = output_identity.compare(before, output_identity.tree_records(change, OPS))
    assert (record["argvs"], record["identical"], record["different"]) == (4, 4, [])
    assert [r["exit_code"] for r in before] == [0, 0, 0, 0]

    # one byte of dominance's document: its "best" key becomes "bent"
    cli = change / "src" / "weibull_shrink" / "cli.py"
    text = cli.read_text()
    assert text.count('"best": ranges["best"]') == 1
    cli.write_text(text.replace('"best": ranges["best"]', '"bent": ranges["best"]'))
    record = output_identity.compare(before, output_identity.tree_records(change, OPS))
    assert (record["argvs"], record["identical"]) == (4, 3)
    [diff] = record["different"]
    assert (diff["i"], diff["kind"], diff["exit_code"]) == (4, "dominance", [0, 0])
    assert diff["stderr_identical"] and diff["stderr"] == ["", ""]
    assert diff["stdout_sha256"][0] != diff["stdout_sha256"][1]
