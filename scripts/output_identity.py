#!/usr/bin/env python3
"""Compare what two trees' CLIs print, argv by argv.

    python3 scripts/output_identity.py --parent DIR --change DIR --out FILE

For each tree, one fresh interpreter imports that tree's
`bench/workloads.py` and package, builds the argvs of the `cli` workload's
`Cli(7).op_input(i)` for i = 0..71, and runs each argv as the benchmark
does (`Cli.run`): in its own fresh `python -m weibull_shrink.cli` process,
with the tree's `src/` first on PYTHONPATH. The 45 seeded `mc` runs of
`SEEDED_MC` follow as i = 72..116: `mc verify` with `--delta` and with
`--delta1/--delta2`, `mc estimate-k` at (20, 6) and `mc estimate-h` at
(20, 6) and (24, 19), at seeds 11, 2502 and 987654, in text, csv and json;
each crosses a chunk boundary and ends on a partial chunk. The 9 help pages
and 4 refusals of `PAGES_AND_REFUSALS` follow as i = 117..129: `--help` at
the top level and of every subcommand, then one refusal for each exit code
other than 0: `mc verify --reps 1000` at a seed whose 3-SE check fails (1),
`mc estimate-k --reps 1` (2), `risk --p 0` (3) and `risk --out` into a
missing directory (5). Each run leaves its exit code, the sha256 of its
stdout and its stderr. A tree's own path is replaced by `<tree>` in argv and
stderr, so the data files that `estimate --data` ops write under each
tree's `bench/out/` do not count as a difference.

The record written to FILE has `what`, `argvs` (the count), `identical`
(the count of argvs whose exit code, stdout and stderr all match) and
`different`: for each other argv its index, kind and argv, both sides' exit
codes, stdout digests and stderr, and whether the stderr matches.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

SEED = 7
OPS = 72

_VERIFY = ("mc", "verify", "--h", "10.8519", "--p", "-1", "--q", "0.5", "--reps", "70000")
_SEEDED_KINDS = (
    ("mc_verify", (*_VERIFY, "--delta", "1.3")),
    ("mc_verify", (*_VERIFY, "--delta1", "0.8", "--delta2", "1.6")),
    ("mc_estimate_k", ("mc", "estimate-k", "--n", "20", "--m", "6", "--reps", "20000")),
    ("mc_estimate_h", ("mc", "estimate-h", "--n", "20", "--m", "6", "--reps", "20000")),
    ("mc_estimate_h", ("mc", "estimate-h", "--n", "24", "--m", "19", "--reps", "20000")),
)
# [i, kind, argv] of each seeded `mc` run, numbered after the workload's ops
SEEDED_MC = [
    [OPS + i, kind, [*argv, "--seed", str(seed), "--format", fmt]]
    for i, ((kind, argv), seed, fmt) in enumerate(itertools.product(
        _SEEDED_KINDS, (11, 2502, 987654), ("text", "csv", "json")))
]

_HELP_PAGES = ((), ("risk",), ("dominance",), ("table",), ("estimate",), ("mc",),
               ("mc", "verify"), ("mc", "estimate-k"), ("mc", "estimate-h"))
_POINT = ("--h", "10", "--p", "1", "--q", "0.5", "--delta", "1")
_REFUSALS = (
    ("refusal_exit_1", ("mc", "verify", *_POINT, "--reps", "1000", "--seed", "44")),
    ("refusal_exit_2", ("mc", "estimate-k", "--n", "20", "--m", "6", "--reps", "1",
                        "--seed", "11")),
    ("refusal_exit_3", ("risk", "--h", "10", "--p", "0", "--q", "0.5", "--delta", "1")),
    ("refusal_exit_5", ("risk", *_POINT, "--out", "no-such-dir/risk.txt")),
)
# [i, kind, argv] of each help page and refusal, numbered after SEEDED_MC
PAGES_AND_REFUSALS = [
    [OPS + len(SEEDED_MC) + i, kind, list(argv)]
    for i, (kind, argv) in enumerate(
        [("help", (*page, "--help")) for page in _HELP_PAGES] + list(_REFUSALS))
]

# run in each tree, as its own interpreter: argv[2] is a JSON list of jobs,
# each a workload op index or an [i, kind, argv] list
_RUNNER = """
import hashlib, json, sys
sys.path[:0] = ["bench", "src"]
import workloads

cli = workloads.Cli(int(sys.argv[1]))
root = str(workloads.ROOT)
records = []
for job in json.loads(sys.argv[2]):
    i, kind, argv = (job, *cli.op_input(job)) if isinstance(job, int) else job
    done = cli.run((kind, argv))
    records.append({
        "i": i, "kind": kind, "argv": [a.replace(root, "<tree>") for a in argv],
        "exit_code": done.returncode,
        "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
        "stderr": done.stderr.decode("utf-8", "replace").replace(root, "<tree>"),
    })
json.dump(records, sys.stdout)
"""


def tree_records(tree: Path, jobs) -> list:
    """One record per job, a workload op index or one of `SEEDED_MC` and
    `PAGES_AND_REFUSALS`, run in `tree` by a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(SEED), json.dumps(list(jobs))],
        cwd=tree.resolve(), check=True, stdout=subprocess.PIPE,
    )
    return json.loads(done.stdout)


def compare(parent: list, change: list) -> dict:
    """The identity record of two trees' records for the same jobs."""
    different = []
    for p, c in zip(parent, change, strict=True):
        if (p["i"], p["argv"]) != (c["i"], c["argv"]):
            raise ValueError(f"op {p['i']}: the trees built different argvs")
        if all(p[key] == c[key] for key in ("exit_code", "stdout_sha256", "stderr")):
            continue
        different.append({
            "i": p["i"], "kind": p["kind"], "argv": p["argv"],
            "exit_code": [p["exit_code"], c["exit_code"]],
            "stdout_sha256": [p["stdout_sha256"], c["stdout_sha256"]],
            "stderr_identical": p["stderr"] == c["stderr"],
            "stderr": [p["stderr"], c["stderr"]],
        })
    return {
        "what": f"bench/workloads.py Cli({SEED}).op_input(0..{OPS - 1}) and "
                f"{len(SEEDED_MC)} seeded mc runs, {len(_HELP_PAGES)} help pages and "
                f"{len(_REFUSALS)} refusals (exit 1, 2, 3, 5), each argv in a fresh process "
                "per tree: exit code, stdout sha256, stderr",
        "argvs": len(parent),
        "identical": len(parent) - len(different),
        "different": different,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit's tree")
    parser.add_argument("--change", type=Path, required=True, help="changed tree")
    parser.add_argument("--out", type=Path, required=True, help="record JSON to write")
    args = parser.parse_args(argv)
    jobs = [*range(OPS), *SEEDED_MC, *PAGES_AND_REFUSALS]
    record = compare(tree_records(args.parent, jobs), tree_records(args.change, jobs))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    kinds = sorted({d["kind"] for d in record["different"]})
    print(f"{record['identical']}/{record['argvs']} argvs identical; different kinds: {kinds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
