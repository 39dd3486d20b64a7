#!/usr/bin/env python3
"""Compare what two trees' CLIs print, argv by argv.

    python3 scripts/output_identity.py --parent DIR --change DIR --out FILE

For each tree, one fresh interpreter imports that tree's
`bench/workloads.py` and package, builds the argvs of the `cli` workload's
`Cli(7).op_input(i)` for i = 0..71, and runs each argv as the benchmark
does (`Cli.run`): in its own fresh `python -m weibull_shrink.cli` process,
with the tree's `src/` first on PYTHONPATH. Each run leaves its exit code,
the sha256 of its stdout and its stderr. A tree's own path is replaced by
`<tree>` in argv and stderr, so the data files that `estimate --data` ops
write under each tree's `bench/out/` do not count as a difference.

The record written to FILE has `what`, `argvs` (the count), `identical`
(the count of argvs whose exit code, stdout and stderr all match) and
`different`: for each other argv its index, kind and argv, both sides' exit
codes, stdout digests and stderr, and whether the stderr matches.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SEED = 7
OPS = 72

# run in each tree, as its own interpreter: argv[1] is a JSON list of op indices
_RUNNER = """
import hashlib, json, sys
sys.path[:0] = ["bench", "src"]
import workloads

cli = workloads.Cli(int(sys.argv[1]))
root = str(workloads.ROOT)
records = []
for i in json.loads(sys.argv[2]):
    kind, argv = cli.op_input(i)
    done = cli.run((kind, argv))
    records.append({
        "i": i, "kind": kind, "argv": [a.replace(root, "<tree>") for a in argv],
        "exit_code": done.returncode,
        "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
        "stderr": done.stderr.decode("utf-8", "replace").replace(root, "<tree>"),
    })
json.dump(records, sys.stdout)
"""


def tree_records(tree: Path, indices) -> list:
    """One record per op index, run in `tree` by a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(SEED), json.dumps(list(indices))],
        cwd=tree.resolve(), check=True, stdout=subprocess.PIPE,
    )
    return json.loads(done.stdout)


def compare(parent: list, change: list) -> dict:
    """The identity record of two trees' records for the same op indices."""
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
        "what": f"bench/workloads.py Cli({SEED}).op_input(0..{OPS - 1}), each argv in a "
                "fresh process per tree: exit code, stdout sha256, stderr",
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
    record = compare(tree_records(args.parent, range(OPS)), tree_records(args.change, range(OPS)))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    kinds = sorted({d["kind"] for d in record["different"]})
    print(f"{record['identical']}/{record['argvs']} argvs identical; different kinds: {kinds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
