#!/usr/bin/env python3
"""Regenerate both reference tables and their audit reports.

Writes table_31.csv / table_51.csv (full-precision cells) and the matching
audit diffs under --outdir, then prints each audit summary line. Each file
is written by the CLI itself, `weibull-shrink table NN --format csv` and
`weibull-shrink table NN --diff` with `--out`, so it is byte-equal to that
command's stdout; the summary lines are read back from the audit file.
"""

import argparse
import sys
from pathlib import Path

from weibull_shrink import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="reproduced", help="output directory")
    args = parser.parse_args(argv)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    for table in ("31", "51"):
        audit = out / f"table_{table}_audit.txt"
        for path, flags in ((out / f"table_{table}.csv", ["--format", "csv"]), (audit, ["--diff"])):
            code = cli.main(["table", table, *flags, "--out", str(path)])
            if code:
                return code
        for line in audit.read_text(encoding="utf-8").splitlines():
            if line.startswith(("summary:", "range summary:")):
                print(f"table {table}: {line}")
    print(f"wrote {out}/table_31.csv, table_51.csv and audit reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
