#!/usr/bin/env python3
"""Regenerate both reference tables and their audit reports.

Writes table_31.csv / table_51.csv (full-precision cells) and the matching
audit diffs under --outdir, then prints each audit summary line. Each table
is built once and audited once; the files are the stdout of
`weibull-shrink table NN --format csv` and `weibull-shrink table NN --diff`.
"""

import argparse
import sys
from pathlib import Path

from weibull_shrink import tables


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="reproduced", help="output directory")
    args = parser.parse_args(argv)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    for table in ("31", "51"):
        if table == "31":
            cells = tables.table_31(tables.GridSpec.default_31())
            report = tables.format_diff_report(
                tables.audit_table_31(), tables.audit_ranges_31()
            )
        else:
            cells = tables.table_51(tables.GridSpec.default_51())
            report = tables.format_diff_report(tables.audit_table_51())
        (out / f"table_{table}.csv").write_text(
            tables.cells_to_csv(cells), encoding="utf-8", newline=""
        )
        (out / f"table_{table}_audit.txt").write_text(
            tables.cells_to_text(cells) + "\n" + report, encoding="utf-8", newline=""
        )
        for line in report.splitlines():
            if line.startswith(("summary:", "range summary:")):
                print(f"table {table}: {line}")
    print(f"wrote {out}/table_31.csv, table_51.csv and audit reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
