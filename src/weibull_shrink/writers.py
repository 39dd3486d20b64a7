"""The package's one set of generic CSV and JSON writers.

Every csv or json document the CLI prints, other than a table's cell list,
goes through `rows_to_csv` or `to_json`, and `span`/`span_ends` are the one
encoding of a dominance range (None when absent, empty when the range is
empty). The shape-specialised table-cell writers in `tables` emit the same
bytes as these, which the oracle test in tests/test_tables.py enforces.

`csv` and `json` are imported inside the writers that use them, so a process
that prints text never loads either.
"""

from __future__ import annotations

import io


def _full(value) -> str:
    """One CSV field: empty for None, true/false, floats to 17 digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def rows_to_csv(header, rows) -> str:
    """RFC-4180 CSV with CRLF line ends, every field at full precision."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_full(v) for v in row])
    return buf.getvalue()


def to_json(obj) -> str:
    import json

    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def span(r):
    """A DominanceRange as JSON: None when absent, [] when empty, else [lo, hi]."""
    if r is None:
        return None
    return [] if r.is_empty else [r.lo, r.hi]


def span_ends(r) -> tuple:
    """(lo, hi) of a DominanceRange, or (None, None) when it is absent or empty."""
    return (None, None) if r is None or r.is_empty else (r.lo, r.hi)
