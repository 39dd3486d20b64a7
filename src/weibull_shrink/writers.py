"""The package's one document writer, and the one encoding of each value.

Every document the CLI prints, other than a table's cell list, goes through
`render`. A document is one record (a dict) or a list of records. How a
value prints is decided here alone: in text a float has four decimals, a
flag is yes/no, an absent value is '-' and a dominance range is `empty` or
`(lo, hi)`; in csv a float has 17 significant digits, a flag is true/false
and an absent value is an empty field; in json a range is its `span`. `span`
and `span_ends` are the one encoding of a dominance range. The
shape-specialised table-cell writers in `tables` emit the same bytes as
`render`, which the oracle test in tests/test_tables.py enforces.

This module imports no other module of the package, so it knows a dominance
range by its class name. `csv` and `json` are imported inside `render`, so a
process that prints text never loads either.
"""

from __future__ import annotations

import io


def _is_range(value) -> bool:
    return type(value).__name__ == "DominanceRange"


def span(r):
    """A DominanceRange as JSON: None when absent, [] when empty, else [lo, hi]."""
    if r is None:
        return None
    return [] if r.is_empty else [r.lo, r.hi]


def span_ends(r) -> tuple:
    """(lo, hi) of a DominanceRange, or (None, None) when it is absent or empty."""
    return (None, None) if r is None or r.is_empty else (r.lo, r.hi)


def _text(value) -> str:
    """One text value: '-' for None, yes/no, floats and ranges to 4 decimals."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    if _is_range(value):
        return "empty" if value.is_empty else f"({value.lo:.4f}, {value.hi:.4f})"
    return str(value)


def _csv(value) -> str:
    """One CSV field: empty for None, true/false, floats to 17 digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json(value):
    """json.dumps' hook: a dominance range as its span, and nothing else."""
    if _is_range(value):
        return span(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render(fmt: str, doc, text=None, table=None) -> str:
    """The document `doc`, one record or a list of records, in format `fmt`.

    json prints `doc` indented by two; a non-finite float raises ValueError.
    csv prints `table`, a (header, rows) pair, as RFC-4180 with CRLF line
    ends, every field at full precision; it defaults to the records' keys
    over their values. text prints `text(doc)`, by default one `key = value`
    line per field of each record.
    """
    if fmt == "json":
        import json

        return json.dumps(doc, indent=2, allow_nan=False, default=_json) + "\n"
    records = [doc] if isinstance(doc, dict) else doc
    if fmt == "csv":
        import csv

        if table is None:
            table = (list(records[0]), (r.values() for r in records))
        header, rows = table
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv(v) for v in row])
        return buf.getvalue()
    if text is not None:
        return text(doc)
    return "".join(f"{k} = {_text(v)}\n" for r in records for k, v in r.items())
