"""Efficiency-table generation, serialization, and the printed-value audit.

Two stock grids are built in: `table_31` evaluates the plain shrinkage
estimator (efficiency, bias, and the per-block dominance ranges) over nine
departure rows, and `table_51` evaluates the truncated estimator over seven
guess intervals. Both take a GridSpec, so arbitrary grids work the same way.

GridSpec is where a grid's input is checked, by the rules in `model`, with
every problem reported at once; the builders trust it. One walk, `_walk`,
visits the cells of any grid in the printed order (q, departure row, p,
design) and takes w(p) once per (p, h). Each table has one evaluator of a
cell at a weight w, `_evaluate_31` and `_evaluator_51` (which evaluates the
truncated estimator's incomplete-gamma terms once per (h, delta1, delta2)),
and both the table's builder and its audit use it. Both take a cell's
efficiency from the cell's MSE through `risk._efficiency`, as the reports
do, and the builders refuse, by `_finite_mse`, a cell whose MSE overflows or
vanishes, naming its design, row, p and q.
`table_31`, `table_51` and the grader construct each TableCell and CellAudit
positionally, in slot order: with CPython 3.11 on a 2-core Intel Xeon, a
keyword call to the twelve- or fourteen-field constructor took about 1.8 us
against 1.1 us. The field-by-name tests in tests/test_tables.py check every
field against the quantity it names, so two swapped arguments fail there.
`table_31` keeps the three ranges of each (p, q, h) block as one tuple.

The audit recomputes every cell of the embedded printed tables and
classifies disagreements instead of smoothing them over. One grader serves
both cell audits: each supplies its departure rows, its printed-value lookup,
its tolerance and its table's evaluator, and the grader walks the stock grid.
It evaluates a cell again at the source's rounded (sometimes misprinted)
weight only when it falls outside tolerance: a cell that reproduces there is
an artifact of the printing, and anything else is reported as a source
disagreement with its relative error. `printed_audit` picks out the records
of the printed cells among any selection of cells.

The table-cell writers `cells_to_csv`, `cells_to_json` and `cells_to_text`
live here. Only pre and arb are a cell's own: (m, h, p, q) repeats across a
design block, (delta1, delta2, delta) across a departure row (the walk
shares one delta object per row) and the three dominance ranges across a
(p, q, h) block. So each writer first collects the distinct shared
fragments of its call, `_fragments`, in dicts that live only for that call,
formats each fragment once (the text writer after its width pass), and per
cell formats pre and arb and joins the pieces. A fragment is keyed by the
identity of its objects, not their values: one object always prints the
same bytes, and a value key would hash the three `DominanceRange`s of every
cell through `Frozen.__hash__`. The CSV and JSON writers are byte-equal to
the document writer `writers.render` (csv over the cells' columns, json over
`TableCell.to_dict`, whose ranges it prints as spans), and the text writer,
on built cells, to a writer that formats and right-justifies every field on
its own; the oracle tests in tests/test_tables.py enforce both.
Like the rest of the analytic layer this module never imports numpy. Of the
CLI subcommands only `table` imports this module, and with it the
transcribed printed tables in `reference_data`.
"""

from __future__ import annotations

import math

from weibull_shrink import reference_data as ref
from weibull_shrink.estimators import shrink_weight
from weibull_shrink.model import BUILTIN_H, Frozen, GridValidationError, _set
from weibull_shrink.model import _require_h, _require_interval, _require_m, _require_p, _require_q
from weibull_shrink.risk import (
    DominanceRange,
    _bias_shrink_given_w,
    _efficiency,
    _interval_terms,
    _mse_modified_given_terms,
    _nondegenerate_w,
    _ranges_given_w,
    _rmse_shrink_given_w,
)
from weibull_shrink.writers import span_ends

DEFAULT_DESIGNS = tuple(sorted((m, h) for (n, m), h in BUILTIN_H.items() if n == 20))
ROWS_31 = tuple((d1, d2) for d1, d2, _ in ref.TABLE_31_DEPARTURES)

# audit tolerances: efficiencies are compared relatively, biases absolutely,
# range endpoints with an allowance for the source's truncate-vs-round habit
PRE_RTOL_31 = 0.01
ARB_ATOL_31 = 5e-3
PRE_RTOL_51 = 0.015
ENDPOINT_ATOL = 0.0101
LARGE_DISAGREEMENT = 0.05


class GridSpec(Frozen):
    """Evaluation grid: designs as (m, h) pairs, p and q lists, departure rows."""

    __slots__ = ("h_values", "p_values", "q_values", "delta_rows")

    def _check(self) -> None:
        h_values = tuple((m, float(h)) for m, h in self.h_values)
        p_values = tuple(float(p) for p in self.p_values)
        q_values = tuple(float(q) for q in self.q_values)
        delta_rows = tuple((float(a), float(b)) for a, b in self.delta_rows)
        _set(self, "h_values", h_values)
        _set(self, "p_values", p_values)
        _set(self, "q_values", q_values)
        _set(self, "delta_rows", delta_rows)
        problems = [
            f"{name} is empty"
            for name in ("h_values", "p_values", "q_values", "delta_rows")
            if not getattr(self, name)
        ]

        def passes(label: str, rule, *args) -> bool:
            try:
                rule(*args)
            except ValueError as exc:
                problems.append(f"{label}: {exc}")
                return False
            return True

        # a table design has no n, so only the m rule applies; int() follows it, never truncating m
        designs = [
            (int(m), h) for m, h in h_values
            if passes(f"design (m={m}, h={h})", _require_m, m)
            and passes(f"design (m={m}, h={h})", _require_h, h, 4.0)
        ]
        for p in p_values:
            if passes(f"p={p}", _require_p, p):
                for m, h in designs:
                    passes(f"p={p} is inadmissible at h={h} (m={m})", shrink_weight, p, h)
        for q in q_values:
            passes(f"q={q}", _require_q, q)
        for i, (d1, d2) in enumerate(delta_rows):
            passes(f"delta row {i}", _require_interval, "delta1", d1, "delta2", d2)
        if problems:
            raise GridValidationError("invalid grid: " + "; ".join(problems))
        _set(self, "h_values", tuple(designs))

    @classmethod
    def default_31(cls) -> "GridSpec":
        return cls(DEFAULT_DESIGNS, ref.GRID_P, ref.GRID_Q, ROWS_31)

    @classmethod
    def default_51(cls) -> "GridSpec":
        return cls(DEFAULT_DESIGNS, ref.GRID_P, ref.GRID_Q, ref.TABLE_51_INTERVALS)


class TableCell(Frozen):
    """One evaluated grid point; ranges ride along on plain-estimator cells."""

    __slots__ = ("m", "h", "p", "q", "delta1", "delta2", "delta", "pre",
                 "arb", "mse_range", "arb_range", "best")
    _defaults = (None, None, None, None)

    def _check(self) -> None:
        pre, arb = self.pre, self.arb
        if not math.isfinite(pre) or pre < 0.0:
            raise ValueError(f"pre must be finite and >= 0, got {pre!r}")
        if arb is not None and (not math.isfinite(arb) or arb < 0.0):
            raise ValueError(f"arb must be finite and >= 0, got {arb!r}")


def _walk(designs, p_values, q_values, rows):
    """(q, i, delta1, delta2, delta, p, m, h, w) for every cell of a grid,
    delta = (delta1 + delta2)/2 taken once per departure row and w = w(p) at h
    once per (p, h).

    The order is q outermost, then departure row i, then p, then design,
    mirroring the printed layout; the builders and the audit grader all
    follow it. Every cell of a row holds the same delta object, so the cell
    writers format it once.
    """
    weights = {(p, h): shrink_weight(p, h) for p in p_values for _, h in designs}
    points = [(p, m, h, weights[p, h]) for p in p_values for m, h in designs]
    rows = [(d1, d2, 0.5 * (d1 + d2)) for d1, d2 in rows]
    for q in q_values:
        for i, (d1, d2, delta) in enumerate(rows):
            for p, m, h, w in points:
                yield q, i, d1, d2, delta, p, m, h, w


def _evaluate_31(h: float, q: float, d1: float, d2: float, delta: float, w: float) -> tuple:
    """(pre, arb) of a table 3.1 cell at weight w."""
    return (_efficiency(h, _rmse_shrink_given_w(h, q, delta, w)),
            abs(_bias_shrink_given_w(q, delta, w)))


def _evaluator_51(designs, rows):
    """The evaluator of (pre, None) of a table 5.1 cell at weight w, which
    takes the truncated estimator's incomplete-gamma terms from a table made
    once per (h, delta1, delta2) of the grid."""
    terms = {(h, d1, d2): _interval_terms(h, d1, d2) for _, h in designs for d1, d2 in rows}

    def evaluate(h, q, d1, d2, delta, w):
        mse = _mse_modified_given_terms(h, q, d1, d2, w, terms[h, d1, d2])
        return _efficiency(h, mse), None

    return evaluate


def table_31(spec: GridSpec) -> list:
    """Plain-shrinkage efficiency/bias cells with per-(p,q,h) dominance ranges."""
    cells = []
    ranges = {}
    for q, _, d1, d2, delta, p, m, h, w in _walk(
        spec.h_values, spec.p_values, spec.q_values, spec.delta_rows
    ):
        key = (p, q, h)
        block = ranges.get(key)
        if block is None:
            r = _ranges_given_w(h, q, _nondegenerate_w(p, h, w))
            block = ranges[key] = (r["mse"], r["arb"], r["best"])
        pre, arb = _evaluate_31(h, q, d1, d2, delta, w)
        # positional, in slot order: m, h, p, q, delta1, delta2, delta, pre,
        # arb, mse_range, arb_range, best
        cells.append(TableCell(m, h, p, q, d1, d2, delta, _finite_mse(pre, m, h, p, q, d1, d2),
                               arb, *block))
    return cells


def table_51(spec: GridSpec) -> list:
    """Truncated-shrinkage efficiency cells; no bias column, no ranges."""
    evaluate = _evaluator_51(spec.h_values, spec.delta_rows)
    # positional, in slot order: m, h, p, q, delta1, delta2, delta, pre
    return [
        TableCell(m, h, p, q, d1, d2, delta,
                  _finite_mse(evaluate(h, q, d1, d2, delta, w)[0], m, h, p, q, d1, d2))
        for q, _, d1, d2, delta, p, m, h, w in _walk(
            spec.h_values, spec.p_values, spec.q_values, spec.delta_rows
        )
    ]


def _finite_mse(pre, m, h, p, q, d1, d2) -> float:
    """pre, unless the cell's MSE overflowed (PRE = 100 mse_mmse / mse is 0 or
    NaN) or vanished (PRE is +inf)."""
    if 0.0 < pre < math.inf:
        return pre
    where = f"at design (m={m}, h={h}), row ({d1!r}, {d2!r}), p={p} and q={q}"
    if pre == math.inf:
        raise ValueError(f"the MSE vanishes {where}, so the efficiency is unbounded")
    raise OverflowError(f"the MSE overflows {where} (PRE {pre!r})")


# ---------------------------------------------------------------------------
# serialization of table cells

CSV_HEADER = [
    "m", "h", "p", "q", "delta1", "delta2", "delta",
    "pre", "arb", "range_lo", "range_hi", "best_lo", "best_hi",
]


def _fragments(cells) -> tuple:
    """The cells' shared columns, each distinct one once: (heads, rows,
    tails, picks).

    `heads` maps a key to a cell's (m, h, p, q), `rows` to its (delta1,
    delta2, delta) and `tails` to its (mse_range, arb_range, best); `picks`
    holds (head key, row key, tail key, pre, arb) per cell, in order. A key is
    the identities of its objects, not their values: one object always prints
    the same bytes, and keyed by value the three `DominanceRange`s of each
    cell would be hashed through `Frozen.__hash__`, which builds a tuple of
    their fields. The dicts hold the objects, so no identity is reused while
    they live.
    """
    heads, rows, tails, picks = {}, {}, {}, []
    for c in cells:
        head = (id(c.m), id(c.h), id(c.p), id(c.q))
        if head not in heads:
            heads[head] = (c.m, c.h, c.p, c.q)
        row = (id(c.delta1), id(c.delta2), id(c.delta))
        if row not in rows:
            rows[row] = (c.delta1, c.delta2, c.delta)
        tail = (id(c.mse_range), id(c.arb_range), id(c.best))
        if tail not in tails:
            tails[tail] = (c.mse_range, c.arb_range, c.best)
        picks.append((head, row, tail, c.pre, c.arb))
    return heads, rows, tails, picks


# "%r" is the float repr json uses and "%.17g" is writers._csv's float format


def cells_to_csv(cells) -> str:
    """RFC-4180 CSV at full precision; range_lo/range_hi hold the MSE range."""
    heads, rows, tails, picks = _fragments(cells)
    head = {k: "%.17g,%.17g,%.17g,%.17g," % v for k, v in heads.items()}
    row = {k: "%.17g,%.17g,%.17g," % v for k, v in rows.items()}
    tail = {
        k: "".join("," if v is None else ",%.17g" % v
                   for v in (*span_ends(mse), *span_ends(best))) + "\r\n"
        for k, (mse, _, best) in tails.items()
    }
    lines = [",".join(CSV_HEADER) + "\r\n"]
    lines += [
        head[h] + row[r] + ("%.17g," % pre if arb is None else "%.17g,%.17g" % (pre, arb))
        + tail[t]
        for h, r, t, pre, arb in picks
    ]
    return "".join(lines)


def _json_span(r: DominanceRange | None) -> str:
    """A range as writers.span prints it: null, [] or [lo, hi]."""
    if r is None:
        return "null"
    if r.is_empty:
        return "[]"
    return "[\n      %r,\n      %r\n    ]" % (r.lo, r.hi)


def cells_to_json(cells) -> str:
    """The cells as writers.render prints the JSON list of their to_dict,
    indented by two; non-finite floats raise."""
    heads, rows, tails, picks = _fragments(cells)
    head = {k: '  {\n    "m": %r,\n    "h": %r,\n    "p": %r,\n    "q": %r,\n' % v
            for k, v in heads.items()}
    row = {k: '    "delta1": %r,\n    "delta2": %r,\n    "delta": %r,\n' % v
           for k, v in rows.items()}
    tail = {k: '    "mse_range": %s,\n    "arb_range": %s,\n    "best": %s\n  }'
            % tuple(map(_json_span, v)) for k, v in tails.items()}
    # TableCell keeps pre and arb finite, so only a shared fragment can hold
    # a NaN or an infinity; no key of the fragments contains "nan" or "inf"
    if any("nan" in s or "inf" in s for d in (head, row, tail) for s in d.values()):
        raise ValueError("Out of range float values are not JSON compliant")
    if not picks:
        return "[]\n"
    items = [
        head[h] + row[r] + ('    "pre": %r,\n    "arb": null,\n' % pre if arb is None
                            else '    "pre": %r,\n    "arb": %r,\n' % (pre, arb)) + tail[t]
        for h, r, t, pre, arb in picks
    ]
    return "[\n" + ",\n".join(items) + "\n]\n"


_TEXT_HEADER = ("m", "h", "p", "q", "d1", "d2", "delta", "pre", "arb",
                "mse_lo", "mse_hi", "best_lo", "best_hi")
# per column: "s" is str(), "g" the shortest general form, "f" four decimals
_TEXT_KINDS = "sfggfffffffff"


def cells_to_text(cells) -> str:
    """Aligned plain text, four decimals, '-' where a column does not apply.

    The column widths come from one pass over the distinct shared fragments
    and the cells' own pre and arb (a fixed-point column's greatest value,
    every other column's widest); then each fragment is formatted once at
    those widths, as in the CSV and JSON writers. The cells must be built
    ones, from `table_31` or `table_51`: there every fixed-point field (h,
    the departures, pre, arb and the range ends) is finite and >= +0.0, as
    `GridSpec`, `_finite_mse` and `_range_about` ensure, so its greatest
    value prints widest. A NaN, an infinity or a -0.0 may be misaligned.
    """
    heads, rows, tails, picks = _fragments(cells)
    spans = {k: (*span_ends(mse), *span_ends(best)) for k, (mse, _, best) in tails.items()}
    columns = [
        *(zip(*heads.values()) if heads else [()] * 4),
        *(zip(*rows.values()) if rows else [()] * 3),
        [pick[3] for pick in picks],
        [pick[4] for pick in picks],
        *(zip(*spans.values()) if spans else [()] * 4),
    ]
    widths = []
    for name, kind, column in zip(_TEXT_HEADER, _TEXT_KINDS, columns):
        if kind == "f":
            # rounding is monotone and a built cell's fixed-point fields are
            # finite and >= +0.0, so the greatest value prints widest
            present = [v for v in column if v is not None] if None in column else column
            width = len("%.4f" % max(present)) if present else 0
        else:
            width = max(map(len, map(f"%{kind}".__mod__, column)), default=0)
        widths.append(max(len(name), width))
    fields = [f"%{w}{'.4f' if k == 'f' else k}" for w, k in zip(widths, _TEXT_KINDS)]
    # an absent value prints as a right-aligned '-'
    gaps = [" " * (w - 1) + "-" for w in widths]
    head_fmt = "  ".join(fields[:4]) + "  "
    head = {k: head_fmt % v for k, v in heads.items()}
    row_fmt = "  ".join(fields[4:7]) + "  "
    row = {k: row_fmt % v for k, v in rows.items()}
    own_fmt = fields[7] + "  " + fields[8]
    bare_fmt = fields[7] + "  " + gaps[8]
    tail = {
        k: "".join("  " + (gap if end is None else field % end)
                   for end, field, gap in zip(ends, fields[9:], gaps[9:]))
        for k, ends in spans.items()
    }
    lines = ["  ".join(name.rjust(w) for name, w in zip(_TEXT_HEADER, widths))]
    lines += [
        head[h] + row[r] + (bare_fmt % pre if arb is None else own_fmt % (pre, arb)) + tail[t]
        for h, r, t, pre, arb in picks
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# audit of the embedded printed tables

PASS = "pass"
ARTIFACT = "printed-weight-artifact"
DISAGREE = "source-disagreement"
UNVERIFIABLE = "unverifiable"
INCONSISTENT = "inconsistent"


class CellAudit(Frozen):
    """The audit record of one printed cell."""

    __slots__ = ("table", "m", "p", "q", "delta1", "delta2", "printed_pre",
                 "computed_pre", "rel_err_pre", "status", "printed_arb",
                 "computed_arb", "abs_err_arb", "large")
    _defaults = (None, None, None, False)


class RangeAudit(Frozen):
    """The audit record of one printed dominance range."""

    __slots__ = ("kind", "m", "p", "q", "printed", "computed", "status")


def _grade(table: str, rows, printed, rtol: float, evaluate) -> list:
    """Classify every printed cell of one stock table.

    `rows` are its (delta1, delta2) departure rows, `printed(p, q, i, m)` the
    printed (pre, arb) of row i, and `evaluate` the table's evaluator of
    (pre, arb) at a weight w; arb is None where the table prints no bias. A
    cell passes when pre is within `rtol` relatively and arb within
    ARB_ATOL_31; a cell outside tolerance is evaluated again at the printed
    rounded weight, and is an artifact if it passes there and a source
    disagreement otherwise.
    """

    def within(pre, arb, printed_pre, printed_arb) -> bool:
        return abs(pre - printed_pre) / printed_pre <= rtol and (
            arb is None or abs(arb - printed_arb) <= ARB_ATOL_31
        )

    audits = []
    for q, i, d1, d2, delta, p, m, h, w in _walk(DEFAULT_DESIGNS, ref.GRID_P, ref.GRID_Q, rows):
        printed_pre, printed_arb = printed(p, q, i, m)
        pre, arb = evaluate(h, q, d1, d2, delta, w)
        if within(pre, arb, printed_pre, printed_arb):
            status = PASS
        elif within(*evaluate(h, q, d1, d2, delta, ref.W_PRINTED[p][m]),
                    printed_pre, printed_arb):
            status = ARTIFACT
        else:
            status = DISAGREE
        rel = abs(pre - printed_pre) / printed_pre
        # positional, in slot order: table, m, p, q, delta1, delta2,
        # printed_pre, computed_pre, rel_err_pre, status, printed_arb,
        # computed_arb, abs_err_arb, large
        audits.append(
            CellAudit(
                table, m, p, q, d1, d2, printed_pre, pre, rel, status, printed_arb, arb,
                None if arb is None else abs(arb - printed_arb), rel > LARGE_DISAGREEMENT,
            )
        )
    return audits


def audit_table_31() -> list:
    """Classify every printed efficiency/bias cell of the nine-row table."""
    return _grade("31", ROWS_31, ref.printed_pre_arb, PRE_RTOL_31, _evaluate_31)


def audit_table_51() -> list:
    """Classify every printed efficiency cell of the truncated-estimator table."""

    def printed(p, q, i, m):
        return ref.TABLE_51[(q, p, m)][i], None

    evaluate = _evaluator_51(DEFAULT_DESIGNS, ref.TABLE_51_INTERVALS)
    return _grade("51", ref.TABLE_51_INTERVALS, printed, PRE_RTOL_51, evaluate)


def printed_audit(which: str, cells) -> tuple:
    """Audit records for the printed cells among `cells` of table `which`
    ("31" or "51"), those at their m's built-in h: the cell records, and for
    table 3.1 the range records of their (p, q, m) blocks (None for 5.1)."""
    stock_h = dict(DEFAULT_DESIGNS)
    printed = {(c.m, c.p, c.q, c.delta1, c.delta2) for c in cells if stock_h.get(c.m) == c.h}
    blocks = {(p, q, m) for m, p, q, _, _ in printed}
    if which == "31":
        audits = audit_table_31()
        ranges = [r for r in audit_ranges_31() if (r.p, r.q, r.m) in blocks]
    else:
        audits, ranges = audit_table_51(), None
    audits = [a for a in audits if (a.m, a.p, a.q, a.delta1, a.delta2) in printed]
    return audits, ranges


def _endpoint_matches(computed: float, printed: float) -> bool:
    # the source truncated some endpoints instead of rounding (6.262 -> 6.25)
    truncated = math.floor(computed * 100.0) / 100.0
    return min(abs(computed - printed), abs(truncated - printed)) <= ENDPOINT_ATOL


def _range_matches(r: DominanceRange, printed: tuple) -> bool:
    return (not r.is_empty) and _endpoint_matches(r.lo, printed[0]) and _endpoint_matches(
        r.hi, printed[1]
    )


def audit_ranges_31() -> list:
    """Compare printed dominance-range endpoints against recomputation.

    Entries the source never printed come back `unverifiable`; endpoints that
    reproduce only under the printed rounded weight are artifacts; a printed
    best range that duplicates the MSE range where recomputation says it
    should be narrower is `inconsistent`.
    """
    audits = []
    # GRID_P and GRID_Q are sorted, so the blocks come in sorted (p, q) order
    for p in ref.GRID_P:
        designs = [(m, h, _nondegenerate_w(p, h, shrink_weight(p, h))) for m, h in DEFAULT_DESIGNS]
        for q in ref.GRID_Q:
            rec = ref.RANGES_31[p, q]
            for m, h, w in designs:
                computed = _ranges_given_w(h, q, w)
                rows = [(kind, rec[kind][m], computed[kind]) for kind in ("mse", "arb", "best")]
                misses = [printed is not None and not _range_matches(got, printed)
                          for _, printed, got in rows]
                # the printed rounded weight is tried only in a block with a miss
                with_header_w = _ranges_given_w(h, q, ref.W_PRINTED[p][m]) if any(misses) else None
                for (kind, printed, got), miss in zip(rows, misses):
                    if printed is None:
                        status = UNVERIFIABLE
                    elif not miss:
                        status = PASS
                    elif _range_matches(with_header_w[kind], printed):
                        status = ARTIFACT
                    elif kind == "best" and printed == rec["mse"][m]:
                        status = INCONSISTENT
                    else:
                        status = DISAGREE
                    audits.append(RangeAudit(kind, m, p, q, printed, got, status))
    return audits


class AuditSummary(Frozen):
    """Status counts over one table's cell audit."""

    __slots__ = ("table", "total", "passed", "artifacts", "disagreements", "large")

    @property
    def unambiguous(self) -> int:
        return self.total - self.artifacts

    @property
    def pass_rate(self) -> float:
        """Percent of unambiguous cells within tolerance; NaN if there are none."""
        return 100.0 * self.passed / self.unambiguous if self.unambiguous else math.nan


def summarize_audit(audits) -> AuditSummary:
    return AuditSummary(
        table=audits[0].table if audits else "",
        total=len(audits),
        passed=sum(a.status == PASS for a in audits),
        artifacts=sum(a.status == ARTIFACT for a in audits),
        disagreements=sum(a.status == DISAGREE for a in audits),
        large=sum(a.large for a in audits),
    )


def format_diff_report(audits, range_audits=None) -> str:
    """Human-readable audit: one line per non-passing cell plus a summary."""
    lines = []
    for a in audits:
        if a.status == PASS:
            continue
        mark = " (>5%)" if a.large else ""
        detail = f"printed pre={a.printed_pre} computed={a.computed_pre:.2f} rel={a.rel_err_pre:.2%}"
        if a.printed_arb is not None:
            detail += f"; printed arb={a.printed_arb} computed={a.computed_arb:.4f}"
        lines.append(
            f"[{a.status}{mark}] m={a.m} p={a.p:g} q={a.q:g} "
            f"rows ({a.delta1:g}, {a.delta2:g}): {detail}"
        )
    s = summarize_audit(audits)
    rate = f"{s.pass_rate:.1f}%" if s.unambiguous else "n/a"
    lines.append(
        f"summary: {s.passed}/{s.unambiguous} unambiguous cells within tolerance "
        f"({rate}); {s.artifacts} cells reproduce only under the "
        f"printed rounded weight; {s.disagreements} source disagreements; "
        f"{s.large} flagged cells off by more than 5%"
    )
    if range_audits is not None:
        for r in range_audits:
            if r.status == PASS:
                continue
            lines.append(
                f"[range {r.status}] {r.kind} m={r.m} p={r.p:g} q={r.q:g}: "
                f"printed={r.printed} computed=({r.computed.lo:.4f}, {r.computed.hi:.4f})"
            )
        counts = {}
        for r in range_audits:
            counts[r.status] = counts.get(r.status, 0) + 1
        lines.append(
            "range summary: "
            + ", ".join(
                f"{counts.get(k, 0)} {k}"
                for k in (PASS, ARTIFACT, UNVERIFIABLE, INCONSISTENT, DISAGREE)
            )
        )
    return "\n".join(lines) + "\n"
