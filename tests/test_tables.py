"""Grid evaluation, serialization formats, and the printed-table audit.

The audit classifications asserted here are frozen counts: they were
established by recomputing every embedded cell both under exact weights and
under the rounded weights shown in the source table headers, and any change
in these numbers means either the formulas or the embedded data moved.
"""

import csv
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from weibull_shrink import reference_data as ref
from weibull_shrink import risk, tables, writers
from weibull_shrink.estimators import shrink_weight
from weibull_shrink.model import BUILTIN_H, InadmissibleParameterError
from weibull_shrink.risk import DominanceRange
from weibull_shrink.tables import (
    ARTIFACT,
    CSV_HEADER,
    DISAGREE,
    INCONSISTENT,
    PASS,
    UNVERIFIABLE,
    GridSpec,
    GridValidationError,
    TableCell,
    audit_ranges_31,
    audit_table_31,
    audit_table_51,
    cells_to_csv,
    cells_to_json,
    cells_to_text,
    format_diff_report,
    summarize_audit,
    table_31,
    table_51,
)

H6 = BUILTIN_H[20, 6]


@pytest.fixture(scope="module")
def cells31():
    return table_31(GridSpec.default_31())


@pytest.fixture(scope="module")
def cells51():
    return table_51(GridSpec.default_51())


# --- grid construction ------------------------------------------------------


def test_default_grid_cardinalities(cells31, cells51):
    # 3 q * 9 departure rows * 4 p * 4 designs
    assert len(cells31) == 432
    # 3 q * 7 interval rows * 4 p * 4 designs
    assert len(cells51) == 336


def test_cell_iteration_order(cells31):
    # q outermost, then departure row, then p, then design
    first = cells31[0]
    assert (first.q, first.delta1, first.delta2, first.p, first.m) == (0.25, 0.1, 0.2, -2.0, 6)
    assert cells31[1].m == 8
    assert cells31[4].p == -1.0 and cells31[4].m == 6
    assert (cells31[16].delta1, cells31[16].delta2) == (0.4, 0.6)
    assert cells31[144].q == 0.5
    assert cells31[-1].m == 12 and cells31[-1].p == 2.0 and cells31[-1].q == 0.75


def test_grid_validation_collects_every_problem():
    with pytest.raises(GridValidationError) as exc:
        GridSpec(
            h_values=((6, 3.0),),
            p_values=(1.0,),
            q_values=(0.0,),
            delta_rows=((1.2, 0.8),),
        )
    msg = str(exc.value)
    assert "h > 4" in msg
    assert "q=0.0" in msg
    assert "delta row 0" in msg


def test_grid_validation_rejects_q_above_one():
    with pytest.raises(GridValidationError, match=r"q=1\.5: q must lie in \(0, 1\]"):
        GridSpec(((6, H6),), (1.0,), (0.5, 1.5), ((0.8, 1.2),))


def test_grid_validation_rejects_inadmissible_p():
    # p = -2 needs h > 8; h = 7 is a legal design but not for this exponent,
    # and the message carries shrink_weight's reason
    with pytest.raises(
        GridValidationError,
        match=r"p=-2\.0 is inadmissible at h=7\.0 \(m=4\): p=-2\.0 violates the "
        r"gamma-argument bound p > -1\.75 for h=7\.0",
    ):
        GridSpec(
            h_values=((4, 7.0),),
            p_values=(-2.0,),
            q_values=(0.5,),
            delta_rows=((0.8, 1.2),),
        )


def test_table_cell_validation():
    with pytest.raises(ValueError):
        TableCell(m=6, h=H6, p=1.0, q=0.5, delta1=1.0, delta2=1.0, delta=1.0, pre=-5.0)
    with pytest.raises(ValueError):
        TableCell(
            m=6, h=H6, p=1.0, q=0.5, delta1=1.0, delta2=1.0, delta=1.0, pre=50.0, arb=-0.1
        )


@pytest.mark.parametrize(
    "build, spec, error, message",
    [
        # w(1000) underflows to 0 at h = 10 and q * delta = 1: the MSE is 0
        (table_31, GridSpec(((6, 10.0),), (1000.0,), (0.5,), ((2.0, 2.0),)), ValueError,
         "the MSE vanishes at design (m=6, h=10.0), row (2.0, 2.0), p=1000.0 and q=0.5, "
         "so the efficiency is unbounded"),
        # the truncated estimator always returns the true shape on (1, 1)
        (table_51, GridSpec(((6, H6),), (1.0,), (0.5,), ((1.0, 1.0),)), ValueError,
         f"the MSE vanishes at design (m=6, h={H6}), row (1.0, 1.0), p=1.0 and q=0.5, "
         "so the efficiency is unbounded"),
        (table_31, GridSpec(((6, H6),), (1.0,), (0.5,), ((1e200, 1e200),)), OverflowError,
         f"the MSE overflows at design (m=6, h={H6}), row (1e+200, 1e+200), p=1.0 and q=0.5 "
         "(PRE 0.0)"),
    ],
    ids=["31-vanishes", "51-vanishes", "31-overflows"],
)
def test_cell_without_a_finite_positive_efficiency_names_the_cell(build, spec, error, message):
    with pytest.raises(error) as exc:
        build(spec)
    assert str(exc.value) == message


# --- cell contents ----------------------------------------------------------


def _grid_points(spec):
    """(m, h, p, q, delta1, delta2) of each cell of `spec`, in table order."""
    return [(m, h, p, q, d1, d2) for q in spec.q_values for d1, d2 in spec.delta_rows
            for p in spec.p_values for m, h in spec.h_values]


def _check_cells_by_name(which, spec, cells):
    points = _grid_points(spec)
    assert len(cells) == len(points)
    for c, (m, h, p, q, d1, d2) in zip(cells, points):
        assert (c.m, c.h, c.p, c.q, c.delta1, c.delta2) == (m, h, p, q, d1, d2), c
        assert c.delta == 0.5 * (d1 + d2), c
        if which == "31":
            report = risk.report_shrink(h, p, q, c.delta)
            ranges = risk.dominance_ranges(h, p, q)
            assert (c.pre, c.arb) == (report.pre_vs_mmse, report.arb), c
            assert (c.mse_range, c.arb_range, c.best) == (
                ranges["mse"], ranges["arb"], ranges["best"]), c
        else:
            report = risk.report_modified(h, p, q, d1, d2)
            assert (c.pre, c.arb) == (report.pre_vs_mmse, None), c
            assert (c.mse_range, c.arb_range, c.best) == (None, None, None), c


@pytest.mark.parametrize("which", ["31", "51"])
def test_every_cell_field_comes_from_its_name(which, cells31, cells51):
    # table_31 and table_51 pass TableCell's twelve fields by position; every
    # field is checked against the quantity it names, over the stock table
    # and a seeded fresh grid, so any two arguments swapped fail here
    build = table_31 if which == "31" else table_51
    stock = GridSpec.default_31() if which == "31" else GridSpec.default_51()
    _check_cells_by_name(which, stock, cells31 if which == "31" else cells51)
    fresh = _fresh_spec(7)
    _check_cells_by_name(which, fresh, build(fresh))


@pytest.mark.parametrize("which", ["31", "51"])
def test_every_audit_field_comes_from_its_name(which, a31, a51):
    audits = a31 if which == "31" else a51
    rows = tables.ROWS_31 if which == "31" else ref.TABLE_51_INTERVALS
    stock_h = dict(tables.DEFAULT_DESIGNS)
    points = [(m, p, q, i) for q in ref.GRID_Q for i in range(len(rows))
              for p in ref.GRID_P for m, _ in tables.DEFAULT_DESIGNS]
    assert len(audits) == len(points)
    for a, (m, p, q, i) in zip(audits, points):
        d1, d2 = rows[i]
        h = stock_h[m]
        assert (a.table, a.m, a.p, a.q, a.delta1, a.delta2) == (which, m, p, q, d1, d2), a
        if which == "31":
            printed_pre, printed_arb = ref.printed_pre_arb(p, q, i, m)
            report = risk.report_shrink(h, p, q, 0.5 * (d1 + d2))
            assert a.abs_err_arb == abs(report.arb - printed_arb), a
        else:
            printed_pre, printed_arb = ref.TABLE_51[(q, p, m)][i], None
            report = risk.report_modified(h, p, q, d1, d2)
            assert a.abs_err_arb is None, a
        assert (a.printed_pre, a.printed_arb) == (printed_pre, printed_arb), a
        assert a.computed_pre == report.pre_vs_mmse, a
        assert a.computed_arb == (report.arb if which == "31" else None), a
        assert a.rel_err_pre == abs(a.computed_pre - printed_pre) / printed_pre, a
        assert a.large is (a.rel_err_pre > tables.LARGE_DISAGREEMENT), a
        assert a.status in (PASS, ARTIFACT, DISAGREE), a


def test_every_range_audit_field_comes_from_its_name():
    audits = audit_ranges_31()
    stock_h = dict(tables.DEFAULT_DESIGNS)
    points = [(kind, m, p, q) for p in ref.GRID_P for q in ref.GRID_Q
              for m, _ in tables.DEFAULT_DESIGNS for kind in ("mse", "arb", "best")]
    assert [(r.kind, r.m, r.p, r.q) for r in audits] == points
    for r in audits:
        assert r.printed == ref.RANGES_31[r.p, r.q][r.kind][r.m], r
        assert r.computed == risk.dominance_ranges(stock_h[r.m], r.p, r.q)[r.kind], r
        assert r.status in (PASS, ARTIFACT, UNVERIFIABLE, INCONSISTENT, DISAGREE), r
        assert (r.status == UNVERIFIABLE) == (r.printed is None), r


def _admissible(p, h):
    try:
        shrink_weight(p, h)
    except InadmissibleParameterError:
        return False
    return True


def _fresh_spec(seed):
    """A seeded grid with large designs (h/2 up to 1000) and random intervals."""
    rng = random.Random(seed)
    designs = [(6, H6), (101, rng.uniform(30.0, 80.0)), (102, rng.uniform(200.0, 500.0)),
               (103, rng.uniform(1800.0, 2000.0))]
    ps = []
    while len(ps) < 3:
        p = rng.uniform(-2.5, 3.0)
        if all(_admissible(p, h) for _, h in designs):
            ps.append(p)
    rows = []
    for _ in range(4):
        d1 = rng.uniform(0.5, 1.5)
        rows.append((d1, d1 * rng.uniform(1.0, 1.5)))
    return GridSpec(designs, ps, [rng.uniform(0.2, 1.0) for _ in range(2)], rows)


def test_table51_hoisted_terms_match_per_point_route(cells51, a51):
    # table_51 and the audit share incomplete-gamma terms across cells; each
    # value must equal the one report_modified computes for its point alone
    for c in cells51 + table_51(_fresh_spec(0)) + table_51(_fresh_spec(1)):
        report = risk.report_modified(c.h, c.p, c.q, c.delta1, c.delta2)
        assert c.pre == report.pre_vs_mmse, c
    for a in a51:
        h = dict(tables.DEFAULT_DESIGNS)[a.m]
        report = risk.report_modified(h, a.p, a.q, a.delta1, a.delta2)
        assert a.computed_pre == report.pre_vs_mmse, a


def test_table31_cells_carry_ranges(cells31):
    assert all(c.mse_range is not None for c in cells31)
    assert all(c.arb_range is not None for c in cells31)
    assert all(c.best is not None for c in cells31)
    assert all(c.arb is not None for c in cells31)


def test_table51_cells_are_pre_only(cells51):
    assert all(c.arb is None for c in cells51)
    assert all(c.mse_range is None for c in cells51)
    assert all(c.best is None for c in cells51)


def test_half_weight_block_symmetry(cells31):
    # at q = 1/2 the risks depend only on |delta/2 - 1|, so departure rows
    # mirrored about 2 carry identical pre and arb
    half = [c for c in cells31 if c.q == 0.5]
    by_key = {(c.delta, c.p, c.m): c for c in half}
    for lo, hi in ((0.5, 3.5), (1.0, 3.0), (1.5, 2.5)):
        for p in ref.GRID_P:
            for m in ref.GRID_M:
                a, b = by_key[(lo, p, m)], by_key[(hi, p, m)]
                assert a.pre == pytest.approx(b.pre, rel=1e-14)
                assert a.arb == pytest.approx(b.arb, rel=1e-14)


def test_table31_pre_peaks_nearest_inverse_q(cells31):
    # within each (q, p, m) block the best efficiency and the smallest bias
    # sit at the departure row closest to 1/q
    deltas = [d for _, _, d in ref.TABLE_31_DEPARTURES]
    blocks = defaultdict(list)
    for c in cells31:
        blocks[(c.q, c.p, c.m)].append(c)
    for (q, p, m), cs in blocks.items():
        assert len(cs) == 9
        nearest = min(deltas, key=lambda d: abs(d - 1.0 / q))
        best = max(cs, key=lambda c: c.pre)
        least_biased = min(cs, key=lambda c: c.arb)
        assert best.delta == nearest, (q, p, m)
        assert least_biased.delta == nearest, (q, p, m)


def test_table51_blocks_unimodal(cells51):
    blocks = defaultdict(list)
    for c in cells51:
        blocks[(c.q, c.p, c.m)].append(c)
    for key, cs in blocks.items():
        pres = [c.pre for c in cs]  # already in row order
        seen_fall = False
        for a, b in zip(pres, pres[1:]):
            if b < a:
                seen_fall = True
            else:
                assert not seen_fall, (key, pres)


# --- serialization ----------------------------------------------------------


def test_csv_header_and_line_endings(cells31):
    text = cells_to_csv(cells31[:3])
    lines = text.split("\r\n")
    assert lines[0] == "m,h,p,q,delta1,delta2,delta,pre,arb,range_lo,range_hi,best_lo,best_hi"
    assert lines[-1] == ""  # trailing CRLF
    assert len(lines) == 5
    assert "\n" not in text.replace("\r\n", "")


def test_csv_round_trips_full_precision(cells31):
    text = cells_to_csv(cells31)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(cells31)
    for row, cell in zip(rows, cells31):
        assert int(row["m"]) == cell.m
        assert float(row["h"]) == cell.h
        assert float(row["pre"]) == cell.pre  # .17g is lossless for doubles
        assert float(row["arb"]) == cell.arb
        assert float(row["range_lo"]) == cell.mse_range.lo
        assert float(row["best_hi"]) == cell.best.hi


def test_csv_blank_fields_for_missing_ranges(cells51):
    rows = list(csv.DictReader(io.StringIO(cells_to_csv(cells51[:2]))))
    for row in rows:
        assert row["arb"] == ""
        assert row["range_lo"] == "" and row["range_hi"] == ""
        assert row["best_lo"] == "" and row["best_hi"] == ""


def test_csv_blank_fields_for_empty_range():
    cell = TableCell(
        m=6, h=H6, p=0.05, q=0.5, delta1=1.0, delta2=1.0, delta=1.0, pre=42.0,
        arb=0.1, mse_range=DominanceRange.empty(), arb_range=DominanceRange(0.0, 1.0),
        best=DominanceRange.empty(),
    )
    row = list(csv.DictReader(io.StringIO(cells_to_csv([cell]))))[0]
    assert row["range_lo"] == "" and row["best_lo"] == ""


def test_json_output(cells31, cells51):
    data = json.loads(cells_to_json(cells31))
    assert len(data) == len(cells31)
    assert data[0]["m"] == 6
    assert data[0]["pre"] == cells31[0].pre
    assert isinstance(data[0]["mse_range"], list)
    data51 = json.loads(cells_to_json(cells51))
    assert data51[0]["arb"] is None
    assert data51[0]["mse_range"] is None


def test_json_empty_range_is_empty_list():
    cell = TableCell(
        m=6, h=H6, p=0.05, q=0.5, delta1=1.0, delta2=1.0, delta=1.0, pre=42.0,
        mse_range=DominanceRange.empty(),
    )
    data = json.loads(cells_to_json([cell]))
    assert data[0]["mse_range"] == []


def test_text_output(cells31):
    text = cells_to_text(cells31[:4])
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0].split()[:4] == ["m", "h", "p", "q"]
    # four decimals on the efficiency column
    assert f"{cells31[0].pre:.4f}" in lines[1]


def test_text_marks_missing_columns(cells51):
    line = cells_to_text(cells51[:1]).splitlines()[1]
    assert line.split()[-1] == "-"


def _oracle_csv(cells):
    rows = (
        [c.m, c.h, c.p, c.q, c.delta1, c.delta2, c.delta, c.pre, c.arb,
         *writers.span_ends(c.mse_range), *writers.span_ends(c.best)]
        for c in cells
    )
    return writers.render("csv", [], table=(CSV_HEADER, rows))


def _oracle_text(cells):
    # the generic text writer: every field formatted alone, then each column
    # right-justified to its widest entry
    header = ["m", "h", "p", "q", "d1", "d2", "delta", "pre", "arb",
              "mse_lo", "mse_hi", "best_lo", "best_hi"]

    def fmt(x) -> str:
        return "-" if x is None else f"{x:.4f}"

    rows = [header]
    for c in cells:
        lo, hi = writers.span_ends(c.mse_range)
        blo, bhi = writers.span_ends(c.best)
        rows.append([str(c.m), f"{c.h:.4f}", f"{c.p:g}", f"{c.q:g}",
                     f"{c.delta1:.4f}", f"{c.delta2:.4f}", f"{c.delta:.4f}",
                     f"{c.pre:.4f}", fmt(c.arb), fmt(lo), fmt(hi), fmt(blo), fmt(bhi)])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(val.rjust(widths[i]) for i, val in enumerate(r)) for r in rows]
    return "\n".join(lines) + "\n"


def _odd_cell(**kw):
    base = dict(m=6, h=H6, p=1.0, q=0.5, delta1=1.0, delta2=1.0, delta=1.0, pre=42.0)
    return TableCell(**{**base, **kw})


def _hand_built_cells():
    empty = DominanceRange.empty()
    return [
        _odd_cell(mse_range=empty, best=empty),
        _odd_cell(arb=None),
        _odd_cell(arb=0.5),
        _odd_cell(arb=0.25, mse_range=empty, arb_range=DominanceRange(0.5, 1.75), best=empty),
        _odd_cell(arb_range=empty, best=DominanceRange(0.0, 3.0)),
    ]


def _equal_but_distinct_cells():
    # shared columns equal in value but distinct as objects, each pair
    # printing differently: a writer that keyed its fragments by value would
    # print one cell's spelling in the other's place
    def spans(lo):
        return {kind: DominanceRange(lo, 2.0) for kind in ("mse_range", "best")}

    return [
        _odd_cell(h=0.0, delta=0.0, **spans(0.0)),
        _odd_cell(h=-0.0, delta=-0.0, **spans(-0.0)),
        _odd_cell(m=6.0, arb=0.5, arb_range=DominanceRange(-0.0, 2.0)),
        _odd_cell(arb=0.5, arb_range=DominanceRange(0.0, 2.0)),
    ]


ORACLE_CASES = {
    "stock-31": lambda: table_31(GridSpec.default_31()),
    "stock-51": lambda: table_51(GridSpec.default_51()),
    **{
        f"fresh-{seed}": lambda seed=seed: table_31(_fresh_spec(seed)) + table_51(_fresh_spec(seed))
        for seed in (11, 12, 13)
    },
    "empty": lambda: [],
    "single": lambda: table_31(GridSpec.default_31())[:1],
    "hand-built": _hand_built_cells,
    "equal-but-distinct": _equal_but_distinct_cells,
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_cell_writers_match_generic_writers(case):
    # the shape-specialised writers must emit the document writer's bytes
    cells = ORACLE_CASES[case]()
    assert cells_to_json(cells) == writers.render("json", [c.to_dict() for c in cells])
    assert cells_to_csv(cells) == _oracle_csv(cells)
    # the text writer takes built cells, whose fixed-point fields are finite
    # and >= +0.0; the equal-but-distinct cells print a -0.0
    if case != "equal-but-distinct":
        assert cells_to_text(cells) == _oracle_text(cells)


def _text_odd_cells():
    # fixed-point values a built cell can hold whose width is easy to misjudge:
    # a value that rounds up to a longer string (99999.99996), values that
    # round to 0.0000, zero itself, wide integers and large values
    empty = DominanceRange.empty()
    return [
        _odd_cell(h=1e6, delta1=1e-320, arb=0.0),
        _odd_cell(delta=0.0, pre=1e7, mse_range=DominanceRange(0.0, 2.0)),
        _odd_cell(m=123456, p=-2.5e-7, q=1e-9, delta2=4e-5, best=DominanceRange(0.0, 1.0)),
        _odd_cell(delta1=4e-5, arb=0.0, mse_range=DominanceRange(0.0, 99999.99996), best=empty),
        _odd_cell(h=4.00004, pre=0.0, arb_range=DominanceRange(3.0, 4.0)),
        _odd_cell(h=2e4, delta1=123456.75, delta=98765.4321),
    ]


@pytest.mark.parametrize("picks", [(0,), (1,), (2,), (3,), (4,), (5,), (1, 2), (2, 1),
                                   (0, 3, 4), (0, 5), (1, 5), (4, 3, 2, 1, 0, 5)])
def test_text_writer_matches_oracle_on_odd_values(picks):
    cells = _text_odd_cells()
    chosen = [cells[i] for i in picks]
    assert cells_to_text(chosen) == _oracle_text(chosen)
    stock = table_31(GridSpec.default_31())[:40:7]
    assert cells_to_text(stock + chosen) == _oracle_text(stock + chosen)
    assert cells_to_text(chosen + stock) == _oracle_text(chosen + stock)


@pytest.mark.parametrize("field", [{"h": float("nan")}, {"delta1": float("inf")}])
def test_json_rejects_non_finite_cell_fields(field):
    # TableCell checks only pre and arb; JSON has no spelling for NaN or inf
    with pytest.raises(ValueError):
        cells_to_json([_odd_cell(**field)])


def test_csv_spells_non_finite_cell_fields():
    text = cells_to_csv([_odd_cell(h=float("nan")), _odd_cell(delta1=float("inf"))])
    assert text.split("\r\n")[1:] == [
        "6,nan,1,0.5,1,1,1,42,,,,,",
        f"6,{H6:.17g},1,0.5,inf,1,1,42,,,,,",
        "",
    ]


def test_empty_cell_lists():
    assert cells_to_json([]) == "[]\n"
    assert cells_to_csv([]) == ",".join(CSV_HEADER) + "\r\n"


def test_serialization_is_byte_stable(cells31):
    # identical inputs produce identical bytes; downstream diffs rely on it
    assert cells_to_csv(cells31) == cells_to_csv(table_31(GridSpec.default_31()))
    assert cells_to_json(cells31) == cells_to_json(table_31(GridSpec.default_31()))


# --- audit of the embedded printed tables -----------------------------------


@pytest.fixture(scope="module")
def a31():
    return audit_table_31()


@pytest.fixture(scope="module")
def a51():
    return audit_table_51()


def test_audit_31_frozen_counts(a31):
    s = summarize_audit(a31)
    assert (s.total, s.passed, s.artifacts, s.disagreements, s.large) == (432, 358, 74, 0, 28)
    assert s.unambiguous == 358
    assert s.pass_rate == 100.0


def test_audit_31_artifacts_confined_to_misprinted_weights(a31):
    # the rounded weights shown in the source headers are wrong in exactly
    # four columns; every artifact cell falls in one of them
    breakdown = Counter((a.p, a.m) for a in a31 if a.status == ARTIFACT)
    assert dict(breakdown) == {(-2.0, 6): 2, (1.0, 12): 27, (2.0, 10): 18, (2.0, 12): 27}


def test_audit_31_spot_cells(a31):
    def find(p, q, d1, d2, m):
        hits = [
            a for a in a31
            if (a.p, a.q, a.delta1, a.delta2, a.m) == (p, q, d1, d2, m)
        ]
        assert len(hits) == 1
        return hits[0]

    a = find(-2.0, 0.25, 0.1, 0.2, 6)
    assert a.printed_pre == 35.33 and a.status == PASS

    a = find(-1.0, 0.25, 0.4, 1.6, 6)
    assert a.printed_pre == 110.98 and a.status == PASS
    assert a.computed_pre == pytest.approx(110.9692, abs=1e-4)

    # the headline extreme cell only reproduces under the misprinted weight
    a = find(-2.0, 0.25, 3.8, 4.2, 6)
    assert a.printed_pre == 2528.52 and a.status == ARTIFACT
    assert a.computed_pre == pytest.approx(2482.1513, abs=1e-3)

    a = find(1.0, 0.25, 3.8, 4.2, 12)
    assert a.printed_pre == 119.12 and a.status == ARTIFACT
    assert a.computed_pre == pytest.approx(124.3673, abs=1e-3)


def test_audit_51_frozen_counts(a51):
    s = summarize_audit(a51)
    assert (s.total, s.passed, s.artifacts, s.disagreements, s.large) == (336, 218, 12, 106, 70)
    assert s.pass_rate == pytest.approx(100.0 * 218 / 324, abs=0.05)


def test_audit_ranges_frozen_counts():
    counts = Counter(r.status for r in audit_ranges_31())
    assert counts == {PASS: 111, ARTIFACT: 14, UNVERIFIABLE: 15, INCONSISTENT: 4}
    assert counts[DISAGREE] == 0


def test_range_audit_inverse_exponent_rows():
    # the p = -1 ranges print as (0, 2/q) everywhere and all reproduce
    for r in audit_ranges_31():
        if r.p == -1.0 and r.printed is not None:
            assert r.status == PASS, r


def test_mmse_footer_values():
    for m, printed in ref.MMSE_ARB_PRINTED.items():
        h = dict(tables.DEFAULT_DESIGNS)[m]
        assert round(risk.arb_mmse(h), 4) == printed


def test_format_diff_report(a31):
    report = format_diff_report(a31, audit_ranges_31())
    assert "summary: 358/358 unambiguous cells within tolerance (100.0%)" in report
    assert "74 cells reproduce only under the printed rounded weight" in report
    assert "range summary: 111 pass, 14 printed-weight-artifact, 15 unverifiable," in report
    # one line per flagged cell plus the two summary lines
    flagged31 = sum(a.status != PASS for a in a31)
    flagged_rng = sum(r.status != PASS for r in audit_ranges_31())
    assert len(report.splitlines()) == flagged31 + flagged_rng + 2


def test_diff_report_without_ranges(a51):
    report = format_diff_report(a51)
    assert "range summary" not in report
    assert "106 source disagreements; 70 flagged cells off by more than 5%" in report


def test_table_31_rejects_a_weight_that_rounds_to_one():
    # w(1e-17) is admissible but rounds to 1, leaving no dominance range
    spec = tables.GridSpec(tables.DEFAULT_DESIGNS[:1], (1e-17,), (0.5,), ((1.0, 1.0),))
    with pytest.raises(InadmissibleParameterError, match="rounds to 1"):
        tables.table_31(spec)


def test_audit_records_recompute_the_stock_cells(a31, a51, cells31, cells51):
    # each audit record holds exactly the values its stock table prints, in order
    for audits, cells in ((a31, cells31), (a51, cells51)):
        got = [(a.m, a.p, a.q, a.delta1, a.delta2, a.computed_pre, a.computed_arb)
               for a in audits]
        assert got == [(c.m, c.p, c.q, c.delta1, c.delta2, c.pre, c.arb) for c in cells]


def test_analytic_layer_does_not_import_numpy(tmp_path):
    # the analytic layer, and every CLI subcommand but mc, must stay usable,
    # and cheap to start, without numpy; mc still brings it in
    data = tmp_path / "times.dat"
    data.write_text("0.5\n1.0\n1.5\n2.0\n2.5\n3.0\n")
    shape = ["--h", repr(H6), "--p", "1", "--q", "0.5"]
    guess = ["--beta1", "0.8", "--beta2", "1.2", "--p", "-1", "--q", "0.5"]
    analytic = [
        ["risk", *shape, "--delta", "1.2"],
        ["risk", *shape, "--delta1", "0.8", "--delta2", "1.4", "--modified"],
        ["dominance", *shape],
        ["table", "31"],
        ["table", "31", "--diff"],
        ["table", "51"],
        ["table", "51", "--diff"],
        ["estimate", "--t", "8.8519", "--h", repr(H6), *guess],
        ["estimate", "--data", str(data), "--n", "20", *guess],
    ]
    verify = ["mc", "verify", *shape, "--delta", "1.2", "--reps", "1000"]
    code = (
        "import contextlib, io, sys\n"
        "import weibull_shrink.model, weibull_shrink.specfun, weibull_shrink.estimators\n"
        "import weibull_shrink.risk, weibull_shrink.reference_data, weibull_shrink.tables\n"
        "from weibull_shrink.cli import main\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        f"for argv in {analytic!r}:\n"
        "    run(argv)\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)\n"
        f"run({verify!r})\n"
        "assert 'numpy' in sys.modules\n"
    )
    src = Path(tables.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _run_fresh(code: str) -> None:
    """Run `code` in a fresh interpreter, after a `main` that runs one argv
    quietly and a `loaded` that lists which of some modules are imported."""
    prelude = (
        "import contextlib, io, sys\n"
        "import weibull_shrink.cli\n"
        "from weibull_shrink.cli import main\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "def loaded(names):\n"
        "    return [m for m in names if m in sys.modules]\n"
    )
    src = Path(tables.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", prelude + code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_refused_mc_runs_skip_numpy():
    # every mc subcommand checks its simulation flags, --reps, then --n/--m,
    # then --seed, in the plan it builds before it imports montecarlo, and
    # `mc verify` checks h, q, the departures and p before them; so a
    # refused input never loads numpy, and it ends in one stderr line
    point = ["--h", repr(H6), "--p", "1", "--q", "0.5", "--delta", "1"]
    refused = [
        (2, ["mc", "verify", "--h", "3", *point[2:]]),
        (2, ["mc", "verify", *point[:4], "--q", "1.5", "--delta", "1"]),
        (2, ["mc", "verify", *point[:6], "--delta", "-1"]),
        (3, ["mc", "verify", "--h", repr(H6), "--p", "-3", *point[4:]]),
        (2, ["mc", "verify", *point, "--reps", "999"]),
        (2, ["mc", "verify", *point, "--reps", str(10**12)]),
        (2, ["mc", "verify", *point, "--m", "30"]),
        (2, ["mc", "verify", *point, "--n", str(10**400)]),
        (2, ["mc", "verify", *point, "--seed", "-1"]),
    ]
    for leaf in ("estimate-k", "estimate-h"):
        design = ["mc", leaf, "--n", "20", "--m", "6"]
        refused += [
            (2, ["mc", leaf, "--n", "20", "--m", "1"]),
            (2, ["mc", leaf, "--n", "5", "--m", "6"]),
            (2, ["mc", leaf, "--n", str(10**400), "--m", "6"]),
            (2, [*design, "--reps", "1"]),
            (2, [*design, "--reps", str(10**12)]),
            (2, [*design, "--seed", "-1"]),
        ]
    _run_fresh(
        f"for code, argv in {refused!r}:\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        assert main(argv) == code, argv\n"
        "    assert err.getvalue().count('\\n') == 1, (argv, err.getvalue())\n"
        "    assert err.getvalue().endswith('\\n'), (argv, err.getvalue())\n"
        "assert not loaded(['numpy', 'weibull_shrink.montecarlo']), "
        "sorted(m for m in sys.modules if 'numpy' in m)\n"
    )


TABLE_LAYER = ["weibull_shrink.tables", "weibull_shrink.reference_data"]
ANALYTIC_LAYER = ["weibull_shrink.risk", "weibull_shrink.estimators", "weibull_shrink.specfun"]


def test_only_table_imports_the_table_layer(tmp_path):
    # the table layer and the transcribed printed tables load only for
    # `table`; a text document loads neither csv nor json; no closed-form or
    # table run loads dataclasses or inspect, and no closed-form run decimal
    data = tmp_path / "times.dat"
    data.write_text("0.5\n1.0\n1.5\n2.0\n2.5\n3.0\n")
    shape = ["--h", repr(H6), "--p", "1", "--q", "0.5"]
    guess = ["--beta1", "0.8", "--beta2", "1.2", "--p", "-1", "--q", "0.5"]
    closed_form = [
        ["risk", *shape, "--delta", "1.2"],
        ["risk", *shape, "--delta1", "0.8", "--delta2", "1.4", "--modified"],
        ["dominance", *shape],
        ["estimate", "--t", "8.8519", "--h", repr(H6), *guess],
        ["estimate", "--data", str(data), "--n", "20", *guess],
    ]
    tabulating = [
        ["table", "31"],
        ["table", "31", "--diff", "--format", "csv"],
        ["table", "51", "--diff", "--format", "json"],
    ]
    absent_in_text = [*TABLE_LAYER, "csv", "json", "dataclasses", "inspect", "decimal"]
    _run_fresh(
        f"for argv in {closed_form!r}:\n"
        "    run(argv)\n"
        f"assert not loaded({absent_in_text!r}), loaded({absent_in_text!r})\n"
        f"for argv in {tabulating!r}:\n"
        "    run(argv)\n"
        f"assert loaded({TABLE_LAYER!r}) == {TABLE_LAYER!r}\n"
        "assert not loaded(['dataclasses', 'inspect'])\n"
    )


def test_cli_import_and_calibration_skip_the_analytic_layer():
    # importing the CLI loads only model and writers; `mc estimate-k/-h`
    # simulate the design constants without risk, estimators or specfun, and
    # no `mc` run loads the table layer
    calibrating = [
        ["mc", "estimate-k", "--n", "20", "--m", "6", "--reps", "1000"],
        ["mc", "estimate-h", "--n", "20", "--m", "6", "--reps", "1000"],
    ]
    verify = ["mc", "verify", "--h", repr(H6), "--p", "1", "--q", "0.5",
              "--delta", "1.2", "--reps", "1000"]
    package = "sorted(m for m in sys.modules if m.startswith('weibull_shrink'))"
    _run_fresh(
        f"assert {package} == ['weibull_shrink', 'weibull_shrink.cli', "
        f"'weibull_shrink.model', 'weibull_shrink.writers'], {package}\n"
        "assert not loaded(['dataclasses', 'inspect'])\n"
        f"for argv in {calibrating!r}:\n"
        "    run(argv)\n"
        f"assert not loaded({ANALYTIC_LAYER + TABLE_LAYER!r}), {package}\n"
        f"run({verify!r})\n"
        f"assert loaded({ANALYTIC_LAYER!r}) == {ANALYTIC_LAYER!r}\n"
        f"assert not loaded({TABLE_LAYER!r}), {package}\n"
    )
