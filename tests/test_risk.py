"""Analytic risk functions: frozen values, identities, dominance geometry.

The truncated-estimator formulas are additionally cross-checked against direct
simulation, which guards the algebra end to end.
"""

import contextlib
import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weibull_shrink import cli, risk, specfun, tables
from weibull_shrink.model import (
    BUILTIN_H,
    GuessInterval,
    InadmissibleParameterError,
    ShrinkageConfig,
    WeibullParams,
)
from weibull_shrink.montecarlo import (
    SimulationPlan,
    empirical_risk,
    shrink_estimator,
    truncated_estimator,
)
from weibull_shrink.risk import DominanceRange

H6, H8, H10, H12 = (BUILTIN_H[20, m] for m in (6, 8, 10, 12))

grid_p = st.sampled_from([-2.0, -1.0, 1.0, 2.0])
grid_h = st.sampled_from([H6, H8, H10, H12])


# --- DominanceRange ---------------------------------------------------------


def _inside(r: DominanceRange, delta: float) -> bool:
    return not r.is_empty and r.lo < delta < r.hi


class TestDominanceRange:
    def test_basic(self):
        r = DominanceRange(1.0, 3.0)
        assert not r.is_empty
        assert _inside(r, 2.0)
        assert not _inside(r, 1.0)  # open interval
        assert not _inside(r, 3.0)
        assert not _inside(r, 0.5)

    def test_empty(self):
        e = DominanceRange.empty()
        assert e.is_empty
        assert not _inside(e, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DominanceRange(3.0, 1.0)
        with pytest.raises(ValueError):
            DominanceRange(1.0, 1.0)
        with pytest.raises(ValueError):
            DominanceRange(-0.5, 1.0)
        with pytest.raises(ValueError):
            DominanceRange(math.nan, 1.0)
        with pytest.raises(ValueError):
            DominanceRange(0.0, math.inf)

    def test_intersect(self):
        a = DominanceRange(0.0, 4.0)
        b = DominanceRange(2.0, 6.0)
        got = a.intersect(b)
        assert (got.lo, got.hi) == (2.0, 4.0)
        assert a.intersect(DominanceRange(5.0, 6.0)).is_empty
        assert a.intersect(DominanceRange.empty()).is_empty
        assert DominanceRange.empty().intersect(a).is_empty
        # touching endpoints share no open interior
        assert a.intersect(DominanceRange(4.0, 5.0)).is_empty


# --- reference risks --------------------------------------------------------


def test_reference_risks_closed_form():
    assert risk.rmse_unbiased(H6) == pytest.approx(2.0 / (H6 - 4.0), rel=1e-15)
    assert risk.rmse_mmse(H6) == pytest.approx(2.0 / (H6 - 2.0), rel=1e-15)
    assert risk.arb_mmse(H6) == risk.rmse_mmse(H6)


@pytest.mark.parametrize("h", [H6, H8, H10, H12])
def test_mmse_beats_unbiased(h):
    assert risk.rmse_mmse(h) < risk.rmse_unbiased(h)


def test_mmse_relative_bias_by_design():
    # the 4dp values quoted in table footers for the four built-in designs
    expected = {H6: 0.2259, H8: 0.1463, H10: 0.1061, H12: 0.0820}
    for h, val in expected.items():
        assert round(risk.arb_mmse(h), 4) == val


def test_reference_risks_domain():
    with pytest.raises(ValueError):
        risk.rmse_unbiased(4.0)
    with pytest.raises(ValueError):
        risk.rmse_mmse(3.0)
    with pytest.raises(ValueError):
        risk.arb_mmse(2.0)


# --- plain shrinkage risks --------------------------------------------------


def test_shrink_risk_frozen_values():
    pre = risk.report_shrink(H6, -2.0, 0.25, 4.0).pre_vs_mmse
    assert pre == pytest.approx(2482.1512645341, rel=1e-12)
    pre = risk.report_shrink(H6, -1.0, 0.25, 1.0).pre_vs_mmse
    assert pre == pytest.approx(110.96917348844778, rel=1e-12)


def test_shrink_bias_structure():
    # bias vanishes exactly when q * delta = 1
    assert risk.bias_shrink(H6, 1.0, 0.25, 4.0) == 0.0
    assert risk.bias_shrink(H8, -2.0, 0.5, 2.0) == 0.0
    # sign follows q * delta - 1
    assert risk.bias_shrink(H6, 1.0, 0.25, 5.0) > 0.0
    assert risk.bias_shrink(H6, 1.0, 0.25, 3.0) < 0.0


@given(p=grid_p, h=grid_h, q=st.floats(min_value=0.05, max_value=1.0),
       delta=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_pre_is_mse_ratio(p, h, q, delta):
    lhs = risk.report_shrink(h, p, q, delta).pre_vs_mmse
    rhs = 100.0 * risk.rmse_mmse(h) / risk.rmse_shrink(h, p, q, delta)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(p=grid_p, h=grid_h, q=st.floats(min_value=0.05, max_value=1.0),
       delta=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_arb_is_abs_bias(p, h, q, delta):
    assert risk.report_shrink(h, p, q, delta).arb == abs(risk.bias_shrink(h, p, q, delta))


@given(h=grid_h, q=st.sampled_from([0.25, 0.5, 0.75]),
       d=st.floats(min_value=1e-3, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_rmse_symmetric_about_inverse_q(h, q, d):
    center = 1.0 / q
    for p in (-2.0, -1.0, 1.0, 2.0):
        left = risk.rmse_shrink(h, p, q, center - d) if center - d > 0 else None
        right = risk.rmse_shrink(h, p, q, center + d)
        if left is not None:
            assert left == pytest.approx(right, rel=1e-12)


def test_inverse_exponent_recovers_mmse_risk():
    # p = -1 gives w = (h-4)/(h-2); at |q*delta - 1| = 1 the shrinkage MSE
    # collapses to the MMSE risk exactly, so the efficiency is 100.
    for h in (H6, H8, H10, H12):
        for q in (0.25, 0.5, 0.75):
            pre = risk.report_shrink(h, -1.0, q, 2.0 / q).pre_vs_mmse
            assert pre == pytest.approx(100.0, rel=1e-12)
            assert risk.rmse_shrink(h, -1.0, q, 2.0 / q) == pytest.approx(
                risk.rmse_mmse(h), rel=1e-12
            )


def test_rmse_minimum_at_center():
    # at delta = 1/q the bias term vanishes, leaving 2 w^2 / (h - 4)
    from weibull_shrink.estimators import shrink_weight

    for p in (-2.0, -1.0, 1.0, 2.0):
        w = shrink_weight(p, H6)
        assert risk.rmse_shrink(H6, p, 0.25, 4.0) == pytest.approx(
            2.0 * w * w / (H6 - 4.0), rel=1e-13
        )


# --- dominance ranges -------------------------------------------------------

# frozen endpoints for q = 0.25 at the m = 6 design
RANGES_Q25_H6 = {
    -2.0: ((1.7378955412029824, 6.262104458797017), (2.902413242610704, 5.097586757389296)),
    1.0: ((0.1990154255777834, 7.800984574422216), (1.0962392254769924, 6.903760774523008)),
    2.0: ((1.4133025187136887, 6.586697481286311), (2.6843471738689484, 5.315652826131052)),
}


@pytest.mark.parametrize("p", sorted(RANGES_Q25_H6))
def test_dominance_ranges_frozen(p):
    (mse_lo, mse_hi), (arb_lo, arb_hi) = RANGES_Q25_H6[p]
    ranges = risk.dominance_ranges(H6, p, 0.25)
    assert sorted(ranges) == ["arb", "best", "mse"]
    r, a, b = ranges["mse"], ranges["arb"], ranges["best"]
    assert (r.lo, r.hi) == (pytest.approx(mse_lo, rel=1e-12), pytest.approx(mse_hi, rel=1e-12))
    assert (a.lo, a.hi) == (pytest.approx(arb_lo, rel=1e-12), pytest.approx(arb_hi, rel=1e-12))
    # the best range is the intersection of the other two; here the ARB
    # range is the narrower one, so it is also the joint range
    assert b == r.intersect(a)
    assert (b.lo, b.hi) == (pytest.approx(arb_lo, rel=1e-12), pytest.approx(arb_hi, rel=1e-12))


def test_dominance_ranges_input_checks():
    # the MSE range needs h > 4
    with pytest.raises(ValueError, match="h > 4"):
        risk.dominance_ranges(4.0, 1.0, 0.25)
    for q in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="q must"):
            risk.dominance_ranges(H6, 1.0, q)
    with pytest.raises(InadmissibleParameterError, match="rounds to 1"):
        risk.dominance_ranges(H6, 1e-17, 0.25)


def test_dominance_range_inverse_exponent():
    # p = -1 makes both half-widths exactly 1/q: ranges are (0, 2/q)
    for q in (0.25, 0.5, 0.75):
        ranges = risk.dominance_ranges(H6, -1.0, q)
        r, a = ranges["mse"], ranges["arb"]
        assert r.lo == 0.0
        assert r.hi == pytest.approx(2.0 / q, rel=1e-12)
        assert a.lo == 0.0
        assert a.hi == pytest.approx(2.0 / q, rel=1e-12)


@given(p=grid_p, h=grid_h, q=st.sampled_from([0.25, 0.5, 0.75]),
       u=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=300, deadline=None)
def test_mse_range_is_where_shrinkage_wins(p, h, q, u):
    r = risk.dominance_ranges(h, p, q)["mse"]
    if r.is_empty:
        return
    inside = r.lo + u * (r.hi - r.lo)
    if inside > 0.0:
        assert risk.rmse_shrink(h, p, q, inside) < risk.rmse_mmse(h) + 1e-15
    outside = r.hi * (1.0 + u)
    assert risk.rmse_shrink(h, p, q, outside) > risk.rmse_mmse(h) - 1e-15


@given(p=grid_p, h=grid_h, q=st.sampled_from([0.25, 0.5, 0.75]),
       u=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=300, deadline=None)
def test_arb_range_is_where_bias_wins(p, h, q, u):
    a = risk.dominance_ranges(h, p, q)["arb"]
    inside = a.lo + u * (a.hi - a.lo)
    if inside > 0.0:
        assert risk.report_shrink(h, p, q, inside).arb < risk.arb_mmse(h) + 1e-15
    outside = a.hi * (1.0 + u)
    assert risk.report_shrink(h, p, q, outside).arb > risk.arb_mmse(h) - 1e-15


def test_mse_range_empty_near_zero_exponent():
    # w(0.05) sits so close to 1 that the variance saving cannot pay for the
    # squared bias anywhere: the MSE range is empty, the ARB range is not.
    ranges = risk.dominance_ranges(H6, 0.05, 0.5)
    assert ranges["mse"].is_empty
    assert not ranges["arb"].is_empty
    assert ranges["best"].is_empty


def test_dominance_rejects_inadmissible_p():
    with pytest.raises(InadmissibleParameterError):
        risk.dominance_ranges(H6, 0.0, 0.5)
    with pytest.raises(InadmissibleParameterError):
        # the w > 1 band of small negative p
        risk.dominance_ranges(H6, -0.1, 0.5)


def test_departure_overflow_names_the_input():
    # a departure, or 1/q, that carries a risk or a range end past the float
    # range is refused by name; the kernels give inf or NaN rather than raise
    with pytest.raises(risk.DepartureOverflowError, match=r"delta=1e\+300"):
        risk.report_shrink(H6, 1.0, 0.5, 1e300)
    with pytest.raises(risk.DepartureOverflowError, match=r"\(1e-300, 1e\+300\)"):
        risk.report_modified(20.0, 1.0, 0.5, 1e-300, 1e300)
    with pytest.raises(risk.DepartureOverflowError, match="q=1e-320"):
        risk.dominance_ranges(10.0, 1.0, 1e-320)


# --- truncated estimator risks ----------------------------------------------

MODIFIED_FROZEN = [
    # h, p, q, delta1, delta2, bias, mse
    (H6, -1.0, 0.25, 0.8, 1.2, -0.09920618601100317, 0.041122780155689265),
    (H6, 2.0, 0.75, 1.0, 1.5, 0.06892999336496142, 0.03244817628968863),
    (H8, -2.0, 0.5, 0.4, 0.6, -0.4258469710999758, 0.18686782140123936),
    (H12, 1.0, 0.5, 1.2, 1.8, 0.23028882987855082, 0.06392806260269712),
]


@pytest.mark.parametrize("h,p,q,d1,d2,bias,mse", MODIFIED_FROZEN)
def test_modified_risk_frozen(h, p, q, d1, d2, bias, mse):
    assert risk.bias_modified(h, p, q, d1, d2) == pytest.approx(bias, rel=1e-12)
    assert risk.mse_modified(h, p, q, d1, d2) == pytest.approx(mse, rel=1e-12)
    assert risk.report_modified(h, p, q, d1, d2).pre_vs_mmse == pytest.approx(
        100.0 * risk.rmse_mmse(h) / mse, rel=1e-12
    )


def test_modified_risk_degenerate_interval():
    # with delta1 = delta2 = delta the estimate is always the clamp value,
    # so bias = delta - 1 and mse = (delta - 1)^2 exactly
    for delta in (0.5, 1.0, 2.5):
        b = risk.bias_modified(H6, -1.0, 0.5, delta, delta)
        m = risk.mse_modified(H6, -1.0, 0.5, delta, delta)
        assert b == pytest.approx(delta - 1.0, abs=1e-12)
        assert m == pytest.approx((delta - 1.0) ** 2, abs=1e-12)


@given(p=grid_p, h=grid_h, q=st.sampled_from([0.25, 0.5, 0.75]),
       scale=st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=100, deadline=None)
def test_modified_risk_wide_interval_limit(p, h, q, scale):
    # an effectively untruncated interval reproduces the plain risks
    d1, d2 = 1e-6 * scale, 1e6 * scale
    delta = 0.5 * (d1 + d2)
    q_eff = q / delta  # keep q * delta on the same scale as the plain grid
    assert risk.bias_modified(h, p, q_eff, d1, d2) == pytest.approx(
        risk.bias_shrink(h, p, q_eff, delta), abs=1e-9
    )
    assert risk.mse_modified(h, p, q_eff, d1, d2) == pytest.approx(
        risk.rmse_shrink(h, p, q_eff, delta), abs=1e-9
    )


def test_modified_risk_argument_checks():
    with pytest.raises(ValueError):
        risk.mse_modified(H6, 1.0, 0.5, 1.2, 0.8)  # reversed interval
    with pytest.raises(ValueError):
        risk.mse_modified(H6, 1.0, 0.0, 0.8, 1.2)
    with pytest.raises(ValueError):
        risk.mse_modified(H6, 1.0, 0.5, -0.2, 1.2)
    with pytest.raises(ValueError):
        risk.mse_modified(4.0, 1.0, 0.5, 0.8, 1.2)
    with pytest.raises(InadmissibleParameterError):
        risk.bias_modified(H6, 0.0, 0.5, 0.8, 1.2)


# --- simulation cross-checks ------------------------------------------------


def _risk_by_simulation(estimator, reps=400_000, seed=1234):
    plan = SimulationPlan(
        replicates=reps, seed=seed, params=WeibullParams(alpha=1.0, beta=1.0), n=20, m=6
    )
    return empirical_risk(plan, estimator, h=H6)


def test_plain_shrink_risk_matches_simulation():
    iv = GuessInterval(0.8, 1.2)
    cfg = ShrinkageConfig(p=-1.0, q=0.25)
    emp = _risk_by_simulation(shrink_estimator(H6, iv, cfg))
    # at beta = 1 the departures are just the interval endpoints
    want_bias = risk.bias_shrink(H6, -1.0, 0.25, 1.0)
    want_mse = risk.rmse_shrink(H6, -1.0, 0.25, 1.0)
    assert abs(emp.bias - want_bias) < 3.0 * emp.se_mean
    assert abs(emp.mse - want_mse) < 3.0 * emp.se_mse


@pytest.mark.parametrize("p,q", [(-1.0, 0.25), (2.0, 0.75)])
def test_modified_risk_matches_simulation(p, q):
    iv = GuessInterval(0.8, 1.2)
    cfg = ShrinkageConfig(p=p, q=q)
    emp = _risk_by_simulation(truncated_estimator(H6, iv, cfg))
    want_bias = risk.bias_modified(H6, p, q, 0.8, 1.2)
    want_mse = risk.mse_modified(H6, p, q, 0.8, 1.2)
    assert abs(emp.bias - want_bias) < 3.0 * emp.se_mean, (emp.bias, want_bias)
    assert abs(emp.mse - want_mse) < 3.0 * emp.se_mse, (emp.mse, want_mse)


# --- report builders --------------------------------------------------------


def test_report_builders():
    r = risk.report_unbiased(H6)
    assert r.estimator_id == "UNBIASED"
    assert r.bias_over_beta == 0.0
    assert r.pre_vs_mmse == pytest.approx(100.0 * (H6 - 4.0) / (H6 - 2.0), rel=1e-14)

    r = risk.report_mmse(H6)
    assert r.estimator_id == "MMSE"
    assert r.pre_vs_mmse == 100.0
    assert r.bias_over_beta == pytest.approx(-2.0 / (H6 - 2.0), rel=1e-14)
    assert r.arb == -r.bias_over_beta

    r = risk.report_shrink(H6, -2.0, 0.25, 4.0)
    assert r.estimator_id == "SHRINK_PQ"
    assert r.pre_vs_mmse == pytest.approx(2482.1512645341, rel=1e-12)

    r = risk.report_modified(H6, -1.0, 0.25, 0.8, 1.2)
    assert r.estimator_id == "SHRINK_PQ_MODIFIED"
    assert r.rmse == pytest.approx(0.041122780155689265, rel=1e-12)


def _efficiency_points():
    """(h, p, q, delta1, delta2) at the stock designs and at seeded random
    points with h log-uniform on [4.5, 1e306], plus points where w(p)
    underflows and the plain estimator's MSE is 0 or subnormal."""
    rng = random.Random(20)
    points = [(h, p, q, 0.8, 1.2) for h in (H6, H8, H10, H12)
              for p in (-2.0, -1.0, 1.0, 2.0) for q in (0.25, 0.5, 1.0)]
    for _ in range(400):
        d1 = rng.uniform(0.1, 3.0)
        points.append((10.0 ** rng.uniform(math.log10(4.5), 306.0), rng.uniform(-2.4, 2.9),
                       rng.uniform(0.05, 1.0), d1, d1 * rng.uniform(1.0, 1.8)))
    points += [(10.0, 1000.0, 0.5, 1.0, 3.0), (10.0, 100.0, 0.5, 1.0, 3.0), (H6, 1.0, 0.5, 1.0, 1.0)]
    return points


def test_every_efficiency_is_100_mmse_risk_over_the_mse():
    # the one rule behind every PRE, for all four reports: 100 rmse_mmse(h)/rmse,
    # +inf exactly where that quotient overflows, and exactly 100 for the MMSE
    # multiple; the truncated estimator's incomplete gammas stop at h = 2e4
    checked = infinite = 0
    for h, p, q, d1, d2 in _efficiency_points():
        try:
            reports = [risk.report_unbiased(h), risk.report_mmse(h),
                       risk.report_shrink(h, p, q, 0.5 * (d1 + d2))]
        except InadmissibleParameterError:
            continue
        if h <= 2e4:
            reports.append(risk.report_modified(h, p, q, d1, d2))
        assert reports[1].pre_vs_mmse == 100.0
        for r in reports:
            want = math.inf if r.rmse == 0.0 else 100.0 * risk.rmse_mmse(h) / r.rmse
            if want == math.inf:
                assert r.pre_vs_mmse == math.inf, (r, h)
                infinite += 1
            else:
                assert r.pre_vs_mmse == pytest.approx(want, rel=1e-15, abs=0.0), (r, h)
            checked += 1
    assert checked > 1000 and infinite == 3


def _direct_terms(h, d1, d2):
    """The six incomplete gammas of the truncated estimator, one call each."""
    etas = ((h / 2.0 - 1.0) / d1, (h / 2.0 - 1.0) / d2)
    return tuple(specfun.reg_lower_inc_gamma(eta, h / 2.0 - j) for j in range(3) for eta in etas)


def test_interval_terms_match_six_direct_calls():
    # Both routes carry the error of P at shape h/2, which grows about in
    # proportion to omega (see specfun): they agree to 1e-13 up to h = 100
    # and within 1e-13 per 100 of h beyond, up to h = 2e4 (omega = OMEGA_MAX).
    import random

    rng = random.Random(20261019)
    branches = set()
    for _ in range(600):
        h = min(4.0 + math.exp(rng.uniform(math.log(1e-4), math.log(2e4))), 2e4)
        if rng.random() < 0.5:  # thresholds near omega, on either side
            d1 = max(0.05, 1.0 + rng.gauss(0.0, 3.0 / math.sqrt(h / 2.0)))
            d2 = d1 * (1.0 + abs(rng.gauss(0.0, 2.0 / math.sqrt(h))))
        else:
            d1 = math.exp(rng.uniform(-1.5, 1.5))
            d2 = d1 * math.exp(rng.uniform(0.0, 1.0))
        branches.update((h / 2.0 - 1.0) / d < h / 2.0 + 1.0 for d in (d1, d2))
        got = risk._interval_terms(h, d1, d2)
        want = _direct_terms(h, d1, d2)
        tol = 1e-13 * max(1.0, h / 100.0)
        assert max(abs(a - b) for a, b in zip(got, want)) <= tol, (h, d1, d2)
    assert branches == {True, False}  # both the series and the continued fraction


@pytest.mark.parametrize(
    "h, d1, d2",
    [
        (4.0002, 1e200, 2e200),  # P(h/2 - 2, eta) near 1 while P(h/2, eta) underflows
        (4.0002, 0.5, 1e200),
        (30.0, 1e-4, 1e-3),  # eta far above omega: every term is 1
        (2000.0, 1e-6, 1e-5),
    ],
)
def test_interval_terms_corners(h, d1, d2):
    got = risk._interval_terms(h, d1, d2)
    assert max(abs(a - b) for a, b in zip(got, _direct_terms(h, d1, d2))) <= 1e-13
    assert all(0.0 <= v <= 1.0 for v in got)


def test_composite_risks_evaluate_once(monkeypatch):
    calls = {"P": 0, "w": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # P is counted where the downward recurrence calls it, once per threshold
    monkeypatch.setattr(specfun, "reg_lower_inc_gamma", counted("P", specfun.reg_lower_inc_gamma))
    monkeypatch.setattr(risk, "shrink_weight", counted("w", risk.shrink_weight))
    for fn, args, want in (
        (risk.report_modified, (H6, -1.0, 0.25, 0.8, 1.2), {"P": 2, "w": 1}),
        (risk.bias_modified, (H6, -1.0, 0.25, 0.8, 1.2), {"P": 2, "w": 1}),
        (risk.report_shrink, (H6, -1.0, 0.25, 4.0), {"P": 0, "w": 1}),
        (risk.dominance_ranges, (H6, -2.0, 0.25), {"P": 0, "w": 1}),
    ):
        calls.update(P=0, w=0)
        fn(*args)
        assert calls == want, fn.__name__
    # one `dominance` run takes w(p) once for all three ranges
    calls.update(P=0, w=0)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["dominance", "--h", str(H6), "--p", "-2", "--q", "0.25"]) == 0
    assert calls == {"P": 0, "w": 1}
    # w(p) once per (p, h) of the 4 x 4 stock grid, the dominance ranges
    # included, and two P values per (h, delta1, delta2): 4 designs x 7
    # intervals, once per table build and once per audit, whatever the number
    # of p and q values. The ranges are evaluated once per (p, q, h) block,
    # 4 x 3 x 4 = 48, and the range audit evaluates a block again at the
    # printed weight only when some printed range misses: 10 of the 48.
    monkeypatch.setattr(tables, "shrink_weight", counted("table_w", tables.shrink_weight))
    monkeypatch.setattr(tables, "_ranges_given_w", counted("ranges", tables._ranges_given_w))
    # building each GridSpec below checks its p through tables.shrink_weight
    calls.update(table_w=0, ranges=0)
    for fn, args, want_p, want_ranges in (
        (tables.table_51, (tables.GridSpec.default_51(),), 2 * 4 * 7, 0),
        (tables.audit_table_51, (), 2 * 4 * 7, 0),
        (tables.audit_table_31, (), 0, 0),
        (tables.table_31, (tables.GridSpec.default_31(),), 0, 48),
        (tables.audit_ranges_31, (), 0, 48 + 10),
    ):
        calls.update(P=0, w=0, table_w=0, ranges=0)
        fn(*args)
        got = (calls["P"], calls["table_w"], calls["w"], calls["ranges"])
        assert got == (want_p, 16, 0, want_ranges), fn.__name__


# each scalar risk, the report it reads and its arguments after h
SCALARS = [
    (risk.rmse_unbiased, risk.report_unbiased, ()),
    (risk.rmse_mmse, risk.report_mmse, ()),
    (risk.arb_mmse, risk.report_mmse, ()),
    (risk.bias_shrink, risk.report_shrink, (1.0, 0.5, 1.0)),
    (risk.rmse_shrink, risk.report_shrink, (1.0, 0.5, 1.0)),
    (risk.bias_modified, risk.report_modified, (1.0, 0.5, 0.8, 1.2)),
    (risk.mse_modified, risk.report_modified, (1.0, 0.5, 0.8, 1.2)),
]


@pytest.mark.parametrize("scalar, report, args", SCALARS, ids=[s.__name__ for s, _, _ in SCALARS])
def test_scalar_risks_refuse_h_below_4_like_their_report(scalar, report, args):
    # each scalar reads one report field, so it needs h > 4 like every entry
    for fn in (scalar, report):
        with pytest.raises(ValueError, match=r"^need a finite h > 4, got 3\.5$"):
            fn(3.5, *args)


def test_scalar_risks_raise_where_their_report_overflows():
    # the bias is finite here, but the report refuses the overflowed MSE
    for fn in (risk.bias_shrink, risk.rmse_shrink):
        with pytest.raises(risk.DepartureOverflowError, match=r"overflow at delta=1e\+300"):
            fn(10.0, 1.0, 0.5, 1e300)
    for fn in (risk.bias_modified, risk.mse_modified):
        with pytest.raises(risk.DepartureOverflowError, match=r"overflow on \(1e\+300, 2e\+300\)"):
            fn(10.0, 1.0, 0.5, 1e300, 2e300)
