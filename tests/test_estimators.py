"""Point-estimator behaviour: frozen values, closed forms, and shape properties."""

import math
from collections import defaultdict

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weibull_shrink.estimators import (
    DegenerateSampleError,
    _bain_coefficients,
    bain_constant,
    bain_scale_estimate,
    beta_mmse,
    beta_shrink,
    beta_shrink_truncated,
    beta_unbiased,
    estimate_departure,
    shrink_weight,
    suggest_q,
)
from weibull_shrink.model import (
    CensoredSample,
    GuessInterval,
    InadmissibleParameterError,
    PivotalContext,
    ShrinkageConfig,
)

H6 = 10.8519
H8 = 15.6740
H10 = 20.8442
H12 = 26.4026


def ctx(t, h=H6):
    return PivotalContext(h=h, t=t)


# --- shrinkage weight -------------------------------------------------------

# log-space evaluation of ((h-2)/2)^p Gamma(h/2+p)/Gamma(h/2+2p), frozen
W_FROZEN = [
    (-2.0, H6, 0.176592858433664),
    (-1.0, H6, 0.774059806369254),
    (1.0, H6, 0.688761972937854),
    (2.0, H6, 0.313070472260773),
    (-1.0, H12, 0.918041520165884),
    (1.0, H12, 0.859167822664122),
    (2.0, H12, 0.604479555770642),
]


@pytest.mark.parametrize("p,h,expected", W_FROZEN)
def test_shrink_weight_frozen(p, h, expected):
    assert shrink_weight(p, h) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("h", [H6, H8, H10, H12, 5.5, 47.0])
def test_shrink_weight_closed_forms(h):
    # integer p collapses the gamma ratio to rational functions of h
    assert shrink_weight(1.0, h) == pytest.approx((h - 2) / (h + 2), rel=1e-13)
    assert shrink_weight(2.0, h) == pytest.approx(
        (h - 2) ** 2 / ((h + 4) * (h + 6)), rel=1e-13
    )
    if h > 4:
        assert shrink_weight(-1.0, h) == pytest.approx((h - 4) / (h - 2), rel=1e-13)
    if h > 8:
        assert shrink_weight(-2.0, h) == pytest.approx(
            (h - 6) * (h - 8) / (h - 2) ** 2, rel=1e-13
        )


def _weight_50_digits(p, h):
    with mpmath.workdps(50):
        p, h = mpmath.mpf(p), mpmath.mpf(h)
        return mpmath.exp(
            p * mpmath.log((h - 2) / 2) + mpmath.loggamma(h / 2 + p) - mpmath.loggamma(h / 2 + 2 * p)
        )


# h on a log grid from 2.05 to 1e15, and densely up to 37, where the number
# of shifts k of the gamma arguments changes; p up to the ends of the
# benchmark's draws
WEIGHT_H = sorted({2.05 * (1e15 / 2.05) ** (k / 240) for k in range(241)}
                  | {2.05 + 0.25 * k for k in range(140)})


@pytest.mark.parametrize("p", [-2.4, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 2.9])
def test_shrink_weight_vs_50_digit_mpmath(p):
    # one route for every h: a difference of two log-gamma values of size
    # (h/2) ln(h/2) would lose 1e-9 of w near h = 1e6 and all of 1 - w near
    # 1e9, and measured up to 1.8e-14 even below h = 27
    for h in WEIGHT_H:
        if h / 2 + 2 * p <= 0:  # inadmissible
            continue
        want = _weight_50_digits(p, h)
        rel = float(abs(shrink_weight(p, h) - want) / want)
        assert rel <= 4e-15, (p, h, rel)


def test_shrink_weight_one_minus_w_at_huge_h():
    # w(1) = (h - 2)/(h + 2) exactly, so 1 - w = 4/(h + 2) must not round to
    # 0; w stays within a few units in the last place below 1 (2^-53 each)
    for h in (1e9, 1e12, 1e15):
        assert abs((1.0 - shrink_weight(1.0, h)) - 4.0 / (h + 2.0)) <= 8 * 2.0**-53, h


def test_shrink_weight_rejects_p_zero():
    with pytest.raises(InadmissibleParameterError):
        shrink_weight(0.0, H6)


def test_shrink_weight_rejects_gamma_argument_violation():
    # h/2 + 2p <= 0
    with pytest.raises(InadmissibleParameterError):
        shrink_weight(-H6 / 4.0, H6)
    with pytest.raises(InadmissibleParameterError):
        shrink_weight(-3.0, H6)


def test_shrink_weight_rejects_weight_above_one():
    # small negative p inflates the weight past 1; those p are unusable
    with pytest.raises(InadmissibleParameterError, match="> 1"):
        shrink_weight(-0.1, H6)


def test_shrink_weight_rejects_small_h():
    with pytest.raises(ValueError):
        shrink_weight(1.0, 2.0)
    with pytest.raises(ValueError):
        shrink_weight(1.0, -5.0)


@given(
    p=st.one_of(
        st.floats(min_value=-2.5, max_value=-0.75),
        st.floats(min_value=0.05, max_value=3.0),
    ),
    h=st.floats(min_value=10.5, max_value=30.0),
)
@settings(max_examples=150, deadline=None)
def test_shrink_weight_in_unit_interval(p, h):
    w = shrink_weight(p, h)
    assert 0.0 < w <= 1.0


# --- pivot-based point estimates -------------------------------------------


def test_beta_unbiased_and_mmse():
    c = ctx(t=8.8519)
    assert beta_unbiased(c) == pytest.approx(1.0, rel=1e-15)
    assert beta_mmse(c) == pytest.approx(6.8519 / 8.8519, rel=1e-15)


@given(t=st.floats(min_value=0.01, max_value=1e4), h=st.floats(min_value=4.5, max_value=60.0))
@settings(max_examples=100, deadline=None)
def test_mmse_below_unbiased(t, h):
    c = PivotalContext(h=h, t=t)
    assert beta_mmse(c) < beta_unbiased(c)


def test_beta_shrink_frozen_example():
    c = ctx(t=4.0)
    est = beta_shrink(c, GuessInterval(1.6, 2.4), ShrinkageConfig(p=1.0, q=0.5))
    assert est == pytest.approx(1.835451054124296, rel=1e-13)


def test_beta_shrink_fixed_point():
    # at t = h - 2 the unbiased estimate is 1; with q * midpoint = 1 the
    # shrinkage estimate is exactly 1 regardless of the weight
    c = ctx(t=H6 - 2.0)
    est = beta_shrink(c, GuessInterval(2.0, 2.0), ShrinkageConfig(p=-1.0, q=0.5))
    assert est == pytest.approx(1.0, rel=1e-14)


@given(
    t=st.floats(min_value=0.05, max_value=500.0),
    b1=st.floats(min_value=0.1, max_value=5.0),
    spread=st.floats(min_value=0.0, max_value=5.0),
    p=st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
    q=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_beta_shrink_is_convex_combination(t, b1, spread, p, q):
    c = ctx(t=t)
    iv = GuessInterval(b1, b1 + spread)
    cfg = ShrinkageConfig(p=p, q=q)
    est = beta_shrink(c, iv, cfg)
    anchor = q * iv.midpoint
    lo, hi = sorted((beta_unbiased(c), anchor))
    assert lo - 1e-12 <= est <= hi + 1e-12
    assert est > 0.0


@given(
    t1=st.floats(min_value=0.05, max_value=400.0),
    bump=st.floats(min_value=1e-3, max_value=100.0),
    p=st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
)
@settings(max_examples=100, deadline=None)
def test_beta_shrink_strictly_decreasing_in_t(t1, bump, p):
    iv = GuessInterval(0.8, 1.2)
    cfg = ShrinkageConfig(p=p, q=0.5)
    lo = beta_shrink(ctx(t=t1), iv, cfg)
    hi = beta_shrink(ctx(t=t1 + bump), iv, cfg)
    assert hi < lo


# --- truncation to the guess interval --------------------------------------


def test_truncated_branches():
    iv = GuessInterval(0.8, 1.2)
    cfg = ShrinkageConfig(p=-1.0, q=0.5)
    # (h-2)/beta1 = 11.064875, (h-2)/beta2 = 7.3765833...
    assert beta_shrink_truncated(ctx(t=12.0), iv, cfg) == 0.8
    assert beta_shrink_truncated(ctx(t=7.0), iv, cfg) == 1.2
    mid = beta_shrink_truncated(ctx(t=8.8519), iv, cfg)
    assert mid == pytest.approx(0.887029903184627, rel=1e-13)
    # same value as the plain estimate inside the band
    assert mid == beta_shrink(ctx(t=8.8519), iv, cfg)


def test_truncated_boundary_ties_use_middle_branch():
    iv = GuessInterval(0.8, 1.2)
    cfg = ShrinkageConfig(p=-1.0, q=0.5)
    t_hi = (H6 - 2.0) / iv.beta1
    t_lo = (H6 - 2.0) / iv.beta2
    assert beta_shrink_truncated(ctx(t=t_hi), iv, cfg) == beta_shrink(ctx(t=t_hi), iv, cfg)
    assert beta_shrink_truncated(ctx(t=t_lo), iv, cfg) == beta_shrink(ctx(t=t_lo), iv, cfg)
    # and the middle value genuinely differs from the clamp value here
    assert beta_shrink_truncated(ctx(t=t_hi), iv, cfg) != iv.beta1


@given(
    t=st.floats(min_value=0.05, max_value=400.0),
    b1=st.floats(min_value=0.1, max_value=4.0),
    spread=st.floats(min_value=0.0, max_value=4.0),
    p=st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
    q=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_truncated_stays_relevant(t, b1, spread, p, q):
    c = ctx(t=t)
    iv = GuessInterval(b1, b1 + spread)
    cfg = ShrinkageConfig(p=p, q=q)
    est = beta_shrink_truncated(c, iv, cfg)
    plain = beta_shrink(c, iv, cfg)
    bu = beta_unbiased(c)
    if bu < iv.beta1:
        assert est == iv.beta1
    elif bu > iv.beta2:
        assert est == iv.beta2
    else:
        assert est == plain


# --- departure estimation ---------------------------------------------------


def test_estimate_departure_identity_point():
    # degenerate guess at 2 with t = h/2: t*(2+2)/(2h) = 1 exactly
    c = ctx(t=H6 / 2.0)
    assert estimate_departure(c, GuessInterval(2.0, 2.0)) == pytest.approx(1.0, rel=1e-15)


def test_estimate_departure_frozen_example():
    c = ctx(t=8.8519)
    iv = GuessInterval(3.8, 4.2)
    assert estimate_departure(c, iv) == pytest.approx(3.262801905657074, rel=1e-13)
    assert suggest_q(c, iv) == pytest.approx(0.306485048407686, rel=1e-13)


@given(
    t=st.floats(min_value=1e-3, max_value=1e4),
    h=st.floats(min_value=4.5, max_value=60.0),
    b1=st.floats(min_value=0.05, max_value=10.0),
    spread=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_suggested_q_inverts_departure(t, h, b1, spread):
    c = PivotalContext(h=h, t=t)
    iv = GuessInterval(b1, b1 + spread)
    prod = suggest_q(c, iv) * estimate_departure(c, iv)
    assert abs(prod - 1.0) <= 1e-12


# --- censored-sample scale estimation ---------------------------------------


def test_bain_scale_estimate_small_example():
    # x = (1, 2, 4), complete sample of 3, k = 1:
    # -[(ln1 - ln4) + (ln2 - ln4)] / 3 = ln 8 / 3 = ln 2
    s = CensoredSample(n=3, observations=(1.0, 2.0, 4.0))
    b = bain_scale_estimate(s, 1.0)
    assert b == pytest.approx(math.log(2.0), rel=1e-15)


def test_bain_scale_estimate_scale_equivariance():
    # multiplying failure times by c shifts logs; spacings are unchanged
    s1 = CensoredSample(n=10, observations=(0.5, 1.25, 2.0, 3.0))
    s2 = CensoredSample(n=10, observations=(5.0, 12.5, 20.0, 30.0))
    k = 0.7
    assert bain_scale_estimate(s1, k) == pytest.approx(bain_scale_estimate(s2, k), rel=1e-12)


def test_bain_scale_estimate_needs_two_failures():
    # the sample checks its design, so a one-failure sample never reaches the estimator
    with pytest.raises(ValueError, match="m must be an integer >= 2, got 1"):
        CensoredSample(n=10, observations=(1.5,))


def test_bain_scale_estimate_degenerate_sample():
    s = CensoredSample(n=5, observations=(2.0, 2.0, 2.0))
    with pytest.raises(DegenerateSampleError):
        bain_scale_estimate(s, 1.0)


@given(
    logs=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=8),
    n_extra=st.integers(min_value=0, max_value=12),
    k=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=100, deadline=None)
def test_bain_scale_estimate_positive(logs, n_extra, k):
    obs = tuple(sorted(math.exp(v) for v in logs))
    assume(obs[0] < obs[-1])
    s = CensoredSample(n=len(obs) + n_extra, observations=obs)
    b = bain_scale_estimate(s, k)
    assert b > 0.0


def test_bain_constants_validation():
    s = CensoredSample(n=10, observations=(1.0, 2.0, 3.0))
    for k in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="k must be"):
            bain_scale_estimate(s, k)


# --- exact unbiasing constant -----------------------------------------------


def test_bain_constant_two_by_two_is_ln2():
    # the spacing of two standard SEV draws has mean 2 ln 2, and k = mean / n
    assert abs(bain_constant(2, 2) - math.log(2.0)) <= 1e-15


def test_bain_constant_builtin_designs():
    got = [round(bain_constant(m, 20), 6) for m in (6, 8, 10, 12)]
    assert got == [0.272064, 0.394394, 0.527664, 0.675648]


@pytest.mark.parametrize("m, n", [(2, 2), (2, 5), (3, 3), (6, 20), (20, 20), (7, 31), (40, 90)])
def test_bain_coefficients_match_lieblein_double_sum(m, n):
    # k = sum_{i<m} L_i - (m-1) L_m, L_i = C(n-1, i-1) sum_{j<i} (-1)^j C(i-1, j) ln(r)/r
    want = defaultdict(int)
    for i in range(1, m + 1):
        scale = math.comb(n - 1, i - 1) * (1 if i < m else 1 - m)
        for j in range(i):
            want[n - i + j + 1] += (-1) ** j * scale * math.comb(i - 1, j)
    got = _bain_coefficients(m, n)
    assert {r: c for r, c in got.items() if c} == {r: c for r, c in want.items() if c}


@pytest.mark.parametrize("m, n", [(6, 20), (100, 200), (300, 300)])
def test_bain_constant_sum_is_exact_to_the_last_bit(m, n):
    # the coefficients grow like 4^n, so the sum needs their digits plus a margin;
    # a 40-digit-margin mpmath sum is the reference
    coefficients = _bain_coefficients(m, n)
    digits = len(str(max(abs(c) for c in coefficients.values())))
    with mpmath.workdps(digits + 40):
        want = float(mpmath.fsum(c * mpmath.log(r) / r for r, c in coefficients.items()))
    assert bain_constant(m, n) == want


def test_bain_constant_validation():
    with pytest.raises(ValueError):
        bain_constant(1, 10)
    with pytest.raises(ValueError):
        bain_constant(5, 4)
