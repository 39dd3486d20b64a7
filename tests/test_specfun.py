"""Checks for the gamma-function primitives.

Reference values were computed with mpmath at 40 decimal digits and frozen
here; the incomplete-gamma routine is additionally checked against adaptive
quadrature of its defining integral.
"""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from weibull_shrink.specfun import (
    OMEGA_MAX,
    ln_gamma,
    reg_lower_inc_gamma,
    reg_lower_inc_gamma_down,
)

mpmath.mp.dps = 40

# (eta, omega, P) computed with mpmath.gammainc(omega, 0, eta, regularized=True)
P_REFERENCE = [
    (4.42595, 5.42595, 0.37714956053456021),
    (1.0, 1.0, 0.63212055882855768),
    (0.5, 0.5, 0.6826894921370859),
    (30.0, 5.5, 0.9999999907278385),
    (2.5, 19.0, 2.8029196245460842e-11),
    (55.0, 19.5, 0.99999998903111202),
    (0.001, 0.5, 0.035670591729679885),
    (7.3766, 4.42595, 0.90766357723518977),
    (11.0649, 4.42595, 0.99220611404578628),
]


def quad_reference(eta, omega):
    """P(omega, eta) by adaptive quadrature of the defining integral.

    The u^(omega-1) factor is folded into an algebraic weight so the
    integrand stays smooth even when omega < 1.
    """
    norm = math.exp(-ln_gamma(omega))
    val, err = quad(
        lambda u: norm * math.exp(-u),
        0.0,
        eta,
        weight="alg",
        wvar=(omega - 1.0, 0.0),
        limit=200,
    )
    assert err < 1e-6
    return val


@pytest.mark.parametrize("eta,omega,expected", P_REFERENCE)
def test_reg_lower_inc_gamma_frozen(eta, omega, expected):
    got = reg_lower_inc_gamma(eta, omega)
    assert got == pytest.approx(expected, rel=1e-13, abs=1e-16)


def test_reg_lower_inc_gamma_closed_forms():
    # shape 1 is an exponential CDF
    assert reg_lower_inc_gamma(3.0, 1.0) == pytest.approx(1.0 - math.exp(-3.0), rel=1e-14)
    assert reg_lower_inc_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    # shape 1/2 reduces to the error function
    assert reg_lower_inc_gamma(0.5, 0.5) == pytest.approx(math.erf(math.sqrt(0.5)), rel=1e-14)


def test_reg_lower_inc_gamma_at_zero():
    for omega in (0.3, 1.0, 2.5, 19.0):
        assert reg_lower_inc_gamma(0.0, omega) == 0.0


def test_reg_lower_inc_gamma_vs_quadrature_spot():
    for eta, omega in [(0.7, 0.9), (4.42595, 5.42595), (12.0, 8.0), (2.0, 6.0)]:
        assert reg_lower_inc_gamma(eta, omega) == pytest.approx(
            quad_reference(eta, omega), abs=1e-10
        )


@given(
    eta=st.floats(min_value=1e-3, max_value=60.0),
    omega=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_reg_lower_inc_gamma_vs_quadrature_fuzz(eta, omega):
    assert reg_lower_inc_gamma(eta, omega) == pytest.approx(
        quad_reference(eta, omega), abs=1e-10
    )


def test_reg_lower_inc_gamma_recurrence():
    # P(omega+1, eta) = P(omega, eta) - eta^omega e^-eta / Gamma(omega+1),
    # checked on 100 seeded random points.
    import random

    rng = random.Random(20260823)
    for _ in range(100):
        omega = rng.uniform(0.5, 15.0)
        eta = rng.uniform(1e-3, 50.0)
        lhs = reg_lower_inc_gamma(eta, omega + 1.0)
        rhs = reg_lower_inc_gamma(eta, omega) - math.exp(
            omega * math.log(eta) - eta - ln_gamma(omega + 1.0)
        )
        assert abs(lhs - rhs) <= 1e-10, (eta, omega, lhs, rhs)


def test_reg_lower_inc_gamma_far_tail():
    # 40 standard deviations above the mean of a Gamma(omega, 1) variate.
    for omega in (0.5, 1.0, 4.42595, 13.2013, 20.0):
        eta = omega + 40.0 * math.sqrt(omega)
        assert reg_lower_inc_gamma(eta, omega) > 1.0 - 1e-8


@given(
    omega=st.floats(min_value=0.5, max_value=20.0),
    eta1=st.floats(min_value=0.0, max_value=50.0),
    eta2=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=100, deadline=None)
def test_reg_lower_inc_gamma_monotone_in_eta(omega, eta1, eta2):
    lo, hi = sorted((eta1, eta2))
    assert reg_lower_inc_gamma(lo, omega) <= reg_lower_inc_gamma(hi, omega) + 1e-15


@given(
    eta=st.floats(min_value=1e-3, max_value=50.0),
    omega=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=100, deadline=None)
def test_reg_lower_inc_gamma_in_unit_interval(eta, omega):
    p = reg_lower_inc_gamma(eta, omega)
    assert 0.0 <= p <= 1.0


def test_reg_inc_gamma_args_validation():
    with pytest.raises(ValueError):
        reg_lower_inc_gamma(-0.1, 1.0)
    with pytest.raises(ValueError):
        reg_lower_inc_gamma(1.0, 0.0)
    with pytest.raises(ValueError):
        reg_lower_inc_gamma(float("nan"), 1.0)
    with pytest.raises(ValueError):
        reg_lower_inc_gamma(1.0, float("inf"))
    with pytest.raises(ValueError):
        reg_lower_inc_gamma(-1.0, 2.0)
    with pytest.raises(ValueError):
        reg_lower_inc_gamma(1.0, -2.0)


def test_reg_lower_inc_gamma_omega_bound():
    # accepted, and accurate to the documented 5e-12, up to OMEGA_MAX
    for eta in (OMEGA_MAX - 300.0, OMEGA_MAX, OMEGA_MAX + 150.0):
        want = mpmath.gammainc(OMEGA_MAX, 0, eta, regularized=True)
        assert abs(reg_lower_inc_gamma(eta, OMEGA_MAX) - float(want)) <= 5e-12
    for omega in (math.nextafter(OMEGA_MAX, math.inf), 5e15, 5e299):
        with pytest.raises(ValueError, match="omega must be <="):
            reg_lower_inc_gamma(omega, omega)


def _p_40_digits(eta, omega):
    return mpmath.gammainc(mpmath.mpf(omega), 0, mpmath.mpf(eta), regularized=True)


@pytest.mark.parametrize(
    "eta, omega",
    [
        (4.42595, 5.42595),  # series branch at every shape
        (13.0, 6.0),  # continued fraction at the top, series below
        (7.5, 6.0),
        (0.3, 2.5),
        (990.0, 1000.0),  # omega near 1000, eta within a standard deviation
        (1040.0, 1000.0),
        (1.0001e-200, 2.0001),  # h = 4.0002, delta1 = 1e200: 0, 1e-200, then 0.955
        (1e5, 3.0),  # eta far above omega: 1 at every shape
        (0.0, 4.0),
    ],
)
def test_reg_lower_inc_gamma_down_vs_mpmath(eta, omega):
    # the downward steps add positive terms, so each value keeps the accuracy
    # of P at the top shape (within 5e-13 at omega = 1000, 1e-15 below 10)
    got = reg_lower_inc_gamma_down(eta, omega, 2)
    assert len(got) == 3
    tol = 1e-15 if omega < 10 else 5e-13
    for j, value in enumerate(got):
        want = _p_40_digits(eta, omega - j)
        assert abs(value - float(want)) <= tol, (j, value, want)
        assert 0.0 <= value <= 1.0


def test_reg_lower_inc_gamma_down_keeps_low_shapes_past_an_underflow():
    # at shape 2.0001 the density term underflows, at 0.0001 it is 0.955: the
    # log-form step keeps it, as a direct evaluation does
    top, middle, bottom = reg_lower_inc_gamma_down(1.0001e-200, 2.0001, 2)
    assert top == 0.0
    assert bottom == pytest.approx(float(_p_40_digits(1.0001e-200, 0.0001)), rel=1e-13)
    assert bottom == pytest.approx(reg_lower_inc_gamma(1.0001e-200, 0.0001), rel=1e-13)


def test_reg_lower_inc_gamma_down_needs_a_positive_bottom_shape():
    assert reg_lower_inc_gamma_down(1.0, 2.5, 2)[2] > 0.0
    for omega, steps in ((2.0, 2), (1.5, 2), (0.5, 1)):
        with pytest.raises(ValueError, match="omega - steps"):
            reg_lower_inc_gamma_down(1.0, omega, steps)


def test_ln_gamma_exact_points():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(2.0) == 0.0
    assert ln_gamma(5.0) == pytest.approx(3.1780538303479456, rel=1e-15)  # ln 24
    assert ln_gamma(0.5) == pytest.approx(0.57236494292470009, rel=1e-15)  # ln sqrt(pi)
    assert ln_gamma(87.65) == pytest.approx(303.12248221082829, rel=1e-14)


@given(x=st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_ln_gamma_recurrence(x):
    # ln Gamma(x+1) = ln Gamma(x) + ln x
    lhs = ln_gamma(x + 1.0)
    rhs = ln_gamma(x) + math.log(x)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


@given(x=st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_ln_gamma_vs_mpmath(x):
    assert ln_gamma(x) == pytest.approx(float(mpmath.loggamma(x)), rel=1e-12, abs=1e-12)


def test_ln_gamma_domain():
    for bad in (0.0, -1.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ln_gamma(bad)
