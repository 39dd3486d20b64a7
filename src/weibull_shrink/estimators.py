"""Point estimators of the Weibull shape parameter.

All estimators run through the pivotal statistic t: conditionally on the
censoring design, t behaves like (1/beta) times a chi-square variable with h
degrees of freedom, so (h - 2)/t is unbiased for beta and (h - 4)/t minimizes
MSE among multiples of 1/t. The shrinkage family pulls the unbiased estimate
toward a guessed interval midpoint with a data-independent weight w(p).

On data, t = h * b_hat, where `bain_scale_estimate` gives b_hat from the
failure times and Bain's unbiasing constant k. k is a plain number with one
source, `bain_constant(m, n)`, exact for any design.
"""

from __future__ import annotations

import math

from weibull_shrink.model import (
    CensoredSample,
    GuessInterval,
    InadmissibleParameterError,
    PivotalContext,
    ShrinkageConfig,
    _require_design,
    _require_h,
    _require_p,
    _require_positive,
)


class DegenerateSampleError(ValueError):
    """All recorded failure times coincide, so the scale estimate is zero."""


def _bain_coefficients(m: int, n: int) -> dict:
    """Integers c_r with k = sum_r c_r ln(r) / r for the (m, n) design.

    Lieblein's sum gives E[v_(i)] = -gamma - n C(n-1, i-1) sum_{j<i} (-1)^j
    C(i-1, j) ln(r) / r with r = n - i + j + 1. In
    k = ((m-1) E[v_(m)] - sum_{i<m} E[v_(i)]) / n Euler's gamma cancels, and
    the alternating binomial sums over i < m collapse, so for s = n - r in
    0..m-1: c_r = (-1)^(m-s) C(n-1, s) [C(r-2, m-2-s) + (m-1) C(r-1, m-1-s)].
    """
    coefficients = {}
    for s in range(m):
        r = n - s
        below = math.comb(r - 2, m - 2 - s) if s <= m - 2 else 0
        last = (m - 1) * math.comb(r - 1, m - 1 - s)
        coefficients[r] = (-1) ** (m - s) * math.comb(n - 1, s) * (below + last)
    return coefficients


def bain_constant(m: int, n: int) -> float:
    """Exact unbiasing constant k of the censored-sample scale estimator.

    k equals -(1/n) E[sum_{i<m} (v_i - v_m)] where v_1 <= ... <= v_m are the m
    smallest of n standard smallest-extreme-value order statistics.

    The terms of the finite sum cancel roughly 4^n-fold, which no float sum
    survives, so it runs in decimal at the digits of the largest coefficient
    plus 25: m logarithms at that precision, which sets the cost.
    """
    # imported here: only `estimate --data` needs decimal, and every CLI
    # process would pay its import otherwise
    from decimal import Decimal, localcontext

    n, m = _require_design(n, m)
    coefficients = _bain_coefficients(m, n)
    with localcontext() as ctx:
        ctx.prec = len(str(max(abs(c) for c in coefficients.values()))) + 25
        total = sum(Decimal(c) * Decimal(r).ln() / r for r, c in coefficients.items())
    return float(total)


def bain_scale_estimate(sample: CensoredSample, k: float) -> float:
    """Unbiased estimate of the log-Weibull scale b = 1/beta.

    Computes -sum_{i<m} (ln x_i - ln x_m) / (n * k) from the m smallest failure
    times, with k > 0 the unbiasing constant of the sample's design (see
    `bain_constant`). The sample has checked its design (2 <= m <= n).
    """
    m = sample.m
    k = _require_positive("k", k)
    y = [math.log(x) for x in sample.observations]
    total = sum(y[i] - y[m - 1] for i in range(m - 1))
    estimate = -total / (sample.n * k)
    if estimate == 0.0:
        raise DegenerateSampleError(
            "all recorded failure times are equal; the scale estimate is zero "
            "and no shape estimate exists"
        )
    return estimate


# Coefficients B_2k / (2k (2k - 1)), k = 1..10, of the Stirling series
# ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + sum_k c_k / z^(2k - 1).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400)
_STIRLING_MIN_Z = 7.0  # shrink_weight lifts both gamma arguments this far (see its docstring)


def _stirling_tail(z: float) -> float:
    """sum_k c_k / z^(2k - 1): ln Gamma(z) less its leading terms. The first
    omitted term, B_22 / (462 z^21), is 2.4e-17 for z >= 7."""
    inv = 1.0 / z
    inv2 = inv * inv
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * inv2 + c
    return total * inv


def shrink_weight(p: float, h: float) -> float:
    """Shrinkage weight w(p) = ((h-2)/2)^p * Gamma(h/2+p) / Gamma(h/2+2p).

    A non-finite p is bad input (ValueError). Admissible p are nonzero, keep
    both gamma arguments positive (effectively p > -h/4), and give
    0 < w <= 1. Note the weight exceeds 1 on a small band of negative p near
    zero, which is rejected here like any other inadmissible p.

    One route serves every h; a difference of two log-gamma values of size
    (h/2) ln(h/2) would lose the digits of ln w = O(1/h). With x = h/2,
    Gamma(a) = Gamma(a + k) / (a (a+1) ... (a+k-1)) (Abramowitz & Stegun
    6.1.15) lifts both gamma arguments by the least integer k >= 0 that puts
    them at or above 7. With z = x + k, the Stirling series (A&S 6.1.40)
    gives ln w = p ln((x-1)/z) + (z+p-1/2) log1p(p/z) - (z+2p-1/2) log1p(2p/z)
    + p + (difference of its tails) + ln prod_{j<k} (x+2p+j)/(x+p+j), terms of
    the size of p; at k = 0, p log1p(-1/x) holds 1 - w to a few units. At
    z >= 7 the first omitted tail term, 2.4e-17, is below half a unit in the
    last place of ln Gamma(z) (6.1e-16 at z = 6). Against 50-digit mpmath, w
    is within 3.4e-15 relative for p in [-2.4, 2.9] and h in [2.05, 1e15];
    a large |p| still cancels: 6e-14 at p = 1e3, h = 1e6; 2e-10 at 1e6, 1e12.
    """
    h = _require_h(h, 2.0)
    p = _require_p(p)
    x = h / 2.0
    a, b = x + p, x + 2.0 * p  # the two gamma arguments
    if a <= 0.0 or b <= 0.0:
        raise InadmissibleParameterError(
            f"p={p} violates the gamma-argument bound p > {-h / 4.0:.6g} for h={h}"
        )
    ratio = 1.0  # prod_{j<k} (b + j)/(a + j)
    if min(a, b) >= _STIRLING_MIN_Z:
        z, lead = x, math.log1p(-1.0 / x)
    else:  # 0 < min(a, b) < 7, so 1 <= k <= 7
        k = math.ceil(_STIRLING_MIN_Z - min(a, b))
        z = x + k
        lead = math.log((x - 1.0) / z)
        for j in range(k):
            ratio *= (b + j) / (a + j)
    log_w = (
        p * lead
        + (z + p - 0.5) * math.log1p(p / z)
        - (z + 2.0 * p - 0.5) * math.log1p(2.0 * p / z)
        + p
        + _stirling_tail(z + p)
        - _stirling_tail(z + 2.0 * p)
        + math.log(ratio)
    )
    if not math.isfinite(log_w):
        # a term overflows only when |p| is near the float range
        raise OverflowError(f"the shrinkage weight w(p={p}) overflows at h={h}")
    w = math.exp(log_w)
    if w > 1.0 + 4.0 * 2.220446049250313e-16:
        raise InadmissibleParameterError(
            f"p={p} gives weight w={w:.6g} > 1 (inadmissible for h={h})"
        )
    return min(w, 1.0)


def beta_unbiased(ctx: PivotalContext) -> float:
    """Unbiased shape estimate (h - 2)/t."""
    return (ctx.h - 2.0) / ctx.t


def beta_mmse(ctx: PivotalContext) -> float:
    """Minimum-MSE shape estimate (h - 4)/t."""
    return (ctx.h - 4.0) / ctx.t


def beta_shrink(
    ctx: PivotalContext, interval: GuessInterval, cfg: ShrinkageConfig
) -> float:
    """Shrinkage estimate: convex mix of (h-2)/t and q times the guess midpoint.

    Always positive, and strictly decreasing in t since w(p) > 0.
    """
    w = shrink_weight(cfg.p, ctx.h)
    return w * beta_unbiased(ctx) + cfg.q * interval.midpoint * (1.0 - w)


def beta_shrink_truncated(
    ctx: PivotalContext, interval: GuessInterval, cfg: ShrinkageConfig
) -> float:
    """Shrinkage estimate clamped so large t cannot leave the guess interval.

    When the unbiased estimate (h-2)/t falls below beta1 the estimate is beta1;
    when it rises above beta2 the estimate is beta2; otherwise the plain
    shrinkage estimate applies. Boundary ties resolve to the middle branch.
    """
    h, t = ctx.h, ctx.t
    if t > (h - 2.0) / interval.beta1:
        return interval.beta1
    if t < (h - 2.0) / interval.beta2:
        return interval.beta2
    return beta_shrink(ctx, interval, cfg)


def estimate_departure(ctx: PivotalContext, interval: GuessInterval) -> float:
    """Unbiased estimate of the midpoint departure (beta1 + beta2) / (2 beta).

    Equals t * (beta1 + beta2) / (2 h); its expectation is the true departure
    because E[t] = h / beta.
    """
    return ctx.t * (interval.beta1 + interval.beta2) / (2.0 * ctx.h)


def suggest_q(ctx: PivotalContext, interval: GuessInterval) -> float:
    """Data-driven pull weight: the reciprocal of the estimated departure.

    The product suggest_q * estimate_departure is identically 1. The value may
    exceed 1 when the data suggest the guess interval sits below the true
    shape; callers deciding to reuse it as a configuration constant must then
    cap it.
    """
    return 2.0 * ctx.h / (ctx.t * (interval.beta1 + interval.beta2))
