"""Point estimators of the Weibull shape parameter.

All estimators run through the pivotal statistic t: conditionally on the
censoring design, t behaves like (1/beta) times a chi-square variable with h
degrees of freedom, so (h - 2)/t is unbiased for beta and (h - 4)/t minimizes
MSE among multiples of 1/t. The shrinkage family pulls the unbiased estimate
toward a guessed interval midpoint with a data-independent weight w(p).

On data, t = h * b_hat, where `bain_scale_estimate` gives b_hat from the
failure times and Bain's unbiasing constant k. k and h are plain numbers of
the censoring design, both from one quadrature that is exact for any design:
`design_constants(m, n)`.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _tanh_sinh_nodes() -> tuple:
    """Tanh-sinh rule on (0, 1): tuples (s, w, w ln s, w ln^2 s).

    s = 1/(1 + e^(-pi sinh t)) at t = k/16 with |t| <= 3.5, and w = ds/dt
    times the step. ln s is taken as -log1p(e^(-pi sinh t)), so it keeps its
    digits where s underflows toward 0. For a density proportional to
    e^(-x s), the rule gives E[ln s] and Var(ln s) within 1.1e-14 relative
    of 30-digit mpmath from x = 1e-9 to 400.
    """
    nodes = []
    for k in range(-56, 57):
        t = k / 16
        e = math.exp(-math.pi * math.sinh(t))
        log_s = -math.log1p(e)
        w = math.pi * math.cosh(t) * e / (1.0 + e) ** 2 / 16
        nodes.append((1.0 / (1.0 + e), w, w * log_s, w * log_s * log_s))
    return tuple(nodes)


def _log_spacing_moments(x: float) -> tuple[float, float]:
    """Mean and variance of ln s for s on (0, 1) with density
    x e^(-x s) / (1 - e^(-x)), normalised by the rule's own weights."""
    a0 = a1 = a2 = 0.0
    for s, w, w_log, w_log2 in _tanh_sinh_nodes():
        e = math.exp(-x * s)
        a0 += w * e
        a1 += w_log * e
        a2 += w_log2 * e
    mean = a1 / a0
    return mean, a2 / a0 - mean * mean


def _spacing_moments(m: int, n: int) -> tuple[float, float]:
    """E[S] and Var(S) for S = sum_{i<m} (v_(i) - v_(m)), the log-spacings of
    the m smallest of n standard smallest-extreme-value values.

    With v = ln E, E standard exponential, S = sum_{i<m} ln(E_(i)/X) where
    X = E_(m). Given X, the other m - 1 values are iid exponentials cut off
    at X, so each ln(E_(i)/X) is ln s with s on (0, 1) of density
    X e^(-X s)/(1 - e^(-X)), whose mean a(X) and variance v(X) the tanh-sinh
    rule gives. Then E[S] = (m-1) E[a] and
    Var(S) = (m-1) E[v] + (m-1)^2 Var(a).

    The outer expectations over X, whose density is proportional to
    (1 - e^(-x))^(m-1) e^(-(n-m+1) x), are trapezoid sums in z = ln X,
    centred at ln E[X] and scaled by sd[X]/E[X] (by Renyi's spacings,
    E[X] = sum_{j<m} 1/(n-j) and Var[X] = sum_{j<m} 1/(n-j)^2), each sum
    walked out until the weight falls below 1e-18 of the centre's. The
    log-density in z is concave, so the walk passes the mode first. The
    sums are normalised by their own total, and the step halves until two
    levels give E[S] and h each within 1e-12 relative. a is taken less its
    value at E[X], so that Var(a) does not cancel.
    """
    n, m = _require_design(n, m)
    ratios = [n / (n - j) for j in range(m)]  # each of order 1, where 1/(n - j)^2 may underflow
    total = sum(ratios)
    centre = math.log(total) - math.log(n)
    width = math.sqrt(sum(r * r for r in ratios)) / total
    rest = float(n - m + 1)

    def log_density(z: float) -> float:
        x = math.exp(z)
        return (m - 1) * math.log(-math.expm1(-x)) - rest * x + z

    at_centre = log_density(centre)
    a_ref = _log_spacing_moments(math.exp(centre))[0]
    sums = [0.0, 0.0, 0.0, 0.0]  # weight, weight * (a - a_ref), * its square, weight * v

    def walk(step: float, offset: float) -> None:
        for direction in (1, -1):
            k = offset if direction == 1 else offset - 1.0
            while True:
                z = centre + width * step * k
                w = math.exp(log_density(z) - at_centre)
                if w < 1e-18:
                    break
                a, v = _log_spacing_moments(math.exp(z))
                d = a - a_ref
                sums[0] += w
                sums[1] += w * d
                sums[2] += w * d * d
                sums[3] += w * v
                k += direction

    def moments() -> tuple[float, float]:
        weight, d, d2, v = sums
        mean_d = d / weight
        mean = (m - 1) * (a_ref + mean_d)
        return mean, (m - 1) * v / weight + (m - 1) ** 2 * (d2 / weight - mean_d * mean_d)

    step = 1.0
    walk(step, 0.0)
    mean, var = moments()
    while True:
        walk(step, 0.5)  # the midpoints halve the step
        step /= 2.0
        last_mean, last_h = mean, 2.0 * mean * mean / var
        mean, var = moments()
        if (abs(mean - last_mean) <= 1e-12 * abs(last_mean)
                and abs(2.0 * mean * mean / var - last_h) <= 1e-12 * last_h):
            return mean, var


def design_constants(m: int, n: int) -> tuple[float, float]:
    """Exact (k, h) of the (m, n) design: Bain's unbiasing constant
    k = -E[S]/n and the degrees of freedom h = 2 E[S]^2 / Var(S).

    S is the sum of log-spacings that `bain_scale_estimate` divides by n k,
    so k makes the scale estimate unbiased, and h matches its variance to
    that of a chi-square over its degrees of freedom, as
    `montecarlo.estimate_degrees_of_freedom` simulates it. One quadrature
    (`_spacing_moments`) gives both: k within 1e-15 relative of Lieblein's
    exact sum and h within 1e-13 of 25-digit mpmath at the designs the tests
    pin. h tends to 2(m - 1) from above as n grows; so every m = 2 design
    has h < 4 (2.81 at (2, 2), 2.05 at (20, 2)), while m = 3 stays just
    above 4 (4.16 at (20, 3)).
    """
    mean, var = _spacing_moments(m, n)
    return -mean / n, 2.0 * mean * mean / var


def bain_scale_estimate(sample: CensoredSample, k: float) -> float:
    """Unbiased estimate of the log-Weibull scale b = 1/beta.

    Computes -sum_{i<m} (ln x_i - ln x_m) / (n * k) from the m smallest failure
    times, with k > 0 the unbiasing constant of the sample's design (see
    `design_constants`). The sample has checked its design (2 <= m <= n).
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
    0 <= w <= 1; w is 0 where ln w underflows, as at p = 200 or 1000 for
    h = 10. Note the weight exceeds 1 on a small band of negative p near
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

    Always positive; strictly decreasing in t when w(p) > 0, and the
    constant q times the midpoint when w underflows to 0.
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
