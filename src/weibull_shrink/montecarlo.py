"""Simulation support: pivotal-law sampling, empirical risks, design constants.

Determinism contract: every routine that consumes a seed produces bit-identical
results for the same arguments on the same numpy version. Work is split into
fixed-size chunks, each driven by its own child of SeedSequence(seed), and
each chunk is walked in rows of at most `_BLOCK` = 8192 replicates whose sums
are added to running totals in row order, so results do not depend on how
the work is scheduled. The contract holds within a release, not across
releases: a change that moves any seeded bit bumps the version, and
CHANGES.md says which values moved.

Every simulation takes a `model.SimulationPlan`, the one description and the
one check of its replicates, design and seed; nothing here checks them again.

One walk, `_pieces`, drives every simulation. It takes the next child of
SeedSequence(seed) only when it reaches that chunk; spawning one child at a
time gives the same children as spawning them all at once, so the draws are
those of the eager spawn, without a list of one seed object per chunk. A
chunk's generator fills its rows in stream order, so the draws do not depend
on the row length either. `empirical_risks` seeds a chunk every `_CHUNK` =
65,536 replicates; the design-constant simulations seed every row.

Each call allocates its working memory once, in rows of `_BLOCK` floats, and
every step writes into it; nothing is kept per replicate or per chunk.
`empirical_risks` holds two rows, the draws and one work row, allocated
before its first draw. The design-constant simulations hold four at any m
and replicate count: the kernel's draw row, running sum and sums row,
allocated before its first draw, and the moment fold's work row, allocated
with the first chunk. An estimator takes an `out` array to write its
estimates into; `out` must not overlap its input `t`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from weibull_shrink.model import (
    Frozen,
    GuessInterval,
    ShrinkageConfig,
    SimulationPlan,
    _require_finite,
    _require_positive,
    _require_replicates,
    _set,
)

_CHUNK = 1 << 16  # replicates per seeded chunk of `empirical_risks`
_BLOCK = 1 << 13  # replicates per row of every simulation


class EmpiricalRisk(Frozen):
    """Moment summary of simulated estimates of the shape.

    `mean` is in the units of the estimate; `bias` and `mse` are scaled by the
    true shape (mean/beta - 1 and E[(est - beta)^2]/beta^2) so they compare
    directly with the analytic risk functions. `se_mean` is the standard error
    of `mean` and `se_mse` that of `mse`.
    """

    __slots__ = ("mean", "bias", "mse", "se_mean", "se_mse", "replicates")

    def _check(self) -> None:
        _set(self, "replicates", _require_replicates(self.replicates))
        for name in ("mean", "bias", "mse", "se_mean", "se_mse"):
            _require_finite(name, getattr(self, name))
        mse, bias, se_mean, se_mse = self.mse, self.bias, self.se_mean, self.se_mse
        if mse < 0.0 or se_mean < 0.0 or se_mse < 0.0:
            raise ValueError("mse and standard errors cannot be negative")
        # second moment dominates squared first moment, up to fp roundoff
        if mse - bias * bias < -1e-9 * (1.0 + mse):
            raise ValueError(
                f"inconsistent moments: mse={mse!r} < bias^2={bias ** 2!r}"
            )


def sample_t(
    h: float, beta: float, rng: np.random.Generator, size: int | None = None, out=None
):
    """Draws of the pivotal statistic: Gamma(h/2) scaled by 2/beta, into
    `out` when it is given."""
    h = _require_positive("h", h)
    beta = _require_positive("beta", beta)
    t = rng.standard_gamma(h / 2.0, size=size, out=out)
    t *= 2.0 / beta
    return t


# ---------------------------------------------------------------------------
# vectorized estimators over arrays of pivotal draws

Estimator = Callable[..., np.ndarray]


def unbiased_estimator(h: float) -> Estimator:
    def estimate(t: np.ndarray, out=None) -> np.ndarray:
        return np.divide(h - 2.0, t, out=out)

    return estimate


def mmse_estimator(h: float) -> Estimator:
    def estimate(t: np.ndarray, out=None) -> np.ndarray:
        return np.divide(h - 4.0, t, out=out)

    return estimate


def shrink_estimator(
    h: float, interval: GuessInterval, cfg: ShrinkageConfig
) -> Estimator:
    # imported here, not at the top, so that `mc estimate-k/-h`, which import
    # this module, do not load the analytic layer; no analytic module imports
    # this one
    from weibull_shrink.estimators import shrink_weight

    w = shrink_weight(cfg.p, h)
    scale = w * (h - 2.0)
    pull = cfg.q * interval.midpoint * (1.0 - w)

    def estimate(t: np.ndarray, out=None) -> np.ndarray:
        out = np.divide(scale, t, out=out)
        out += pull
        return out

    return estimate


def truncated_estimator(
    h: float, interval: GuessInterval, cfg: ShrinkageConfig
) -> Estimator:
    plain = shrink_estimator(h, interval, cfg)
    hi_t = (h - 2.0) / interval.beta1
    lo_t = (h - 2.0) / interval.beta2

    def estimate(t: np.ndarray, out=None) -> np.ndarray:
        t = np.asarray(t)
        out = plain(t, out=np.empty(t.shape) if out is None else out)
        # beta1 last: it takes precedence, as in the scalar estimator
        np.putmask(out, t < lo_t, interval.beta2)
        np.putmask(out, t > hi_t, interval.beta1)
        return out

    return estimate


# ---------------------------------------------------------------------------
# empirical risk of an estimator under the pivotal law


def _pieces(seed: int, total: int, chunk: int):
    """(generator, count) for each row of at most `_BLOCK` of `total`
    replicates, in order. Every `chunk` replicates the generator is seeded by
    the next child of SeedSequence(seed), spawned when the walk reaches it."""
    root = np.random.SeedSequence(seed)
    for start in range(0, total, chunk):
        rng = np.random.default_rng(root.spawn(1)[0])
        stop = min(start + chunk, total)
        for row in range(start, stop, _BLOCK):
            yield rng, min(_BLOCK, stop - row)


def empirical_risk(plan: SimulationPlan, estimator: Estimator, *, h: float) -> EmpiricalRisk:
    """Simulated bias and MSE of `estimator` fed with pivotal draws: the
    one-estimator case of `empirical_risks`."""
    return empirical_risks(plan, [estimator], h=h)[0]


def empirical_risks(plan: SimulationPlan, estimators: list[Estimator], *, h: float) -> list:
    """Simulated bias and MSE of each estimator, all fed the same pivotal draws.

    t is drawn from its exact gamma law with h degrees of freedom at the
    plan's true shape, so this checks the estimator-plus-risk mathematics
    rather than the sampling pipeline. The replicates are seeded in chunks
    of `_CHUNK`, each by its own child of SeedSequence(plan.seed), and drawn
    in rows of at most `_BLOCK` from the chunk's generator. Each row's draws
    are made once and passed to every estimator, whose sums of d, d^2 and
    d^4 over the row are added to its running totals in row order, so every
    result is bit-identical to a separate `empirical_risk` call with the
    same plan. The draws and the work row, which takes each estimate and
    then d, d^2 and d^4 in turn, are the only arrays, `_BLOCK` floats each,
    allocated once; nothing is kept per chunk.
    """
    beta = plan.params.beta
    size = min(_BLOCK, plan.replicates)
    draws = np.empty(size)
    work = np.empty(size)
    # per estimator, the running sums of d, d^2 and d^4
    sums = [[0.0, 0.0, 0.0] for _ in estimators]
    for rng, count in _pieces(plan.seed, plan.replicates, _CHUNK):
        t = sample_t(h, beta, rng, size=count, out=draws[:count])
        d = work[:count]
        for estimator, running in zip(estimators, sums):
            estimator(t, out=d)
            d -= beta
            d /= beta
            # np.add.reduce is np.sum's reduction, without np.sum's wrapper
            running[0] += float(np.add.reduce(d))
            np.multiply(d, d, out=d)
            running[1] += float(np.add.reduce(d))
            np.multiply(d, d, out=d)
            running[2] += float(np.add.reduce(d))
    return [_moments(beta, plan.replicates, *running) for running in sums]


def _moments(beta: float, total: int, s1: float, s2: float, s4: float) -> EmpiricalRisk:
    bias = s1 / total
    mse = s2 / total
    var_d = max(0.0, s2 / total - bias * bias)
    var_d2 = max(0.0, s4 / total - mse * mse)
    return EmpiricalRisk(
        mean=beta * (1.0 + bias),
        bias=bias,
        mse=mse,
        se_mean=beta * math.sqrt(var_d / total),
        se_mse=math.sqrt(var_d2 / total),
        replicates=total,
    )


# ---------------------------------------------------------------------------
# design constants by simulation


def _sev_spacing_sums(plan: SimulationPlan):
    """Yield, chunk by chunk in order, the sums S = sum_{i<m} (v_(i) - v_(m))
    of each of the plan's replicates: its m smallest of n standard SEV draws.

    v = ln E with E standard exponential has the smallest-extreme-value law,
    the distribution of ln x when x is Weibull with alpha = beta = 1. Only the
    m smallest of the n draws enter the sum, so they are drawn directly by
    Renyi's (1953) representation: with Z_1, ..., Z_m iid standard
    exponential, E_(i) = sum_{j<=i} Z_j/(n - j + 1) has the law of the i-th
    smallest of n exponentials, and v_(i) = ln E_(i). That is m draws and m
    logs per replicate, with no sort. S has the standard SEV law whatever
    `plan.params` holds, which is not read, and the plan's seed fixes its
    every bit, under the module's determinism contract.

    A chunk draws Z_1, ..., Z_m one row at a time, replicates along the row,
    which is the order in which an (m, count) block would be filled, and
    keeps only the running E_(i), the running sum of ln E_(i) for i < m and
    the current row. S comes out as sum_{i<m} ln E_(i) - (m - 1) ln E_(m).
    Each yielded array is a view of a buffer that the next chunk overwrites;
    the caller may overwrite it too.
    """
    n, m = plan.n, plan.m
    size = min(_BLOCK, plan.replicates)
    row, running, sums = np.empty(size), np.empty(size), np.empty(size)
    for rng, count in _pieces(plan.seed, plan.replicates, _BLOCK):
        z, e, s = row[:count], running[:count], sums[:count]
        e.fill(0.0)
        s.fill(0.0)
        for j in range(m):
            # Z_{j+1}/(n - j) is the spacing E_(j+1) - E_(j), with E_(0) = 0
            rng.standard_exponential(out=z)
            z /= float(n - j)
            e += z
            np.log(e, out=z)
            if j < m - 1:
                s += z
        z *= m - 1
        s -= z
        yield s


def _spacing_sum_moments(plan: SimulationPlan):
    """(mean, M2, M4) of the plan's simulated sums S, M_p being the sum over
    replicates of (S - mean)^p.

    Each chunk's S is folded in chunk order into power sums of its deviation
    from the first chunk's mean, which lies within a few standard errors of
    the overall mean, so the central moments taken from them at the end lose
    no digits to cancellation. One chunk-sized work row holds the squared
    deviations; nothing is kept per replicate.
    """
    shift = work = None
    p1 = p2 = p3 = p4 = 0.0
    for d in _sev_spacing_sums(plan):
        if shift is None:
            shift, work = float(np.mean(d)), np.empty(len(d))
        d -= shift
        d2 = np.multiply(d, d, out=work[: len(d)])
        p1 += float(np.sum(d))
        p2 += float(np.sum(d2))
        d *= d2
        p3 += float(np.sum(d))
        d2 *= d2
        p4 += float(np.sum(d2))
    mu = p1 / plan.replicates
    m2 = p2 - mu * p1
    m4 = p4 - 4.0 * mu * p3 + 6.0 * mu * mu * p2 - 3.0 * plan.replicates * mu**4
    return shift + mu, m2, m4


def estimate_bain_constant(plan: SimulationPlan) -> tuple[float, float]:
    """Simulated unbiasing constant k for the plan's (n, m) design, with its
    SE. k belongs to the standard SEV law, the law of ln x for Weibull(1, 1)
    lifetimes x, so `plan.params` is not read."""
    mean, m2, _ = _spacing_sum_moments(plan)
    reps, n = plan.replicates, plan.n
    return -mean / n, math.sqrt(m2 / (reps - 1)) / (n * math.sqrt(reps))


def estimate_degrees_of_freedom(plan: SimulationPlan) -> tuple[float, float]:
    """Variance-matching surrogate for the pivotal degrees of freedom of the
    plan's (n, m) design. Like k, h belongs to the standard SEV law (ln of
    Weibull(1, 1) lifetimes), so `plan.params` is not read.

    Matches 2/h to the simulated variance of the normalized scale estimate,
    the value an exact chi-square pivot would give. It is a surrogate: the
    estimate's law is only approximately chi-square shaped, so treat the
    result as calibration, not truth. Returns (h, SE by the delta method).
    """
    mean, m2, m4 = _spacing_sum_moments(plan)
    replicates = plan.replicates
    # the variance and fourth moment of c = S/mean(S) - 1, the normalized
    # scale estimates centred on their mean of 1
    v = m2 / (mean * mean * (replicates - 1))
    fourth = m4 / (mean**4 * replicates)
    se_v = math.sqrt(max(0.0, fourth - v * v) / replicates)
    return 2.0 / v, 2.0 * se_v / (v * v)
