"""Simulation support: pivotal-law sampling, empirical risks, design constants.

Determinism contract: every routine that consumes a seed produces bit-identical
results for the same arguments on the same numpy version. Work is split into
fixed-size chunks, each driven by its own child of SeedSequence(seed), and the
per-chunk partial sums are reduced in chunk order, so results do not depend on
how the chunks are scheduled. The contract holds within a release, not across
releases: a change that moves any seeded bit bumps the version, and CHANGES.md
says which values moved.

Every simulation takes a `model.SimulationPlan`, the one description and the
one check of its replicates, design and seed; nothing here checks them again.

Chunk seeds are spawned lazily: a loop takes the next child of
SeedSequence(seed) only when it reaches that chunk. Spawning one child at a
time gives the same children as spawning them all at once, so the draws are
those of the eager spawn, without a list of one seed object per chunk.

Each call allocates its working memory once, and every step writes into it,
in rows of `_BLOCK` = 8192 floats. `empirical_risks` holds two, the draws
and one work row, allocated before its first draw: its chunks of `_CHUNK`
replicates keep their seeds, and each is drawn and summed in pieces of at
most `_BLOCK` that follow numpy's own pairwise-summation split of the chunk,
so its sums keep every bit of a whole-chunk pass. The design-constant
simulations hold four rows at any m and replicate count, their chunks being
`_BLOCK` replicates: the kernel's draw row, running sum and sums row,
allocated before its first draw, and the moment fold's work row, allocated
with the first chunk. Nothing is kept per replicate. An estimator takes an
`out` array to write its estimates into; `out` must not overlap its input
`t`.
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
# replicates per row: a piece of an `empirical_risks` chunk, a whole chunk of
# `_sev_spacing_sums`
_BLOCK = 1 << 13


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
    # import here to keep the analytic modules free of numpy
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


def _chunks(seed: int, total: int, size: int):
    """(start, stop, generator) for each chunk of at most `size` of `total`
    replicates, in order; a chunk's generator is seeded by the next child of
    SeedSequence(seed), spawned when the loop reaches it."""
    root = np.random.SeedSequence(seed)
    for start in range(0, total, size):
        yield start, min(start + size, total), np.random.default_rng(root.spawn(1)[0])


def empirical_risk(plan: SimulationPlan, estimator: Estimator, *, h: float) -> EmpiricalRisk:
    """Simulated bias and MSE of `estimator` fed with pivotal draws: the
    one-estimator case of `empirical_risks`."""
    return empirical_risks(plan, [estimator], h=h)[0]


def empirical_risks(plan: SimulationPlan, estimators: list[Estimator], *, h: float) -> list:
    """Simulated bias and MSE of each estimator, all fed the same pivotal draws.

    t is drawn from its exact gamma law with h degrees of freedom at the
    plan's true shape, so this checks the estimator-plus-risk mathematics
    rather than the sampling pipeline. Each chunk's draws are made once and
    passed to every estimator, and each estimator's moment sums are reduced
    in chunk order, so every result is bit-identical to a separate
    `empirical_risk` call with the same plan.

    A chunk is walked in pieces of at most `_BLOCK` replicates, split as
    numpy's pairwise summation splits an array: halve the range, round the
    left half down to a multiple of 8, and recurse until a piece fits. Each
    piece is drawn in order from the chunk's generator, and the estimators'
    d, d^2 and d^4 sums over the pieces are added back up the same tree.
    The generator fills its draws in stream order, and `np.sum` over a whole
    chunk is exactly that tree of piece sums, so every bit is that of one
    pass over the chunk. The draws and the work row, which takes each
    estimate and then d, d^2 and d^4 in turn, are the only arrays that grow
    with the replicates, `_BLOCK` floats each, allocated once.
    """
    beta = plan.params.beta
    size = min(_BLOCK, plan.replicates)
    draws = np.empty(size)
    work = np.empty(size)

    def piece_sums(rng, count: int) -> list:
        # the next `count` draws of `rng`: each estimator's sums of d, d^2
        # and d^4, in that order
        if count > _BLOCK:
            left = count // 2
            left -= left % 8
            sums = piece_sums(rng, left)
            return [a + b for a, b in zip(sums, piece_sums(rng, count - left))]
        t = sample_t(h, beta, rng, size=count, out=draws[:count])
        d = work[:count]
        sums = []
        for estimator in estimators:
            estimator(t, out=d)
            d -= beta
            d /= beta
            # np.add.reduce is np.sum's reduction, without np.sum's wrapper
            sums.append(float(np.add.reduce(d)))
            np.multiply(d, d, out=d)
            sums.append(float(np.add.reduce(d)))
            np.multiply(d, d, out=d)
            sums.append(float(np.add.reduce(d)))
        return sums

    # per estimator, the per-chunk sums of d, d^2 and d^4
    chunk_sums = [[] for _ in range(3 * len(estimators))]
    for start, stop, rng in _chunks(plan.seed, plan.replicates, _CHUNK):
        for part, value in zip(chunk_sums, piece_sums(rng, stop - start)):
            part.append(value)
    return [_moments(beta, plan.replicates, *chunk_sums[i:i + 3])
            for i in range(0, len(chunk_sums), 3)]


def _moments(beta: float, total: int, sums_d, sums_d2, sums_d4) -> EmpiricalRisk:
    s1 = math.fsum(sums_d)
    s2 = math.fsum(sums_d2)
    s4 = math.fsum(sums_d4)
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
    for start, stop, rng in _chunks(plan.seed, plan.replicates, _BLOCK):
        count = stop - start
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
