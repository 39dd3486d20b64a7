"""Simulation support: pivotal-law sampling, empirical risks, design constants.

Determinism contract: every routine that consumes a seed produces bit-identical
results for the same arguments on the same numpy version. Work is split into
fixed-size chunks, each driven by its own child of SeedSequence(seed), and the
per-chunk partial sums are reduced in chunk order, so results do not depend on
how the chunks are scheduled.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from weibull_shrink.model import (
    Frozen,
    GuessInterval,
    ShrinkageConfig,
    _require_design,
    _require_finite,
    _require_positive,
    _require_replicates,
    _require_seed,
    _set,
)

_CHUNK = 1 << 16
_ROW_CHUNK = 1 << 13


class SimulationPlan(Frozen):
    """Replication count, seed, and the sampling design to simulate."""

    __slots__ = ("replicates", "seed", "params", "n", "m")

    def _check(self) -> None:
        replicates = _require_replicates(self.replicates)
        seed = _require_seed(self.seed)
        n, m = _require_design(self.n, self.m)
        _set(self, "replicates", replicates)
        _set(self, "seed", seed)
        _set(self, "n", n)
        _set(self, "m", m)


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
    h: float, beta: float, rng: np.random.Generator, size: int | None = None
):
    """Draws of the pivotal statistic: Gamma(h/2) scaled by 2/beta."""
    h = _require_positive("h", h)
    beta = _require_positive("beta", beta)
    return rng.standard_gamma(h / 2.0, size=size) * (2.0 / beta)


# ---------------------------------------------------------------------------
# vectorized estimators over arrays of pivotal draws

Estimator = Callable[[np.ndarray], np.ndarray]


def unbiased_estimator(h: float) -> Estimator:
    def estimate(t: np.ndarray) -> np.ndarray:
        return (h - 2.0) / t

    return estimate


def mmse_estimator(h: float) -> Estimator:
    def estimate(t: np.ndarray) -> np.ndarray:
        return (h - 4.0) / t

    return estimate


def shrink_estimator(
    h: float, interval: GuessInterval, cfg: ShrinkageConfig
) -> Estimator:
    # import here to keep the analytic modules free of numpy
    from weibull_shrink.estimators import shrink_weight

    w = shrink_weight(cfg.p, h)
    pull = cfg.q * interval.midpoint * (1.0 - w)

    def estimate(t: np.ndarray) -> np.ndarray:
        return w * (h - 2.0) / t + pull

    return estimate


def truncated_estimator(
    h: float, interval: GuessInterval, cfg: ShrinkageConfig
) -> Estimator:
    plain = shrink_estimator(h, interval, cfg)
    hi_t = (h - 2.0) / interval.beta1
    lo_t = (h - 2.0) / interval.beta2

    def estimate(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t)
        return np.where(t > hi_t, interval.beta1, np.where(t < lo_t, interval.beta2, plain(t)))

    return estimate


# ---------------------------------------------------------------------------
# empirical risk of an estimator under the pivotal law


def _chunk_seeds(seed: int, n_chunks: int) -> list:
    return np.random.SeedSequence(seed).spawn(n_chunks)


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
    """
    beta = plan.params.beta
    total = plan.replicates
    n_chunks = (total + _CHUNK - 1) // _CHUNK
    seeds = _chunk_seeds(plan.seed, n_chunks)
    # per estimator, the per-chunk sums of d, d^2 and d^4
    sums = [([], [], []) for _ in estimators]
    done = 0
    for i in range(n_chunks):
        count = min(_CHUNK, total - done)
        done += count
        rng = np.random.default_rng(seeds[i])
        t = sample_t(h, beta, rng, size=count)
        for estimator, (sums_d, sums_d2, sums_d4) in zip(estimators, sums):
            d = (estimator(t) - beta) / beta
            d2 = d * d
            sums_d.append(float(np.sum(d)))
            sums_d2.append(float(np.sum(d2)))
            sums_d4.append(float(np.sum(d2 * d2)))
    return [_moments(beta, total, *parts) for parts in sums]


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


def _sev_spacing_sums(m: int, n: int, replicates: int, seed: int) -> np.ndarray:
    """Per-replicate sum_{i<m} (v_(i) - v_(m)) for n standard SEV draws.

    v = ln(-ln U) has the smallest-extreme-value law, the distribution of
    ln x when x is Weibull with alpha = beta = 1.
    """
    n, m = _require_design(n, m)
    replicates = _require_replicates(replicates)
    seed = _require_seed(seed)
    n_chunks = (replicates + _ROW_CHUNK - 1) // _ROW_CHUNK
    seeds = _chunk_seeds(seed, n_chunks)
    parts = []
    done = 0
    for i in range(n_chunks):
        rows = min(_ROW_CHUNK, replicates - done)
        done += rows
        rng = np.random.default_rng(seeds[i])
        # v = ln(-ln U) in place: one (rows, n) buffer instead of three
        v = rng.random((rows, n))
        np.log(v, out=v)
        np.negative(v, out=v)
        np.log(v, out=v)
        v.sort(axis=1)
        parts.append(np.sum(v[:, : m - 1] - v[:, m - 1 : m], axis=1))
    return np.concatenate(parts)


def estimate_bain_constant(
    m: int, n: int, replicates: int, seed: int
) -> tuple[float, float]:
    """Simulated unbiasing constant k for the (m, n) design, with its SE."""
    s = _sev_spacing_sums(m, n, replicates, seed)
    k = -float(np.mean(s)) / n
    se = float(np.std(s, ddof=1)) / (n * math.sqrt(len(s)))
    return k, se


def estimate_degrees_of_freedom(
    m: int, n: int, replicates: int, seed: int
) -> tuple[float, float]:
    """Variance-matching surrogate for the pivotal degrees of freedom.

    Matches 2/h to the simulated variance of the normalized scale estimate,
    the value an exact chi-square pivot would give. It is a surrogate: the
    estimate's law is only approximately chi-square shaped, so treat the
    result as calibration, not truth. Returns (h, SE by the delta method).
    """
    s = _sev_spacing_sums(m, n, replicates, seed)
    b = s / np.mean(s)  # normalized scale estimates, sample mean exactly 1
    v = float(np.var(b, ddof=1))
    r = len(b)
    centered = b - np.mean(b)
    fourth = float(np.mean(centered**4))
    se_v = math.sqrt(max(0.0, fourth - v * v) / r)
    return 2.0 / v, 2.0 * se_v / (v * v)

