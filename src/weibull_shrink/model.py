"""Value types shared across the package, and the one copy of each input rule.

Input is checked once, where it enters the package: a value type's
constructor, the entry of a public function, the table grid
(``tables.GridSpec``), or the CLI's data-file parser. Every rule that more
than one entry point applies lives here (``_require_*``), written once. Code
past an entry point trusts what it receives; only checks on computed results
(a report's moments, a range's endpoints, a table cell) run again downstream,
because they catch numerical faults rather than bad input.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


class InadmissibleParameterError(ValueError):
    """A shrinkage exponent p violates an admissibility bound for the given h."""


class MissingConstantError(LookupError):
    """No built-in degrees-of-freedom value is available for this (n, m)."""


class GridValidationError(ValueError):
    """Invalid table grid (``tables.GridSpec``); the message carries one line
    per offending entry."""


#: Degrees of freedom h of the pivotal statistic t for n = 20, keyed by (n, m).
#: These are external calibration data consumed as-is (they come from published
#: simulations of the censored-sample scale estimator, not from this package).
BUILTIN_H: dict[tuple[int, int], float] = {
    (20, 6): 10.8519,
    (20, 8): 15.6740,
    (20, 10): 20.8442,
    (20, 12): 26.4026,
}


def lookup_h(n: int, m: int) -> float:
    """Return the built-in h for (n, m), raising MissingConstantError if unknown."""
    try:
        return BUILTIN_H[(n, m)]
    except KeyError:
        raise MissingConstantError(
            f"no built-in degrees of freedom for n={n}, m={m}; "
            "supply h explicitly or estimate it by simulation"
        ) from None


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def _require_q(q: float) -> float:
    """A pull weight in (0, 1]; NaN and inf fail the comparison."""
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    return q


def _require_h(h: float, minimum: float) -> float:
    """Degrees of freedom above `minimum`: 2 for a finite mean, 4 for a finite MSE."""
    h = float(h)
    if not math.isfinite(h) or h <= minimum:
        raise ValueError(f"h must be finite and > {minimum:g}, got {h!r}")
    return h


def _require_design(n: int, m: int) -> tuple[int, int]:
    """A censoring design: integers m >= 2 failures out of n >= m units."""
    if int(m) != m or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")
    if int(n) != n or n < m:
        raise ValueError(f"n must be an integer >= m, got n={n!r}, m={m!r}")
    return int(n), int(m)


def _require_replicates(replicates: int) -> int:
    if int(replicates) != replicates or replicates < 2:
        raise ValueError(f"replicates must be an integer >= 2, got {replicates!r}")
    return int(replicates)


def _require_seed(seed: int) -> int:
    if int(seed) != seed or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class WeibullParams:
    """Scale alpha and shape beta of a two-parameter Weibull law."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _require_positive("alpha", self.alpha)
        _require_positive("beta", self.beta)


@dataclass(frozen=True)
class CensoredSample:
    """The m smallest order statistics out of n independent lifetimes.

    ``observations`` must be positive and nondecreasing; m = len(observations).
    """

    n: int
    observations: tuple[float, ...]

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        obs = tuple(float(x) for x in self.observations)
        if len(obs) < 1:
            raise ValueError("observations must be nonempty")
        if len(obs) > self.n:
            raise ValueError(
                f"sample has {len(obs)} observations but n={self.n}"
            )
        prev = 0.0
        for i, x in enumerate(obs):
            _require_positive(f"observation {i + 1}", x)
            if x < prev:
                raise ValueError(
                    f"observations must be nondecreasing; value {x!r} at position "
                    f"{i + 1} is below its predecessor"
                )
            prev = x
        object.__setattr__(self, "observations", obs)

    @property
    def m(self) -> int:
        return len(self.observations)


@dataclass(frozen=True)
class PivotalContext:
    """Censoring design (n, m), degrees of freedom h, and observed pivot t.

    h must exceed 4: the pivot's second inverse moment (and with it every MSE
    in the risk module) is finite only then.
    """

    n: int
    m: int
    h: float
    t: float

    def __post_init__(self) -> None:
        n, m = _require_design(self.n, self.m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        _require_h(self.h, 4.0)
        _require_positive("t", self.t)


@dataclass(frozen=True)
class GuessInterval:
    """Prior guess interval (beta1, beta2) for the shape parameter, beta1 <= beta2."""

    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        _require_positive("beta1", self.beta1)
        _require_positive("beta2", self.beta2)
        if self.beta1 > self.beta2:
            raise ValueError(
                f"beta1 must not exceed beta2, got ({self.beta1!r}, {self.beta2!r})"
            )

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.beta1 + self.beta2)


@dataclass(frozen=True)
class ShrinkageConfig:
    """Shrinkage exponent p (nonzero) and pull weight q in (0, 1]."""

    p: float
    q: float

    def __post_init__(self) -> None:
        _require_finite("p", self.p)
        if self.p == 0.0:
            raise InadmissibleParameterError(
                "p must be nonzero (p = 0 degenerates the weight)"
            )
        _require_q(self.q)


#: Identifiers for the estimators a RiskReport can describe.
ESTIMATOR_IDS = ("UNBIASED", "MMSE", "SHRINK_PQ", "SHRINK_PQ_MODIFIED")


@dataclass(frozen=True)
class RiskReport:
    """Scale-free risk summary of one estimator.

    bias_over_beta: signed bias divided by the true shape.
    arb:            absolute relative bias.
    rmse:           relative mean squared error, E(est - beta)^2 / beta^2.
    pre_vs_mmse:    percent relative efficiency against the minimum-MSE
                    multiple of the pivot (100 = same MSE); +inf only
                    when rmse is 0.
    """

    estimator_id: str
    bias_over_beta: float
    arb: float
    rmse: float
    pre_vs_mmse: float

    def __post_init__(self) -> None:
        if self.estimator_id not in ESTIMATOR_IDS:
            raise ValueError(
                f"estimator_id must be one of {ESTIMATOR_IDS}, got {self.estimator_id!r}"
            )
        bias = _require_finite("bias_over_beta", self.bias_over_beta)
        arb = _require_finite("arb", self.arb)
        # arb is not free: it must agree with |bias_over_beta| up to rounding.
        if abs(arb - abs(bias)) > 1e-12 * (1.0 + abs(bias)):
            raise ValueError(
                f"arb must equal |bias_over_beta|, got arb={self.arb!r} "
                f"with bias_over_beta={self.bias_over_beta!r}"
            )
        if _require_finite("rmse", self.rmse) < 0.0:
            raise ValueError(f"rmse must be >= 0, got {self.rmse!r}")
        if self.pre_vs_mmse == math.inf and self.rmse == 0.0:
            return
        if _require_finite("pre_vs_mmse", self.pre_vs_mmse) < 0.0:
            raise ValueError(f"pre_vs_mmse must be >= 0, got {self.pre_vs_mmse!r}")

    def to_dict(self) -> dict:
        return asdict(self)
