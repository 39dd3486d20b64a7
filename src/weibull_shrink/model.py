"""Value types shared across the package, and the one copy of each input rule.

Input is checked once, where it enters the package: a value type's
constructor, the entry of a public function, the table grid
(``tables.GridSpec``), or the CLI's data-file parser. Every rule that more
than one entry point applies lives here, written once with one message:
``_require_finite``, ``_require_positive``, ``_require_p``, ``_require_q``,
``_require_h``, ``_require_interval``, ``_require_m``, ``_require_design``,
``_require_replicates`` and ``_require_seed``. A simulation's replicates,
design and seed are checked together, by ``SimulationPlan``, which every
simulation takes and the CLI builds before numpy loads. Code past an entry point
trusts what it receives; only checks on computed results (a report's
moments, a range's endpoints, a table cell) run again downstream, because
they catch numerical faults rather than bad input.

A value type is a ``Frozen`` subclass: ``__slots__`` names its fields in
positional order, ``_defaults`` gives the defaults of trailing fields, and a
``_check`` method holds the type's rules. The base writes the constructor and
derives the rest (read-only fields, equality, hash, ``repr``, ``to_dict``,
pickling) from the slots, so no module of the package needs ``dataclasses``,
whose import and generated methods would cost every CLI process milliseconds
before it computes anything.
"""

from __future__ import annotations

import math
import sys

_set = object.__setattr__

#: The most replicates one simulation takes.
_MAX_REPLICATES = 10**9


class Frozen:
    """Base of the package's value types: read-only records declared by
    ``__slots__``.

    A value type names its fields in ``__slots__``, in positional order, and
    the defaults of its trailing fields in ``_defaults``. From these the base
    writes the type's ``__init__``, a function with one named parameter per
    field, as ``namedtuple`` does. It stores each field through the slot's
    own descriptor setter, bound once when the class is created (the
    read-only ``__setattr__`` refuses every assignment), and then calls
    ``_check``, but only when the type or an ancestor below ``Frozen``
    defines one; so a type writes no ``__init__`` of its own. A type's
    ``_check`` raises on a broken rule and stores a normalised field again
    with ``_set``. Equality, hashing, ``repr``, ``to_dict`` and pickling
    follow the slot order, with the semantics and text of a frozen
    dataclass: equal when of the same class with equal field tuples, and
    ``repr`` as ``Name(field=value, ...)``. Copies and unpickled values go
    through ``__init__`` again.
    """

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        body = [f"    _set_{name}(self, {name})" for name in names]
        if cls._check is not Frozen._check:
            body.append("    self._check()")
        source = "\n".join([f"def __init__(self, {', '.join(names)}):"] + (body or ["    pass"]))
        # the source holds only slot names, which Python has checked to be
        # identifiers; getattr finds a slot's descriptor on the class or a parent
        namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
        exec(source, namespace)
        init = namespace["__init__"]
        init.__defaults__ = cls._defaults
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init

    def _check(self) -> None:
        """The type's rules; a type without rules keeps this one."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def to_dict(self) -> dict:
        """The fields by name, in slot order."""
        return {name: getattr(self, name) for name in self.__slots__}


class InadmissibleParameterError(ValueError):
    """A shrinkage exponent p violates an admissibility bound for the given h."""


class GridValidationError(ValueError):
    """Invalid table grid (``tables.GridSpec``); the message is one line
    that lists every offending entry, separated by semicolons."""


#: Degrees of freedom h of the pivotal statistic t for n = 20, keyed by (n, m):
#: the source's constants, read by the tables and `mc estimate-h`. They come
#: from published simulations of the censored-sample scale estimator and are
#: kept as printed. `estimators.design_constants` gives the exact h of any
#: design; these four differ from it by 0.0083 at most.
BUILTIN_H: dict[tuple[int, int], float] = {
    (20, 6): 10.8519,
    (20, 8): 15.6740,
    (20, 10): 20.8442,
    (20, 12): 26.4026,
}


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


def _require_p(p: float) -> float:
    """A shrinkage exponent: finite, then nonzero (p = 0 degenerates the weight)."""
    p = _require_finite("p", p)
    if p == 0.0:
        raise InadmissibleParameterError(f"p must be nonzero, got {p!r}")
    return p


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
        raise ValueError(f"need a finite h > {minimum:g}, got {h!r}")
    return h


def _require_interval(lo_name: str, lo: float, hi_name: str, hi: float) -> tuple[float, float]:
    """An interval (lo, hi) with both ends finite and positive and lo <= hi."""
    lo = _require_positive(lo_name, lo)
    hi = _require_positive(hi_name, hi)
    if lo > hi:
        raise ValueError(f"{lo_name} must not exceed {hi_name}, got ({lo!r}, {hi!r})")
    return lo, hi


def _require_m(m: int) -> int:
    if int(m) != m or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")
    return int(m)


def _require_design(n: int, m: int) -> tuple[int, int]:
    """A censoring design: integers m >= 2 failures out of n >= m units, n
    no larger than the largest float, in which the design's constants are
    computed."""
    _require_m(m)
    if n > sys.float_info.max:
        raise ValueError(f"n must not exceed {sys.float_info.max!r}, got n={n!r}, m={m!r}")
    if int(n) != n or n < m:
        raise ValueError(f"n must be an integer >= m, got n={n!r}, m={m!r}")
    return int(n), int(m)


def _require_replicates(replicates: int) -> int:
    """A replicate count from 2 to `_MAX_REPLICATES`. A run at the bound takes
    about a minute, so a larger count is refused as a likely typo."""
    if int(replicates) != replicates or not 2 <= replicates <= _MAX_REPLICATES:
        raise ValueError(
            f"replicates must be an integer from 2 to {_MAX_REPLICATES}, got {replicates!r}"
        )
    return int(replicates)


def _require_seed(seed: int) -> int:
    if int(seed) != seed or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


class WeibullParams(Frozen):
    """Scale alpha and shape beta of a two-parameter Weibull law."""

    __slots__ = ("alpha", "beta")

    def _check(self) -> None:
        _require_positive("alpha", self.alpha)
        _require_positive("beta", self.beta)


class SimulationPlan(Frozen):
    """Replication count, seed, and the sampling design to simulate.

    The rules apply in the order of the CLI's flags: replicates, then the
    design (n, m), then the seed.
    """

    __slots__ = ("replicates", "seed", "params", "n", "m")

    def _check(self) -> None:
        _set(self, "replicates", _require_replicates(self.replicates))
        n, m = _require_design(self.n, self.m)
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "seed", _require_seed(self.seed))


class CensoredSample(Frozen):
    """The m smallest order statistics out of n independent lifetimes.

    m = len(observations), and (n, m) must be a design (integers 2 <= m <= n);
    the observations must be positive and nondecreasing.
    """

    __slots__ = ("n", "observations")

    def _check(self) -> None:
        obs = tuple(float(x) for x in self.observations)
        n, _ = _require_design(self.n, len(obs))
        _set(self, "n", n)
        _set(self, "observations", obs)
        for i, x in enumerate(obs):
            _require_positive(f"observation {i + 1}", x)
            if i and x < obs[i - 1]:
                raise ValueError(
                    f"observations must be nondecreasing; value {x!r} at position "
                    f"{i + 1} is below its predecessor"
                )

    @property
    def m(self) -> int:
        return len(self.observations)


class PivotalContext(Frozen):
    """Degrees of freedom h and observed pivot t, all that an estimator reads.

    h must exceed 4: the pivot's second inverse moment (and with it every MSE
    in the risk module) is finite only then.
    """

    __slots__ = ("h", "t")

    def _check(self) -> None:
        _require_h(self.h, 4.0)
        _require_positive("t", self.t)


class GuessInterval(Frozen):
    """Prior guess interval (beta1, beta2) for the shape parameter, beta1 <= beta2."""

    __slots__ = ("beta1", "beta2")

    def _check(self) -> None:
        _require_interval("beta1", self.beta1, "beta2", self.beta2)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.beta1 + self.beta2)


class ShrinkageConfig(Frozen):
    """Shrinkage exponent p (nonzero) and pull weight q in (0, 1]."""

    __slots__ = ("p", "q")

    def _check(self) -> None:
        _require_q(self.q)
        _require_p(self.p)


#: Identifiers for the estimators a RiskReport can describe.
ESTIMATOR_IDS = ("UNBIASED", "MMSE", "SHRINK_PQ", "SHRINK_PQ_MODIFIED")


class RiskReport(Frozen):
    """Scale-free risk summary of one estimator.

    bias_over_beta: signed bias divided by the true shape.
    arb:            absolute relative bias.
    rmse:           relative mean squared error, E(est - beta)^2 / beta^2.
    pre_vs_mmse:    percent relative efficiency against the minimum-MSE
                    multiple of the pivot (100 = same MSE); +inf only
                    when rmse * sys.float_info.max <= 100. At h > 4 the
                    MMSE risk 2/(h - 2) is below 1, so only these MSEs,
                    0 among them, can carry the quotient past the float range.
    """

    __slots__ = ("estimator_id", "bias_over_beta", "arb", "rmse", "pre_vs_mmse")

    def _check(self) -> None:
        estimator_id, bias_over_beta, arb, rmse, pre_vs_mmse = self._values()
        if estimator_id not in ESTIMATOR_IDS:
            raise ValueError(
                f"estimator_id must be one of {ESTIMATOR_IDS}, got {estimator_id!r}"
            )
        bias = _require_finite("bias_over_beta", bias_over_beta)
        arb_f = _require_finite("arb", arb)
        # arb is not free: it must agree with |bias_over_beta| up to rounding.
        if abs(arb_f - abs(bias)) > 1e-12 * (1.0 + abs(bias)):
            raise ValueError(
                f"arb must equal |bias_over_beta|, got arb={arb!r} "
                f"with bias_over_beta={bias_over_beta!r}"
            )
        if _require_finite("rmse", rmse) < 0.0:
            raise ValueError(f"rmse must be >= 0, got {rmse!r}")
        if pre_vs_mmse == math.inf and rmse * sys.float_info.max <= 100.0:
            return
        if _require_finite("pre_vs_mmse", pre_vs_mmse) < 0.0:
            raise ValueError(f"pre_vs_mmse must be >= 0, got {pre_vs_mmse!r}")
