"""Exact risk functions for the shape estimators, scaled by the true shape.

Every quantity here is dimensionless: biases are E[estimate]/beta - 1, MSEs
are E[(estimate - beta)^2]/beta^2, and efficiencies compare against the
minimum-MSE multiple (h - 4)/t at 100 * mse_mmse / mse. The risks of the
shrinkage estimators depend on the unknown shape only through the departure
ratios delta1 = beta1/beta, delta2 = beta2/beta and their mean delta.

Each public function is an entry point: it checks its raw arguments once,
with the rules in `model` and in the order h, q, departures, then the
admissibility of p, and computes w(p) once. The formulas themselves are the
`_given_w` kernels, which take the weight as an argument and trust their
inputs. The CLI and the table builders read every quantity of the paper,
efficiency, ARB and the three dominance ranges, from `report_shrink`,
`report_modified` and `dominance_ranges` or from the kernels directly; those
entries call the kernels rather than other public functions, so nothing is
checked or computed twice. The remaining scalar risks (`arb_mmse`,
`bias_shrink`, `rmse_shrink`, `bias_modified`, `mse_modified`) are kept
because the benchmark's `simulate` workload reads them.

The truncated estimator's risks are split in two. `_interval_terms` evaluates
the incomplete-gamma values P(h/2 - j, (h/2 - 1)/delta_i), j = 0, 1, 2, which
depend only on (h, delta1, delta2) and carry nearly all of the cost: one
incomplete-gamma evaluation per threshold, the lower shapes by recurrence. The
`_given_terms` kernels are the cheap polynomials in q and w that take those
values as an argument. A caller evaluates the terms once per guess interval
and design: `report_modified` shares them between bias and MSE, and the table
builders and the printed-table audit (the latter also under the source's
rounded weights) key them by (h, delta1, delta2) before their cell loops.
"""

from __future__ import annotations

import math

from weibull_shrink.estimators import shrink_weight
from weibull_shrink.model import (
    Frozen,
    InadmissibleParameterError,
    RiskReport,
    _require_h,
    _require_interval,
    _require_positive,
    _require_q,
)
from weibull_shrink.specfun import reg_lower_inc_gamma_down


class DominanceRange(Frozen):
    """Open interval of departure values delta, or the empty range.

    The empty range is represented by a NaN pair; `is_empty` is the only
    sanctioned way to test for it.
    """

    __slots__ = ("lo", "hi")

    def _check(self) -> None:
        lo, hi = self.lo, self.hi
        if math.isnan(lo) and math.isnan(hi):
            return
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"endpoints must be finite or both NaN, got {self!r}")
        if not 0.0 <= lo < hi:
            raise ValueError(f"need 0 <= lo < hi, got {self!r}")

    @classmethod
    def empty(cls) -> "DominanceRange":
        return cls(math.nan, math.nan)

    @property
    def is_empty(self) -> bool:
        return not self.lo < self.hi

    def intersect(self, other: "DominanceRange") -> "DominanceRange":
        if self.is_empty or other.is_empty:
            return DominanceRange.empty()
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo < hi:
            return DominanceRange(lo, hi)
        return DominanceRange.empty()


def admissible_p(p: float, h: float) -> bool:
    """True when a finite p yields a usable shrinkage weight for this h."""
    try:
        shrink_weight(p, h)
    except InadmissibleParameterError:
        return False
    return True


# ---------------------------------------------------------------------------
# reference estimators


def rmse_unbiased(h: float) -> float:
    """Relative MSE of (h - 2)/t: 2/(h - 4)."""
    h = _require_h(h, 4.0)
    return 2.0 / (h - 4.0)


def arb_mmse(h: float) -> float:
    """Absolute relative bias of (h - 4)/t: 2/(h - 2)."""
    h = _require_h(h, 2.0)
    return 2.0 / (h - 2.0)


def rmse_mmse(h: float) -> float:
    """Relative MSE of (h - 4)/t: also 2/(h - 2)."""
    h = _require_h(h, 4.0)
    return 2.0 / (h - 2.0)


# ---------------------------------------------------------------------------
# plain shrinkage estimator


def _bias_shrink_given_w(q: float, delta: float, w: float) -> float:
    return (q * delta - 1.0) * (1.0 - w)


def _rmse_shrink_given_w(h: float, q: float, delta: float, w: float) -> float:
    return (q * delta - 1.0) ** 2 * (1.0 - w) ** 2 + 2.0 * w * w / (h - 4.0)


def _pre_shrink_given_w(h: float, q: float, delta: float, w: float) -> float:
    denom = (h - 2.0) * (
        (q * delta - 1.0) ** 2 * (1.0 - w) ** 2 * (h - 4.0) + 2.0 * w * w
    )
    return 100.0 * 2.0 * (h - 4.0) / denom


def _shrink_point(
    h: float, p: float, q: float, delta: float, h_min: float = 4.0
) -> tuple[float, float, float, float]:
    """Check a plain-shrinkage point once; return it with its weight w(p)."""
    h = _require_h(h, h_min)
    q = _require_q(q)
    delta = _require_positive("delta", delta)
    return h, q, delta, shrink_weight(p, h)


def bias_shrink(h: float, p: float, q: float, delta: float) -> float:
    """Signed relative bias (q * delta - 1) * (1 - w)."""
    h, q, delta, w = _shrink_point(h, p, q, delta, h_min=2.0)
    return _bias_shrink_given_w(q, delta, w)


def rmse_shrink(h: float, p: float, q: float, delta: float) -> float:
    """Relative MSE (q*delta - 1)^2 (1 - w)^2 + 2 w^2 / (h - 4)."""
    return _rmse_shrink_given_w(*_shrink_point(h, p, q, delta))


# ---------------------------------------------------------------------------
# dominance ranges in the departure delta, for fixed p and q


def _nondegenerate_w(p: float, h: float, w: float) -> float:
    """w = w(p) at h, checked to leave the estimator a dominance range."""
    if w >= 1.0:
        raise InadmissibleParameterError(
            f"w(p={p}) rounds to 1 at h={h}; the estimator degenerates to the "
            "unbiased one and has no dominance range"
        )
    return w


def _mse_range_given_w(h: float, q: float, w: float) -> DominanceRange:
    """Departures where the shrinkage MSE beats the MMSE multiple's.

    Solving rmse_shrink < rmse_mmse for delta gives an interval centered at
    1/q with half-width sqrt(G)/q, G = (2/(1-w)^2) (1/(h-2) - w^2/(h-4));
    G < 0 means no delta qualifies. A negative lower endpoint clamps to 0
    since departures are positive.
    """
    gain = (2.0 / (1.0 - w) ** 2) * (1.0 / (h - 2.0) - w * w / (h - 4.0))
    if gain < 0.0:
        return DominanceRange.empty()
    half = math.sqrt(gain) / q
    return DominanceRange(max(0.0, 1.0 / q - half), 1.0 / q + half)


def _arb_range_given_w(h: float, q: float, w: float) -> DominanceRange:
    """Departures where the shrinkage ARB beats 2/(h - 2).

    Solving |q*delta - 1|(1 - w) < 2/(h - 2) gives an interval centered at 1/q
    with half-width c/q, c = 2 / ((h - 2)(1 - w)). Never empty; the lower
    endpoint clamps to 0 when c >= 1.
    """
    half = 2.0 / ((h - 2.0) * (1.0 - w)) / q
    return DominanceRange(max(0.0, 1.0 / q - half), 1.0 / q + half)


def _ranges_given_w(h: float, q: float, w: float) -> dict:
    """The MSE, ARB and best ranges, keyed "mse", "arb" and "best"."""
    r_mse = _mse_range_given_w(h, q, w)
    r_arb = _arb_range_given_w(h, q, w)
    return {"mse": r_mse, "arb": r_arb, "best": r_mse.intersect(r_arb)}


def dominance_ranges(h: float, p: float, q: float) -> dict:
    """The MSE, ARB and best ranges at (h, p, q), keyed "mse", "arb" and
    "best", from one check of h > 4 and q and one w(p)."""
    h = _require_h(h, 4.0)
    q = _require_q(q)
    return _ranges_given_w(h, q, _nondegenerate_w(p, h, shrink_weight(p, h)))


# ---------------------------------------------------------------------------
# truncated shrinkage estimator

# The truncation thresholds t > (h-2)/beta1 and t < (h-2)/beta2 turn into
# incomplete-gamma arguments eta_i = (h/2 - 1)/delta_i once t is integrated
# out against its gamma density; the shape argument drops by one for each
# power of 1/t under the expectation.


def _interval_terms(h: float, delta1: float, delta2: float, depth: int = 3) -> tuple:
    """P(h/2 - j, eta_i) for j < depth, as (i1_full, i2_full, i1_down, i2_down,
    i1_dd, i2_dd) cut to 2 * depth entries.

    These depend only on (h, delta1, delta2); the bias needs depth 2 and the
    MSE depth 3, whose last shape argument h/2 - 2 needs h > 4. Each
    threshold eta_i costs one incomplete-gamma evaluation, at shape h/2: the
    lower shapes follow from it by the downward recurrence of
    `specfun.reg_lower_inc_gamma_down`, which adds only positive terms.
    """
    eta1 = (h / 2.0 - 1.0) / delta1
    eta2 = (h / 2.0 - 1.0) / delta2
    at1 = reg_lower_inc_gamma_down(eta1, h / 2.0, depth - 1)
    at2 = reg_lower_inc_gamma_down(eta2, h / 2.0, depth - 1)
    return tuple(v for pair in zip(at1, at2) for v in pair)


def _bias_modified_given_terms(
    q: float, delta1: float, delta2: float, w: float, terms: tuple
) -> float:
    delta = 0.5 * (delta1 + delta2)
    i1_full, i2_full, i1_down, i2_down = terms[:4]
    return (
        delta1 * (1.0 - i1_full)
        + w * (i1_down - i2_down)
        + q * delta * (1.0 - w) * (i1_full - i2_full)
        + delta2 * i2_full
        - 1.0
    )


def _mse_modified_given_terms(
    h: float, q: float, delta1: float, delta2: float, w: float, terms: tuple
) -> float:
    delta = 0.5 * (delta1 + delta2)
    pull = q * delta * (1.0 - w)
    i1_full, i2_full, i1_down, i2_down, i1_dd, i2_dd = terms
    return (
        (delta1 - 1.0) ** 2
        - delta1 * (delta1 - 2.0) * i1_full
        + delta2 * (delta2 - 2.0) * i2_full
        + w * w * ((h - 2.0) / (h - 4.0)) * (i1_dd - i2_dd)
        + pull * (pull - 2.0) * (i1_full - i2_full)
        + 2.0 * w * (pull - 1.0) * (i1_down - i2_down)
    )


def _pre_from_mse(h: float, mse: float, delta1: float, delta2: float) -> float:
    """Efficiency in percent of the truncated estimator with relative MSE `mse`."""
    if mse <= 0.0:  # at delta1 = delta2 = 1 it always returns the true shape
        raise ValueError(
            f"the truncated estimator has MSE {mse!r} on the interval "
            f"({delta1!r}, {delta2!r}), so its efficiency is unbounded"
        )
    return 100.0 * (2.0 / (h - 2.0)) / mse


def _pre_modified_given_terms(
    h: float, q: float, delta1: float, delta2: float, w: float, terms: tuple
) -> float:
    mse = _mse_modified_given_terms(h, q, delta1, delta2, w, terms)
    return _pre_from_mse(h, mse, delta1, delta2)


def _modified_point(
    h: float, p: float, q: float, delta1: float, delta2: float, h_min: float = 4.0
) -> tuple[float, float, float, float, float]:
    """Check a truncated-shrinkage point once; return it with its weight w(p)."""
    h = _require_h(h, h_min)
    q = _require_q(q)
    delta1, delta2 = _require_interval("delta1", delta1, "delta2", delta2)
    return h, q, delta1, delta2, shrink_weight(p, h)


def bias_modified(
    h: float, p: float, q: float, delta1: float, delta2: float
) -> float:
    """Signed relative bias of the truncated shrinkage estimator."""
    h, q, delta1, delta2, w = _modified_point(h, p, q, delta1, delta2, h_min=2.0)
    terms = _interval_terms(h, delta1, delta2, depth=2)
    return _bias_modified_given_terms(q, delta1, delta2, w, terms)


def mse_modified(
    h: float, p: float, q: float, delta1: float, delta2: float
) -> float:
    """Relative MSE of the truncated shrinkage estimator."""
    h, q, delta1, delta2, w = _modified_point(h, p, q, delta1, delta2)
    return _mse_modified_given_terms(h, q, delta1, delta2, w, _interval_terms(h, delta1, delta2))


# ---------------------------------------------------------------------------
# report builders


def report_unbiased(h: float) -> RiskReport:
    rmse = rmse_unbiased(h)
    pre = 100.0 * (h - 4.0) / (h - 2.0)
    if pre == math.inf:
        raise OverflowError("the efficiency 100(h - 4)/(h - 2) overflows")
    return RiskReport(
        estimator_id="UNBIASED",
        bias_over_beta=0.0,
        arb=0.0,
        rmse=rmse,
        pre_vs_mmse=pre,
    )


def report_mmse(h: float) -> RiskReport:
    value = rmse_mmse(h)  # the ARB of (h - 4)/t is 2/(h - 2) as well
    return RiskReport(
        estimator_id="MMSE",
        bias_over_beta=-value,
        arb=value,
        rmse=value,
        pre_vs_mmse=100.0,
    )


def report_shrink(h: float, p: float, q: float, delta: float) -> RiskReport:
    h, q, delta, w = _shrink_point(h, p, q, delta)
    bias = _bias_shrink_given_w(q, delta, w)
    pre = _pre_shrink_given_w(h, q, delta, w)
    if pre == math.inf:  # 200(h - 4) leaves the float range near h = 9e305
        raise OverflowError(f"the efficiency of the shrinkage estimator overflows at h={h}")
    return RiskReport(
        estimator_id="SHRINK_PQ",
        bias_over_beta=bias,
        arb=abs(bias),
        rmse=_rmse_shrink_given_w(h, q, delta, w),
        pre_vs_mmse=pre,
    )


def report_modified(
    h: float, p: float, q: float, delta1: float, delta2: float
) -> RiskReport:
    h, q, delta1, delta2, w = _modified_point(h, p, q, delta1, delta2)
    terms = _interval_terms(h, delta1, delta2)
    bias = _bias_modified_given_terms(q, delta1, delta2, w, terms)
    mse = _mse_modified_given_terms(h, q, delta1, delta2, w, terms)
    return RiskReport(
        estimator_id="SHRINK_PQ_MODIFIED",
        bias_over_beta=bias,
        arb=abs(bias),
        rmse=mse,
        # an estimator that never errs is infinitely efficient
        pre_vs_mmse=math.inf if mse == 0.0 else _pre_from_mse(h, mse, delta1, delta2),
    )
