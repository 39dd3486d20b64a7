"""Exact risk functions for the shape estimators, scaled by the true shape.

Every quantity here is dimensionless: biases are E[estimate]/beta - 1, MSEs
are E[(estimate - beta)^2]/beta^2, and efficiencies compare against the
minimum-MSE multiple (h - 4)/t at 100 * mse_mmse / mse, mse_mmse = 2/(h - 2).
That quotient has one expression, `_efficiency`, which every report and both
table evaluators call: it is +inf when the MSE is 0 or so small that the
quotient overflows, and exactly 100 when the MSE is the MMSE one. The risks
of the shrinkage estimators depend on the unknown shape only through the
departure ratios delta1 = beta1/beta, delta2 = beta2/beta and their mean delta.

The entries are the four reports (`report_unbiased`, `report_mmse`,
`report_shrink`, `report_modified`) and `dominance_ranges`. Each checks its
raw arguments once, with the rules in `model` and in the order h, q,
departures, then the admissibility of p, and computes w(p) once; every one
needs h > 4. The formulas themselves are the `_given_w` and `_given_terms`
kernels, which take the weight as an argument and trust their inputs. The CLI
and the table builders read every quantity of the paper from the entries or
from the kernels directly, so nothing is checked or computed twice. The seven
scalar risks at the end (`rmse_unbiased`, `rmse_mmse`, `arb_mmse`,
`bias_shrink`, `rmse_shrink`, `bias_modified`, `mse_modified`) each read one
field of a report, with its checks and its errors; they are kept because the
benchmark's `simulate` workload reads them. The kernels square by
multiplying, so an overflow is an inf rather than a raise. All four reports
are built by `_report`, which holds the one finiteness rule: a non-finite
bias or MSE raises `DepartureOverflowError` naming the departure or the
interval (`dominance_ranges` names q the same way). A report whose MSE
vanishes is kept, with efficiency +inf; refusing it is the caller's choice.

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
from weibull_shrink.specfun import OMEGA_MAX, reg_lower_inc_gamma_down


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


class DepartureOverflowError(OverflowError):
    """A departure, or 1/q, carries a risk or a range end past the float
    range; h and w(p) have passed, so a caller can name where those came from."""


# ---------------------------------------------------------------------------
# efficiency and the report builder


def _efficiency(h: float, mse: float) -> float:
    """Percent efficiency 100 * mse_mmse / mse of an estimator with relative
    MSE `mse` >= 0 at h > 4; +inf when mse is 0 or the quotient overflows.

    An MSE equal to the MMSE one gives exactly 100, which the rounded
    quotient (100 * mse_mmse) / mse can miss by an ulp. An overflowed (inf)
    MSE gives 0 and a NaN gives NaN, for the caller to refuse.
    """
    mmse = 2.0 / (h - 2.0)
    if mse == mmse:
        return 100.0
    if mse == 0.0:
        return math.inf
    return 100.0 * mmse / mse


def _report(estimator_id: str, h: float, bias: float, mse: float, where: str) -> RiskReport:
    """The report of an estimator with relative bias `bias` and MSE `mse` at
    h, its efficiency from `_efficiency`; a non-finite risk raises
    `DepartureOverflowError` naming `where`, the departure or interval."""
    if not (math.isfinite(bias) and math.isfinite(mse)):
        raise DepartureOverflowError(f"the risks of {estimator_id} overflow {where}")
    return RiskReport(estimator_id, bias, abs(bias), mse, _efficiency(h, mse))


# ---------------------------------------------------------------------------
# reference estimators


def report_unbiased(h: float) -> RiskReport:
    """(h - 2)/t: unbiased, relative MSE 2/(h - 4)."""
    h = _require_h(h, 4.0)
    return _report("UNBIASED", h, 0.0, 2.0 / (h - 4.0), f"at h={h!r}")


def report_mmse(h: float) -> RiskReport:
    """(h - 4)/t: relative bias -2/(h - 2) and relative MSE 2/(h - 2)."""
    h = _require_h(h, 4.0)
    value = 2.0 / (h - 2.0)
    return _report("MMSE", h, -value, value, f"at h={h!r}")


# ---------------------------------------------------------------------------
# plain shrinkage estimator


def _bias_shrink_given_w(q: float, delta: float, w: float) -> float:
    return (q * delta - 1.0) * (1.0 - w)


def _rmse_shrink_given_w(h: float, q: float, delta: float, w: float) -> float:
    pull = q * delta - 1.0
    return pull * pull * (1.0 - w) ** 2 + 2.0 * w * w / (h - 4.0)


def report_shrink(h: float, p: float, q: float, delta: float) -> RiskReport:
    """Relative bias (q*delta - 1)(1 - w) and MSE (q*delta - 1)^2 (1 - w)^2
    + 2 w^2/(h - 4) of the plain shrinkage estimator."""
    h = _require_h(h, 4.0)
    q = _require_q(q)
    delta = _require_positive("delta", delta)
    w = shrink_weight(p, h)
    bias = _bias_shrink_given_w(q, delta, w)
    mse = _rmse_shrink_given_w(h, q, delta, w)
    return _report("SHRINK_PQ", h, bias, mse, f"at delta={delta!r}")


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


def _range_about(q: float, half: float) -> DominanceRange:
    """(1/q - half, 1/q + half), the lower end clamped to 0: departures are positive."""
    hi = 1.0 / q + half
    if hi == math.inf:
        raise DepartureOverflowError(f"the dominance ranges reach past the float range at q={q!r}")
    return DominanceRange(max(0.0, 1.0 / q - half), hi)


def _ranges_given_w(h: float, q: float, w: float) -> dict:
    """The MSE, ARB and best ranges, keyed "mse", "arb" and "best".

    The MSE range holds the departures where the shrinkage MSE beats the MMSE
    multiple's: solving rmse_shrink < rmse_mmse for delta gives half-width
    sqrt(G)/q about 1/q, G = (2/(1-w)^2) (1/(h-2) - w^2/(h-4)), and no range
    when G < 0. The ARB range, where the shrinkage ARB beats 2/(h - 2), has
    half-width c/q, c = 2/((h - 2)(1 - w)), and is never empty.
    """
    gain = (2.0 / (1.0 - w) ** 2) * (1.0 / (h - 2.0) - w * w / (h - 4.0))
    r_mse = DominanceRange.empty() if gain < 0.0 else _range_about(q, math.sqrt(gain) / q)
    r_arb = _range_about(q, 2.0 / ((h - 2.0) * (1.0 - w)) / q)
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


def _interval_terms(h: float, delta1: float, delta2: float) -> tuple:
    """P(h/2 - j, eta_i) for j = 0, 1, 2, as (i1_full, i2_full, i1_down,
    i2_down, i1_dd, i2_dd).

    These depend only on (h, delta1, delta2); the bias reads the first four,
    the MSE all six, whose last shape argument h/2 - 2 needs h > 4. Each
    threshold eta_i costs one incomplete-gamma evaluation, at shape h/2: the
    lower shapes follow from it by the downward recurrence of
    `specfun.reg_lower_inc_gamma_down`, which adds only positive terms. That
    shape may not pass `specfun.OMEGA_MAX`, the accuracy bound of P, so h
    may not pass twice that bound; the check names h.
    """
    if h > 2.0 * OMEGA_MAX:
        raise ValueError(
            f"the truncated estimator needs h <= {2.0 * OMEGA_MAX:g}, twice the accuracy "
            f"bound of its incomplete gammas, got h={h!r}"
        )
    eta1 = (h / 2.0 - 1.0) / delta1
    eta2 = (h / 2.0 - 1.0) / delta2
    at1 = reg_lower_inc_gamma_down(eta1, h / 2.0, 2)
    at2 = reg_lower_inc_gamma_down(eta2, h / 2.0, 2)
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
        (delta1 - 1.0) * (delta1 - 1.0)
        - delta1 * (delta1 - 2.0) * i1_full
        + delta2 * (delta2 - 2.0) * i2_full
        + w * w * ((h - 2.0) / (h - 4.0)) * (i1_dd - i2_dd)
        + pull * (pull - 2.0) * (i1_full - i2_full)
        + 2.0 * w * (pull - 1.0) * (i1_down - i2_down)
    )


def report_modified(
    h: float, p: float, q: float, delta1: float, delta2: float
) -> RiskReport:
    """Relative bias and MSE of the truncated shrinkage estimator."""
    h = _require_h(h, 4.0)
    q = _require_q(q)
    delta1, delta2 = _require_interval("delta1", delta1, "delta2", delta2)
    w = shrink_weight(p, h)
    terms = _interval_terms(h, delta1, delta2)
    bias = _bias_modified_given_terms(q, delta1, delta2, w, terms)
    mse = _mse_modified_given_terms(h, q, delta1, delta2, w, terms)
    return _report("SHRINK_PQ_MODIFIED", h, bias, mse, f"on ({delta1!r}, {delta2!r})")


# ---------------------------------------------------------------------------
# scalar risks: one report field each


def rmse_unbiased(h: float) -> float:
    return report_unbiased(h).rmse


def rmse_mmse(h: float) -> float:
    return report_mmse(h).rmse


def arb_mmse(h: float) -> float:
    return report_mmse(h).arb


def bias_shrink(h: float, p: float, q: float, delta: float) -> float:
    return report_shrink(h, p, q, delta).bias_over_beta


def rmse_shrink(h: float, p: float, q: float, delta: float) -> float:
    return report_shrink(h, p, q, delta).rmse


def bias_modified(h: float, p: float, q: float, delta1: float, delta2: float) -> float:
    return report_modified(h, p, q, delta1, delta2).bias_over_beta


def mse_modified(h: float, p: float, q: float, delta1: float, delta2: float) -> float:
    return report_modified(h, p, q, delta1, delta2).rmse
