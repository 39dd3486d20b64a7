"""Validation and serialization behaviour of the shared value types."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weibull_shrink import risk
from weibull_shrink.estimators import bain_constant, shrink_weight
from weibull_shrink.model import (
    BUILTIN_H,
    CensoredSample,
    GuessInterval,
    InadmissibleParameterError,
    MissingConstantError,
    PivotalContext,
    RiskReport,
    ShrinkageConfig,
    WeibullParams,
    lookup_h,
)
from weibull_shrink.tables import GridSpec


def test_lookup_h_builtin_designs():
    assert lookup_h(20, 6) == 10.8519
    assert lookup_h(20, 8) == 15.6740
    assert lookup_h(20, 10) == 20.8442
    assert lookup_h(20, 12) == 26.4026
    assert set(BUILTIN_H) == {(20, 6), (20, 8), (20, 10), (20, 12)}


def test_lookup_h_unknown_design():
    with pytest.raises(MissingConstantError):
        lookup_h(20, 7)
    with pytest.raises(MissingConstantError):
        lookup_h(25, 6)
    # MissingConstantError is a LookupError, not a ValueError
    assert issubclass(MissingConstantError, LookupError)


class TestWeibullParams:
    def test_accepts_positive(self):
        p = WeibullParams(alpha=2.0, beta=0.5)
        assert p.alpha == 2.0 and p.beta == 0.5

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)])
    def test_rejects_nonpositive(self, alpha, beta):
        with pytest.raises(ValueError):
            WeibullParams(alpha=alpha, beta=beta)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            WeibullParams(alpha=float("inf"), beta=1.0)
        with pytest.raises(ValueError):
            WeibullParams(alpha=1.0, beta=float("nan"))


class TestCensoredSample:
    def test_basic(self):
        s = CensoredSample(n=20, observations=(0.5, 1.1, 1.1, 2.3))
        assert s.m == 4
        assert s.n == 20

    def test_ties_allowed(self):
        s = CensoredSample(n=5, observations=(1.0, 1.0, 1.0))
        assert s.m == 3

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            CensoredSample(n=10, observations=(1.0, 0.9, 2.0))

    def test_rejects_nonpositive_observation(self):
        with pytest.raises(ValueError, match="observation 2"):
            CensoredSample(n=10, observations=(1.0, 0.0, 2.0))
        with pytest.raises(ValueError):
            CensoredSample(n=10, observations=(-1.0, 2.0))

    def test_rejects_m_exceeding_n(self):
        with pytest.raises(ValueError, match="got n=2, m=3"):
            CensoredSample(n=2, observations=(1.0, 2.0, 3.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="m must be an integer >= 2, got 0"):
            CensoredSample(n=5, observations=())

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n must be an integer >= m"):
            CensoredSample(n=0, observations=(1.0, 2.0))
        with pytest.raises(ValueError, match="n must be an integer >= m"):
            CensoredSample(n=2.5, observations=(1.0, 2.0))

    @given(
        values=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=12),
        extra=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_sorted_lists_always_accepted(self, values, extra):
        obs = tuple(sorted(values))
        s = CensoredSample(n=len(obs) + extra, observations=obs)
        assert s.observations == obs


class TestPivotalContext:
    def test_basic(self):
        ctx = PivotalContext(h=10.8519, t=8.8519)
        assert ctx.h == 10.8519

    @pytest.mark.parametrize("h", [4.0, 3.9, 0.0, -1.0])
    def test_rejects_h_at_or_below_four(self, h):
        # finite second inverse moment of the pivot needs h > 4
        with pytest.raises(ValueError):
            PivotalContext(h=h, t=5.0)

    def test_accepts_h_just_above_four(self):
        ctx = PivotalContext(h=4.0001, t=5.0)
        assert ctx.h == 4.0001

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            PivotalContext(h=10.8519, t=0.0)
        with pytest.raises(ValueError):
            PivotalContext(h=10.8519, t=float("inf"))


class TestGuessInterval:
    def test_midpoint(self):
        iv = GuessInterval(3.8, 4.2)
        assert iv.midpoint == pytest.approx(4.0)

    def test_degenerate_interval_allowed(self):
        iv = GuessInterval(2.0, 2.0)
        assert iv.midpoint == 2.0

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            GuessInterval(4.2, 3.8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GuessInterval(0.0, 1.0)
        with pytest.raises(ValueError):
            GuessInterval(-1.0, 1.0)


class TestShrinkageConfig:
    def test_accepts_grid_values(self):
        for p in (-2.0, -1.0, 1.0, 2.0):
            for q in (0.25, 0.5, 0.75, 1.0):
                cfg = ShrinkageConfig(p=p, q=q)
                assert cfg.p == p and cfg.q == q

    def test_p_zero_is_inadmissible(self):
        with pytest.raises(InadmissibleParameterError):
            ShrinkageConfig(p=0.0, q=0.5)

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.0001, 2.0])
    def test_rejects_q_outside_unit_interval(self, q):
        with pytest.raises(ValueError):
            ShrinkageConfig(p=1.0, q=q)

    def test_q_one_allowed(self):
        assert ShrinkageConfig(p=1.0, q=1.0).q == 1.0


class TestRiskReport:
    def _mk(self, **kw):
        base = dict(
            estimator_id="SHRINK_PQ",
            bias_over_beta=-0.25,
            arb=0.25,
            rmse=0.1,
            pre_vs_mmse=120.0,
        )
        base.update(kw)
        return RiskReport(**base)

    def test_basic(self):
        r = self._mk()
        assert r.arb == 0.25

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            self._mk(estimator_id="RIDGE")

    def test_arb_must_match_bias_magnitude(self):
        with pytest.raises(ValueError, match="arb"):
            self._mk(arb=0.3)

    def test_rejects_negative_rmse(self):
        with pytest.raises(ValueError):
            self._mk(rmse=-0.01)

    def test_rejects_negative_pre(self):
        with pytest.raises(ValueError):
            self._mk(pre_vs_mmse=-1.0)

    def test_pre_zero_allowed(self):
        assert self._mk(pre_vs_mmse=0.0).pre_vs_mmse == 0.0

    @given(bias=st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_arb_consistency_fuzz(self, bias):
        r = self._mk(bias_over_beta=bias, arb=abs(bias))
        assert r.arb == abs(bias)


def test_frozen():
    ctx = PivotalContext(h=10.8519, t=8.8519)
    with pytest.raises(AttributeError):
        ctx.t = 9.0


def test_builtin_h_all_above_four():
    # every built-in design must be usable with the MSE formulas
    assert all(h > 4.0 for h in BUILTIN_H.values())
    assert all(not math.isinf(h) for h in BUILTIN_H.values())


# --- one message per rule, whichever entry point applies it -------------------


def _message(call) -> str:
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


def _grid(h=10.8519, p=1.0, row=(0.8, 1.2), m=6):
    return GridSpec(((m, h),), (p,), (0.5,), (row,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ShrinkageConfig(p=0.0, q=0.5),
        lambda: shrink_weight(0.0, 10.8519),
        lambda: risk.report_shrink(10.8519, 0.0, 0.5, 1.0),
        lambda: risk.dominance_ranges(10.8519, 0.0, 0.5),
        lambda: _grid(p=0.0),
    ],
    ids=["ShrinkageConfig", "shrink_weight", "report_shrink", "dominance_ranges", "GridSpec"],
)
def test_p_zero_has_one_message(call):
    assert "p must be nonzero, got 0.0" in _message(call)


@pytest.mark.parametrize(
    "call, lo, hi",
    [
        (lambda: GuessInterval(2.0, 1.0), "beta1", "beta2"),
        (lambda: risk.report_modified(10.8519, 1.0, 0.5, 2.0, 1.0), "delta1", "delta2"),
        (lambda: _grid(row=(2.0, 1.0)), "delta1", "delta2"),
    ],
    ids=["GuessInterval", "report_modified", "GridSpec"],
)
def test_reversed_interval_has_one_message(call, lo, hi):
    assert f"{lo} must not exceed {hi}, got (2.0, 1.0)" in _message(call)


@pytest.mark.parametrize(
    "call",
    [
        lambda: PivotalContext(h=4.0, t=5.0),
        lambda: risk.rmse_mmse(4.0),
        lambda: _grid(h=4.0),
    ],
    ids=["PivotalContext", "rmse_mmse", "GridSpec"],
)
def test_h_four_has_one_message(call):
    assert "need a finite h > 4, got 4.0" in _message(call)


@pytest.mark.parametrize(
    "call, m",
    [
        (lambda: CensoredSample(n=20, observations=(1.0,)), "1"),
        (lambda: bain_constant(1, 20), "1"),
        (lambda: _grid(m=-3), "-3"),
        (lambda: _grid(m=6.5), "6.5"),
    ],
    ids=["CensoredSample", "bain_constant", "GridSpec", "GridSpec-fractional"],
)
def test_bad_m_has_one_message(call, m):
    # a table design has no n, but its m follows the design's m rule
    assert f"m must be an integer >= 2, got {m}" in _message(call)


@pytest.mark.parametrize(
    "call",
    [
        lambda: CensoredSample(n=6, observations=tuple(range(1, 8))),
        lambda: bain_constant(7, 6),
    ],
    ids=["CensoredSample", "bain_constant"],
)
def test_n_below_m_has_one_message(call):
    assert "n must be an integer >= m, got n=6, m=7" in _message(call)


def test_grid_labels_each_rule_message():
    # the grid lists every problem under its entry's label, in the rule's words
    message = _message(lambda: _grid(h=4.0, p=0.0, row=(2.0, 1.0)))
    assert message.splitlines() == [
        "invalid grid:",
        "  design (m=6, h=4.0): need a finite h > 4, got 4.0",
        "  p=0.0: p must be nonzero, got 0.0",
        "  delta row 0: delta1 must not exceed delta2, got (2.0, 1.0)",
    ]
