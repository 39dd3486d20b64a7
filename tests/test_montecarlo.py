"""Simulation machinery: determinism, distributional checks, design constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weibull_shrink.estimators import (
    bain_constant,
    beta_mmse,
    beta_shrink,
    beta_shrink_truncated,
    beta_unbiased,
)
from weibull_shrink.model import (
    BUILTIN_H,
    GuessInterval,
    PivotalContext,
    ShrinkageConfig,
    WeibullParams,
)
from weibull_shrink.montecarlo import (
    _CHUNK,
    EmpiricalRisk,
    SimulationPlan,
    _chunk_seeds,
    empirical_risk,
    empirical_risks,
    estimate_bain_constant,
    estimate_degrees_of_freedom,
    mmse_estimator,
    sample_t,
    shrink_estimator,
    truncated_estimator,
    unbiased_estimator,
)

H6 = BUILTIN_H[20, 6]
PARAMS = WeibullParams(alpha=1.0, beta=1.0)


def plan(reps, seed=0, beta=1.0):
    return SimulationPlan(
        replicates=reps, seed=seed, params=WeibullParams(alpha=1.0, beta=beta), n=20, m=6
    )


# --- plan and result validation ---------------------------------------------


def test_simulation_plan_validation():
    with pytest.raises(ValueError):
        SimulationPlan(replicates=1, seed=0, params=PARAMS, n=20, m=6)
    with pytest.raises(ValueError):
        SimulationPlan(replicates=100, seed=-1, params=PARAMS, n=20, m=6)
    with pytest.raises(ValueError):
        SimulationPlan(replicates=100, seed=0, params=PARAMS, n=5, m=6)
    with pytest.raises(ValueError):
        SimulationPlan(replicates=100, seed=0, params=PARAMS, n=20, m=1)


def test_empirical_risk_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        # mse well below bias^2 is impossible
        EmpiricalRisk(mean=1.0, bias=0.5, mse=0.1, se_mean=0.01, se_mse=0.01, replicates=100)
    with pytest.raises(ValueError):
        EmpiricalRisk(mean=1.0, bias=0.0, mse=-0.1, se_mean=0.01, se_mse=0.01, replicates=100)
    with pytest.raises(ValueError):
        EmpiricalRisk(mean=math.nan, bias=0.0, mse=0.1, se_mean=0.01, se_mse=0.01, replicates=100)
    r = EmpiricalRisk(mean=1.0, bias=0.0, mse=0.1, se_mean=0.01, se_mse=0.01, replicates=100)
    assert r.replicates == 100


# --- determinism ------------------------------------------------------------


def test_empirical_risk_bit_exact_repeat():
    est = unbiased_estimator(H6)
    a = empirical_risk(plan(50_000, seed=3), est, h=H6)
    b = empirical_risk(plan(50_000, seed=3), est, h=H6)
    assert a == b  # value-type equality: every float identical


def test_empirical_risk_seed_sensitivity():
    est = unbiased_estimator(H6)
    a = empirical_risk(plan(50_000, seed=3), est, h=H6)
    b = empirical_risk(plan(50_000, seed=4), est, h=H6)
    assert a.mean != b.mean


def test_empirical_risk_across_chunk_boundary():
    # replicate counts straddling the chunk size stay deterministic
    est = mmse_estimator(H6)
    for reps in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 17):
        a = empirical_risk(plan(reps, seed=11), est, h=H6)
        b = empirical_risk(plan(reps, seed=11), est, h=H6)
        assert a == b
        assert a.replicates == reps


def _separate_pass(plan, estimator, h):
    """Each estimator on its own stream of draws, as before the shared pass."""
    beta, total = plan.params.beta, plan.replicates
    n_chunks = (total + _CHUNK - 1) // _CHUNK
    seeds = _chunk_seeds(plan.seed, n_chunks)
    sums = ([], [], [])
    done = 0
    for i in range(n_chunks):
        count = min(_CHUNK, total - done)
        done += count
        t = sample_t(h, beta, np.random.default_rng(seeds[i]), size=count)
        d = (estimator(t) - beta) / beta
        d2 = d * d
        for part, value in zip(sums, (d, d2, d2 * d2)):
            part.append(float(np.sum(value)))
    s1, s2, s4 = (math.fsum(part) for part in sums)
    bias, mse = s1 / total, s2 / total
    return EmpiricalRisk(
        mean=beta * (1.0 + bias),
        bias=bias,
        mse=mse,
        se_mean=beta * math.sqrt(max(0.0, mse - bias * bias) / total),
        se_mse=math.sqrt(max(0.0, s4 / total - mse * mse) / total),
        replicates=total,
    )


def _bits(r):
    return [float(v).hex() for v in (r.mean, r.bias, r.mse, r.se_mean, r.se_mse)]


@pytest.mark.parametrize("reps", [1000, _CHUNK, 2 * _CHUNK + 4321])
def test_shared_draws_match_separate_passes_bit_for_bit(reps):
    # `mc verify` draws each chunk once for every estimator; each result must
    # equal the estimator's own pass over the same seeded stream, bit for bit
    cfg = ShrinkageConfig(p=-1.0, q=0.5)
    estimators = [
        unbiased_estimator(H6),
        mmse_estimator(H6),
        shrink_estimator(H6, GuessInterval(1.3, 1.3), cfg),
        truncated_estimator(H6, GuessInterval(0.8, 1.6), cfg),
    ]
    p = SimulationPlan(replicates=reps, seed=29, params=WeibullParams(1.0, 2.0), n=20, m=6)
    shared = empirical_risks(p, estimators, h=H6)
    assert len(shared) == len(estimators)
    for got, estimator in zip(shared, estimators):
        assert got.replicates == reps
        assert _bits(got) == _bits(empirical_risk(p, estimator, h=H6))
        assert _bits(got) == _bits(_separate_pass(p, estimator, H6))


def test_empirical_risks_take_h_as_a_required_keyword():
    # h is the pivot's degrees of freedom of the caller's design; nothing
    # looks it up from the plan's (n, m), and it is never positional
    est = unbiased_estimator(H6)
    p = plan(200)
    for call in (
        lambda: empirical_risks(p, [est]),
        lambda: empirical_risk(p, est),
        lambda: empirical_risks(p, [est], H6),
        lambda: empirical_risk(p, est, H6),
    ):
        with pytest.raises(TypeError):
            call()


def test_estimate_bain_constant_deterministic():
    a = estimate_bain_constant(6, 20, 20_000, seed=9)
    b = estimate_bain_constant(6, 20, 20_000, seed=9)
    assert a == b


# --- distributional checks --------------------------------------------------


def test_sample_t_moments():
    h, beta = H6, 2.0
    rng = np.random.default_rng(99)
    t = sample_t(h, beta, rng, size=400_000)
    se_mean = t.std(ddof=1) / math.sqrt(t.size)
    assert abs(t.mean() - h / beta) < 3.0 * se_mean
    # variance of a gamma(h/2, scale 2/beta) variate
    assert t.var(ddof=1) == pytest.approx(2.0 * h / beta**2, rel=0.02)
    assert (t > 0).all()


def test_sample_t_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_t(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_t(10.0, -1.0, rng)


def test_unbiased_estimator_is_unbiased():
    emp = empirical_risk(plan(400_000, seed=21, beta=2.5), unbiased_estimator(H6), h=H6)
    assert abs(emp.mean - 2.5) < 3.0 * emp.se_mean
    assert abs(emp.bias) < 3.0 * emp.se_mean / 2.5


def test_se_scales_with_replicates():
    est = unbiased_estimator(H6)
    small = empirical_risk(plan(50_000, seed=13), est, h=H6)
    large = empirical_risk(plan(200_000, seed=13), est, h=H6)
    ratio = large.se_mean / small.se_mean
    # quadrupling the sample should halve the SE, within sampling noise
    assert 0.4 < ratio < 0.6, ratio


# --- vectorized estimators agree with the scalar ones -----------------------

IV = GuessInterval(0.8, 1.2)
CFG = ShrinkageConfig(p=-1.0, q=0.5)


def scalar_ctx(t):
    return PivotalContext(h=H6, t=t)


@given(t=st.floats(min_value=0.01, max_value=200.0))
@settings(max_examples=150, deadline=None)
def test_vectorized_matches_scalar(t):
    arr = np.array([t])
    assert unbiased_estimator(H6)(arr)[0] == pytest.approx(
        beta_unbiased(scalar_ctx(t)), rel=1e-15
    )
    assert mmse_estimator(H6)(arr)[0] == pytest.approx(beta_mmse(scalar_ctx(t)), rel=1e-15)
    assert shrink_estimator(H6, IV, CFG)(arr)[0] == pytest.approx(
        beta_shrink(scalar_ctx(t), IV, CFG), rel=1e-14
    )
    assert truncated_estimator(H6, IV, CFG)(arr)[0] == pytest.approx(
        beta_shrink_truncated(scalar_ctx(t), IV, CFG), rel=1e-14
    )


def test_vectorized_truncation_ties_match_scalar():
    # exact threshold values must take the same (middle) branch in both
    # code paths; the values then agree to association-order roundoff
    for t in ((H6 - 2.0) / IV.beta1, (H6 - 2.0) / IV.beta2):
        got = truncated_estimator(H6, IV, CFG)(np.array([t]))[0]
        want = beta_shrink_truncated(scalar_ctx(t), IV, CFG)
        assert got not in (IV.beta1, IV.beta2)
        assert want not in (IV.beta1, IV.beta2)
        assert got == pytest.approx(want, rel=1e-14)


# --- design constants by simulation -----------------------------------------


def test_bain_constant_two_by_two():
    # for m = n = 2 the expected log-spacing is known: k = ln 2
    k, se = estimate_bain_constant(2, 2, 400_000, seed=42)
    assert se > 0.0
    assert abs(k - math.log(2.0)) < 3.0 * se


@pytest.mark.parametrize("m, n", [(6, 20), (20, 20), (3, 24), (100, 200)])
def test_exact_bain_constant_matches_simulation(m, n):
    # (100, 200) needs far more decimal digits than (6, 20)
    k, se = estimate_bain_constant(m, n, 40_000, seed=11)
    assert abs(k - bain_constant(m, n)) < 4.0 * se, (k, se)


def test_bain_constant_validation():
    with pytest.raises(ValueError):
        estimate_bain_constant(1, 10, 1000, seed=0)
    with pytest.raises(ValueError):
        estimate_bain_constant(5, 4, 1000, seed=0)
    with pytest.raises(ValueError):
        estimate_bain_constant(5, 10, 1, seed=0)


def test_degrees_of_freedom_tracks_builtin_table():
    got = {}
    for m in (6, 8, 10, 12):
        h, se = estimate_degrees_of_freedom(m, 20, 200_000, seed=7)
        got[m] = h
        builtin = BUILTIN_H[(20, m)]
        assert abs(h - builtin) < 4.0 * se, (m, h, builtin, se)
    # more failures observed -> more information -> larger h
    assert got[6] < got[8] < got[10] < got[12]
