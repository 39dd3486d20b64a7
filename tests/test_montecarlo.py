"""Simulation machinery: determinism, distributional checks, design constants."""

import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import ks_2samp

from weibull_shrink.cli import main

from weibull_shrink.estimators import (
    beta_mmse,
    beta_shrink,
    beta_shrink_truncated,
    beta_unbiased,
    design_constants,
)
from weibull_shrink.model import (
    BUILTIN_H,
    GuessInterval,
    PivotalContext,
    ShrinkageConfig,
    WeibullParams,
)
from weibull_shrink.montecarlo import (
    _BLOCK,
    _CHUNK,
    EmpiricalRisk,
    SimulationPlan,
    _pieces,
    _sev_spacing_sums,
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


def design_plan(m, n, reps, seed):
    """The plan of a design-constant simulation of the (n, m) design."""
    return SimulationPlan(replicates=reps, seed=seed, params=PARAMS, n=n, m=m)


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
    with pytest.raises(ValueError, match="from 2 to 1000000000, got 1000000001"):
        SimulationPlan(replicates=10**9 + 1, seed=0, params=PARAMS, n=20, m=6)
    assert SimulationPlan(10**9, 0, PARAMS, 20, 6).replicates == 10**9


def test_simulation_plan_checks_replicates_then_design_then_seed():
    # the CLI's --reps, --n/--m, --seed order: the first bad field is named
    with pytest.raises(ValueError, match="^replicates must"):
        SimulationPlan(replicates=1, seed=-1, params=PARAMS, n=5, m=6)
    with pytest.raises(ValueError, match="^n must be an integer >= m"):
        SimulationPlan(replicates=100, seed=-1, params=PARAMS, n=5, m=6)
    with pytest.raises(ValueError, match="^seed must"):
        SimulationPlan(replicates=100, seed=-1, params=PARAMS, n=20, m=6)


def test_empirical_risk_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        # mse well below bias^2 is impossible
        EmpiricalRisk(mean=1.0, bias=0.5, mse=0.1, se_mean=0.01, se_mse=0.01, replicates=100)
    with pytest.raises(ValueError):
        EmpiricalRisk(mean=1.0, bias=0.0, mse=-0.1, se_mean=0.01, se_mse=0.01, replicates=100)
    with pytest.raises(ValueError):
        EmpiricalRisk(mean=math.nan, bias=0.0, mse=0.1, se_mean=0.01, se_mse=0.01, replicates=100)
    with pytest.raises(ValueError, match="from 2 to 1000000000"):
        EmpiricalRisk(mean=1.0, bias=0.0, mse=0.1, se_mean=0.01, se_mse=0.01, replicates=10**9 + 1)
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
    """Each estimator on its own stream of draws, as before the shared pass,
    with every chunk seed spawned up front and a new array at each step:
    each chunk's pieces of at most _BLOCK are summed by np.sum and the piece
    sums added to the totals in order."""
    beta, total = plan.params.beta, plan.replicates
    n_chunks = (total + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(plan.seed).spawn(n_chunks)
    s1 = s2 = s4 = 0.0
    for i in range(n_chunks):
        rng = np.random.default_rng(seeds[i])
        chunk = min(_CHUNK, total - i * _CHUNK)
        for start in range(0, chunk, _BLOCK):
            t = sample_t(h, beta, rng, size=min(_BLOCK, chunk - start))
            d = (estimator(t) - beta) / beta
            d2 = d * d
            s1 += float(np.sum(d))
            s2 += float(np.sum(d2))
            s4 += float(np.sum(d2 * d2))
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


@pytest.mark.parametrize("reps", [
    1000, _BLOCK - 1, _BLOCK + 1, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 4321, 100_000, 1_000_000,
])
def test_shared_draws_match_separate_passes_bit_for_bit(reps):
    # `mc verify` draws each piece once for every estimator; each result must
    # equal the estimator's own pass over the same seeded stream, piece by
    # piece, bit for bit. At 100,000 the tail chunk of 34,464 ends on a
    # piece of 1,696
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


@pytest.mark.parametrize("chunk", [_CHUNK, _BLOCK])
def test_pieces_are_rows_of_a_block_with_a_new_generator_every_chunk(chunk):
    # rows of _BLOCK in order, the last one short; a new generator object
    # exactly where a chunk starts
    total = 2 * _CHUNK + 17
    pieces = list(_pieces(5, total, chunk))
    assert [count for _, count in pieces] == [_BLOCK] * 16 + [17]
    starts = list(itertools.accumulate([0] + [count for _, count in pieces[:-1]]))
    fresh = [i == 0 or rng is not pieces[i - 1][0] for i, (rng, _) in enumerate(pieces)]
    assert fresh == [start % chunk == 0 for start in starts]
    assert len({id(rng) for rng, _ in pieces}) == sum(fresh)


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


_SPEC = importlib.util.spec_from_file_location(
    "output_identity", Path(__file__).resolve().parent.parent / "scripts" / "output_identity.py")
output_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_identity)
# the argvs of scripts/output_identity.py's seeded `mc` runs: `mc verify`
# with --delta and with --delta1/--delta2, `mc estimate-k --n 20 --m 6`,
# `mc estimate-h --n 20 --m 6` and `mc estimate-h --n 24 --m 19`
_VERIFY_DELTA, _VERIFY_PAIR, _ESTIMATE_K, _, _ESTIMATE_H = (
    argv for _, argv in output_identity._SEEDED_KINDS)

# csv of seeded `mc` runs. `mc verify`'s were recorded when its row sums
# began to be added in row order (0.10.0), with the same draws as before;
# `mc estimate-h`'s since the design-constant simulations stream their sums
# (0.8.0), which left `mc estimate-k`'s bits as they were.
# Any change to these bits must update them and bump the version, under the
# montecarlo module's determinism contract.
_GOLDEN = {
    _ESTIMATE_K: {
        3: "k,se,m,n,replicates,seed\r\n"
           "0.27077188373204863,0.000818555807644173,6,20,20000,3\r\n",
        2501: "k,se,m,n,replicates,seed\r\n"
              "0.27237603499898627,0.00082688193685403078,6,20,20000,2501\r\n",
    },
    _ESTIMATE_H: {
        3: "h,se,m,n,replicates,seed\r\n"
           "46.489242648286577,0.47941572014876549,19,24,20000,3\r\n",
        2501: "h,se,m,n,replicates,seed\r\n"
              "46.88555327424357,0.49321009461118426,19,24,20000,2501\r\n",
    },
    _VERIFY_DELTA: {
        3: "UNBIASED,bias,0.00084991195485815279,0,0.0061134054039922387,PASS\r\n"
           "UNBIASED,mse,0.29068525505580933,0.29188984077409186,0.014691746015383865,PASS\r\n"
           "MMSE,bias,-0.22528231094753751,-0.22594019363074594,0.0047321414032709831,PASS\r\n"
           "MMSE,mse,0.22492115943015217,0.22594019363074594,0.007617462020314044,PASS\r\n"
           "SHRINK_PQ,bias,-0.078421185087552636,-0.079079067770761027,0.0047321414032709839,PASS\r\n"
           "SHRINK_PQ,mse,0.18031892207482544,0.18114472149233962,0.0083448877084640466,PASS\r\n",
        2501: "UNBIASED,bias,-0.00025559721135152953,0,0.0061216068578144036,PASS\r\n"
              "UNBIASED,mse,0.29146505827602592,0.29188984077409186,0.014408936522187412,PASS\r\n"
              "MMSE,bias,-0.2261380411586732,-0.22594019363074594,0.0047384898190285154,PASS\r\n"
              "MMSE,mse,0.2257750807204798,0.22594019363074594,0.0074483342371828541,PASS\r\n"
              "SHRINK_PQ,bias,-0.079276915298688341,-0.079079067770761027,0.0047384898190285163,PASS\r\n"
              "SHRINK_PQ,mse,0.18092149636067351,0.18114472149233962,0.008174476590804048,PASS\r\n",
    },
    _VERIFY_PAIR: {
        3: "UNBIASED,bias,0.00084991195485815279,0,0.0061134054039922387,PASS\r\n"
           "UNBIASED,mse,0.29068525505580933,0.29188984077409186,0.014691746015383865,PASS\r\n"
           "MMSE,bias,-0.22528231094753751,-0.22594019363074594,0.0047321414032709831,PASS\r\n"
           "MMSE,mse,0.22492115943015217,0.22594019363074594,0.007617462020314044,PASS\r\n"
           "SHRINK_PQ,bias,-0.089718194769089918,-0.090376077452298295,0.0047321414032709839,PASS\r\n"
           "SHRINK_PQ,mse,0.18221839427691361,0.18305905790851082,0.0082829213878284277,PASS\r\n"
           "SHRINK_PQ_MODIFIED,bias,-0.031932796904520132,-0.032081850070606821,0.0029140116492319627,PASS\r\n"
           "SHRINK_PQ_MODIFIED,mse,0.067064422677053204,0.067279915211267971,0.0011498768107542838,PASS\r\n",
        2501: "UNBIASED,bias,-0.00025559721135152953,0,0.0061216068578144036,PASS\r\n"
              "UNBIASED,mse,0.29146505827602592,0.29188984077409186,0.014408936522187412,PASS\r\n"
              "MMSE,bias,-0.2261380411586732,-0.22594019363074594,0.0047384898190285154,PASS\r\n"
              "MMSE,mse,0.2257750807204798,0.22594019363074594,0.0074483342371828541,PASS\r\n"
              "SHRINK_PQ,bias,-0.090573924980225609,-0.090376077452298295,0.0047384898190285163,PASS\r\n"
              "SHRINK_PQ,mse,0.18284030294772161,0.18305905790851082,0.0081124519416841696,PASS\r\n"
              "SHRINK_PQ_MODIFIED,bias,-0.032044953465821979,-0.032081850070606821,0.0029241415753924072,PASS\r\n"
              "SHRINK_PQ_MODIFIED,mse,0.067531576454369746,0.067279915211267971,0.0011541130174837729,PASS\r\n",
    },
}
_VERIFY_HEADER = "estimator,metric,empirical,analytic,three_se,status\r\n"


@pytest.mark.parametrize("argv, seed", [(a, s) for a in _GOLDEN for s in _GOLDEN[a]])
def test_seeded_mc_outputs_are_pinned(capsys, argv, seed):
    # each run crosses chunk boundaries and ends on a partial chunk
    assert main([*argv, "--seed", str(seed), "--format", "csv"]) == 0
    want = _GOLDEN[argv][seed]
    if argv[1] == "verify":
        want = _VERIFY_HEADER + want
    assert capsys.readouterr() == (want, "")


def test_estimate_bain_constant_deterministic():
    a = estimate_bain_constant(design_plan(6, 20, 20_000, seed=9))
    b = estimate_bain_constant(design_plan(6, 20, 20_000, seed=9))
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
    # code paths, with a fresh result and written into `out`; the values
    # then agree to association-order roundoff
    estimate = truncated_estimator(H6, IV, CFG)
    for t, into in itertools.product(((H6 - 2.0) / IV.beta1, (H6 - 2.0) / IV.beta2),
                                     (False, True)):
        arr = np.array([t])
        got = (estimate(arr, out=np.empty(1)) if into else estimate(arr))[0]
        want = beta_shrink_truncated(scalar_ctx(t), IV, CFG)
        assert got not in (IV.beta1, IV.beta2)
        assert want not in (IV.beta1, IV.beta2)
        assert got == pytest.approx(want, rel=1e-14)


_TIES = [(H6 - 2.0) / IV.beta1, (H6 - 2.0) / IV.beta2]
_FACTORIES = {
    "unbiased": lambda: unbiased_estimator(H6),
    "mmse": lambda: mmse_estimator(H6),
    "shrink": lambda: shrink_estimator(H6, IV, CFG),
    "truncated": lambda: truncated_estimator(H6, IV, CFG),
}


@pytest.mark.parametrize("name", sorted(_FACTORIES))
@given(t=arrays(np.float64, st.integers(0, 40), elements=st.one_of(
    st.sampled_from([*_TIES, math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)))
@settings(max_examples=200, deadline=None)
def test_estimate_into_out_matches_allocating_bit_for_bit(name, t):
    # `out` is written in place and returned, with the bits of a fresh
    # result: the threshold ties, NaN and both infinities included
    estimate = _FACTORIES[name]()
    buf = np.full(t.shape, 7.0)
    with np.errstate(all="ignore"):
        want = estimate(t)
        got = estimate(t, out=buf)
    assert got is buf
    assert buf.view(np.int64).tolist() == want.view(np.int64).tolist()


# --- memory: each call allocates its working arrays once ---------------------


def _peak_bytes(call):
    """tracemalloc's peak over `call()`, after a warm-up call; numpy reports
    its array buffers to tracemalloc."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("reps", [200_000, 1_000_000])
def test_empirical_risks_hold_two_block_rows_at_any_replicate_count(reps):
    # the draws row and one work row of _BLOCK floats each; two chunk-sized
    # arrays (8 times as large) held over 1 MB, and the nested np.where and a
    # new array per arithmetic step about six chunks
    estimators = [_FACTORIES[name]() for name in sorted(_FACTORIES)]
    peak = _peak_bytes(lambda: empirical_risks(plan(reps, seed=5), estimators, h=H6))
    assert peak <= 3 * 8 * _BLOCK, peak


@pytest.mark.parametrize("reps", [200_000, 1_000_000])
@pytest.mark.parametrize("estimate, m, n", [
    (estimate_degrees_of_freedom, 19, 24),
    (estimate_bain_constant, 12, 20),
], ids=["h", "k"])
def test_design_constants_hold_a_few_chunk_rows_at_any_replicate_count(estimate, m, n, reps):
    # four rows, the kernel's draw, running-E and sums rows and the fold's
    # work row, at any m and replicate count: nothing per replicate
    peak = _peak_bytes(lambda: estimate(design_plan(m, n, reps, seed=6)))
    assert peak <= 5 * 8 * _BLOCK, peak


# --- design constants by simulation -----------------------------------------


def test_bain_constant_two_by_two():
    # for m = n = 2 the expected log-spacing is known: k = ln 2
    k, se = estimate_bain_constant(design_plan(2, 2, 400_000, seed=42))
    assert se > 0.0
    assert abs(k - math.log(2.0)) < 3.0 * se


@pytest.mark.parametrize("m, n", [(6, 20), (20, 20), (3, 24), (100, 200)])
def test_exact_bain_constant_matches_simulation(m, n):
    k, se = estimate_bain_constant(design_plan(m, n, 40_000, seed=11))
    assert abs(k - design_constants(m, n)[0]) < 4.0 * se, (k, se)


@pytest.mark.parametrize("m, n", [(6, 20), (20, 20), (7, 16), (100, 200)])
def test_exact_design_h_matches_simulation(m, n):
    # the simulated h stays as the oracle of the exact one
    h, se = estimate_degrees_of_freedom(design_plan(m, n, 40_000, seed=11))
    assert abs(h - design_constants(m, n)[1]) < 4.0 * se, (h, se)


def test_bain_constant_validation():
    # the plan that the estimator takes refuses what it cannot run
    with pytest.raises(ValueError):
        design_plan(1, 10, 1000, seed=0)
    with pytest.raises(ValueError):
        design_plan(5, 4, 1000, seed=0)
    with pytest.raises(ValueError):
        design_plan(5, 10, 1, seed=0)
    with pytest.raises(ValueError, match=r"n must not exceed .*, got n=10+, m=6"):
        design_plan(6, 10**400, 1000, seed=0)


def test_degrees_of_freedom_tracks_builtin_table():
    got = {}
    for m in (6, 8, 10, 12):
        h, se = estimate_degrees_of_freedom(design_plan(m, 20, 200_000, seed=7))
        got[m] = h
        builtin = BUILTIN_H[(20, m)]
        assert abs(h - builtin) < 4.0 * se, (m, h, builtin, se)
    # more failures observed -> more information -> larger h
    assert got[6] < got[8] < got[10] < got[12]


def _streamed_sums(m, n, replicates, seed):
    """Every replicate's S from the streamed kernel, chunks in order."""
    chunks = _sev_spacing_sums(design_plan(m, n, replicates, seed))
    return np.concatenate([s.copy() for s in chunks])


def _block_spacing_sums(m, n, replicates, seed):
    """The 0.7.1 kernel, kept as the reference: each chunk's m rows of
    spacings in one (m, count) block, summed to E_(i) down the rows, logged,
    and S = sum_{i<m} (v_(i) - v_(m)) added row by row."""
    sums = np.empty(replicates)
    remaining = np.arange(n, n - m, -1, dtype=float)[:, None]
    root = np.random.SeedSequence(seed)
    for start in range(0, replicates, _BLOCK):
        stop = min(start + _BLOCK, replicates)
        v = np.random.default_rng(root.spawn(1)[0]).standard_exponential((m, stop - start))
        v /= remaining
        for j in range(1, m):
            v[j] += v[j - 1]
        np.log(v, out=v)
        v[: m - 1] -= v[m - 1]
        np.sum(v[: m - 1], axis=0, out=sums[start:stop])
    return sums


# two whole chunks and a partial third
_STREAM_REPS = 2 * _BLOCK + 1234


@pytest.mark.parametrize("n, m", [(2, 2), (20, 6), (24, 24), (200, 100)])
def test_streamed_sums_match_the_block_kernel(n, m):
    # the same Z stream, drawn one row at a time: S moves only by the order
    # of its additions
    got = _streamed_sums(m, n, _STREAM_REPS, seed=2801)
    want = _block_spacing_sums(m, n, _STREAM_REPS, seed=2801)
    assert got.shape == want.shape == (_STREAM_REPS,)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _two_pass(s, n):
    """k, h and their SEs by the 0.7.1 formulas, on every replicate's S."""
    r = len(s)
    mean = float(np.mean(s))
    sd = float(np.std(s, ddof=1))
    c2 = (s / mean - 1.0) ** 2
    v = float(np.sum(c2)) / (r - 1)
    se_v = math.sqrt(max(0.0, float(np.mean(c2 * c2)) - v * v) / r)
    return (-mean / n, sd / (n * math.sqrt(r))), (2.0 / v, 2.0 * se_v / (v * v))


@pytest.mark.parametrize("n, m", [(2, 2), (20, 6), (24, 24), (200, 100)])
def test_folded_moments_match_two_passes(n, m):
    want_k, want_h = _two_pass(_streamed_sums(m, n, _STREAM_REPS, seed=2802), n)
    got_k = estimate_bain_constant(design_plan(m, n, _STREAM_REPS, seed=2802))
    got_h = estimate_degrees_of_freedom(design_plan(m, n, _STREAM_REPS, seed=2802))
    assert got_k == pytest.approx(want_k, rel=1e-12, abs=0.0)
    assert got_h == pytest.approx(want_h, rel=1e-12, abs=0.0)


def _sorted_spacing_sums(m, n, replicates, seed):
    """The 0.5.0 kernel, kept as the oracle: n SEV draws v = ln(-ln U) per
    replicate, sorted, and sum_{i<m} (v_(i) - v_(m)) over the m smallest."""
    v = np.random.default_rng(seed).random((replicates, n))
    np.log(v, out=v)
    np.negative(v, out=v)
    np.log(v, out=v)
    v.sort(axis=1)
    return np.sum(v[:, : m - 1] - v[:, m - 1 : m], axis=1)


@pytest.mark.parametrize("n, m", [(2, 2), (5, 5), (20, 2), (20, 6), (24, 20), (200, 100)])
def test_spacing_kernel_matches_sorted_draws_in_law(n, m):
    # the spacings kernel draws the m smallest of n SEV values directly; its
    # sums follow the law of the sorted-draw kernel's, and their mean is
    # -n k, with k Bain's exact constant
    reps = 20_000
    s = _streamed_sums(m, n, reps, seed=2401)
    assert s.shape == (reps,) and np.all(np.isfinite(s))
    assert ks_2samp(s, _sorted_spacing_sums(m, n, reps, seed=2402)).pvalue > 1e-3
    se = float(np.std(s, ddof=1)) / math.sqrt(reps)
    assert abs(float(np.mean(s)) + n * design_constants(m, n)[0]) < 4.0 * se

