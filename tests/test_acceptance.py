"""Acceptance gate: nine end-to-end checks, one verdict line each.

Each test computes its criterion from scratch, records a single
"criterion N: PASS/FAIL" line via the criterion_report fixture (repeated in
the terminal summary), and asserts with that line as the message. Runtime
budgets are part of the criterion where stated.

Criterion 4 fails by design: about a third of the truncated-estimator source
table disagrees with recomputation beyond the 1.5% tolerance, far below the
required 95% agreement rate. The audit classifies every failing cell; the
test reports the measured rate instead of loosening the tolerance.
"""

import math
import random
import time

import numpy as np
import pytest
from scipy.integrate import quad

from weibull_shrink import cli, risk, tables
from weibull_shrink import montecarlo as mc
from weibull_shrink.estimators import estimate_departure, suggest_q
from weibull_shrink.model import (
    GuessInterval,
    PivotalContext,
    ShrinkageConfig,
    WeibullParams,
)
from weibull_shrink.reference_data import MC_POINTS, MMSE_ARB_PRINTED
from weibull_shrink.specfun import reg_lower_inc_gamma

H = dict(tables.DEFAULT_DESIGNS)

# simulation design shared by criteria 6 and 7
MC_REPS = 1_000_000
MC_SEED = 7


def _find(audits, m, p, q, d1, d2):
    for a in audits:
        if a.m == m and a.p == p and a.q == q and a.delta1 == d1 and a.delta2 == d2:
            return a
    raise LookupError(f"no audited cell m={m} p={p} q={q} rows ({d1}, {d2})")


def test_criterion_1_table_31_reproduction(criterion_report):
    start = time.perf_counter()
    audits = tables.audit_table_31()
    summary = tables.summarize_audit(audits)
    problems = []
    if summary.total != 432:
        problems.append(f"expected 432 cells, audited {summary.total}")
    if summary.disagreements != 0:
        problems.append(f"{summary.disagreements} non-artifact cells off tolerance")

    # spot anchors; the two qd=1 rows reproduce only under the printed weight
    # and carry an exact ARB of zero
    for m, p, q, d1, d2, pre, arb, status in (
        (6, -2.0, 0.25, 0.1, 0.2, 35.33, 0.7941, tables.PASS),
        (6, -2.0, 0.25, 3.8, 4.2, 2528.52, 0.0, tables.ARTIFACT),
        (6, -1.0, 0.25, 0.4, 1.6, 110.98, 0.1696, tables.PASS),
        (12, 1.0, 0.5, 1.6, 2.4, 119.12, 0.0, tables.ARTIFACT),
    ):
        a = _find(audits, m, p, q, d1, d2)
        if a.printed_pre != pre or a.printed_arb != arb:
            problems.append(f"anchor ({p}, {q}, {m}) printed values changed")
        if a.status != status:
            problems.append(f"anchor ({p}, {q}, {m}) status {a.status}")
        if status == tables.PASS and (
            a.rel_err_pre > tables.PRE_RTOL_31 or a.abs_err_arb > tables.ARB_ATOL_31
        ):
            problems.append(f"anchor ({p}, {q}, {m}) off tolerance")
        if arb == 0.0 and a.computed_arb != 0.0:
            problems.append(f"anchor ({p}, {q}, {m}) ARB {a.computed_arb} != 0")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"{elapsed:.2f}s over 1s budget")
    ok = not problems
    line = (
        f"criterion 1: {'PASS' if ok else 'FAIL'} - "
        f"{summary.passed}/{summary.unambiguous} non-artifact cells within 1%/0.005, "
        f"{summary.artifacts}/{summary.total} printed-weight artifacts excluded "
        f"({100.0 * summary.artifacts / summary.total:.1f}%), 4 anchors checked, "
        f"{elapsed:.2f}s" + ("" if ok else f"; {'; '.join(problems)}")
    )
    criterion_report(line)
    assert ok, line


def test_criterion_2_dominance_ranges(criterion_report):
    start = time.perf_counter()
    audits = tables.audit_ranges_31()
    n_pass = sum(a.status == tables.PASS for a in audits)
    n_artifact = sum(a.status == tables.ARTIFACT for a in audits)
    n_unprinted = sum(a.status == tables.UNVERIFIABLE for a in audits)
    n_inconsistent = sum(a.status == tables.INCONSISTENT for a in audits)
    n_disagree = sum(a.status == tables.DISAGREE for a in audits)

    ranges = risk.dominance_ranges(H[6], -2.0, 0.25)
    mse_r, best_r = ranges["mse"], ranges["best"]
    worst_anchor = max(
        abs(mse_r.lo - 1.74),
        abs(mse_r.hi - 6.26),
        abs(best_r.lo - 2.90),
        abs(best_r.hi - 5.09),
    )
    elapsed = time.perf_counter() - start

    ok = n_disagree == 0 and worst_anchor <= 0.01 and elapsed < 0.1
    line = (
        f"criterion 2: {'PASS' if ok else 'FAIL'} - "
        f"{n_pass} range entries verified ({n_artifact} printed-weight artifacts, "
        f"{n_unprinted} unprinted, {n_inconsistent} inconsistent, "
        f"{n_disagree} disagreements), anchor endpoints within "
        f"{worst_anchor:.4f} <= 0.01, {elapsed:.3f}s"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_3_mmse_footer(criterion_report):
    got = {m: round(risk.arb_mmse(H[m]), 4) for m in MMSE_ARB_PRINTED}
    ok = got == MMSE_ARB_PRINTED
    line = (
        f"criterion 3: {'PASS' if ok else 'FAIL'} - MMSE ARB footer "
        + "/".join(f"{got[m]:.4f}" for m in (6, 8, 10, 12))
        + " matches printed values at 4 decimals"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_4_table_51_reproduction(criterion_report):
    start = time.perf_counter()
    audits = tables.audit_table_51()
    summary = tables.summarize_audit(audits)
    report = tables.format_diff_report(audits)
    anchor_rel = [
        _find(audits, m, p, q, d1, d2).rel_err_pre
        for q, p, m, d1, d2 in (
            (0.25, -1.0, 6, 0.2, 0.3),
            (0.25, -1.0, 6, 0.8, 1.2),
            (0.75, 2.0, 12, 1.0, 1.5),
        )
    ]
    elapsed = time.perf_counter() - start

    ok = (
        summary.total == 336
        and summary.pass_rate >= 95.0
        and max(anchor_rel) <= tables.PRE_RTOL_51
        and "summary:" in report
        and elapsed < 5.0
    )
    line = (
        f"criterion 4: {'PASS' if ok else 'FAIL'} - "
        f"{summary.passed}/{summary.unambiguous} unambiguous cells within 1.5% "
        f"({summary.pass_rate:.1f}%, required 95%); anchors rel "
        + "/".join(f"{r:.2%}" for r in anchor_rel)
        + f"; {summary.artifacts} printed-weight artifacts; {elapsed:.2f}s"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_5_incomplete_gamma_oracle(criterion_report):
    rng = random.Random(501)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        omega = rng.uniform(0.5, 20.0)
        eta = rng.uniform(1e-12, 60.0)
        norm = math.exp(-math.lgamma(omega))
        # u^(omega-1) folded into the quadrature weight so the endpoint
        # singularity for omega < 1 is handled exactly
        val, _err = quad(
            lambda u: norm * math.exp(-u),
            0.0,
            eta,
            weight="alg",
            wvar=(omega - 1.0, 0.0),
            limit=200,
        )
        worst = max(worst, abs(reg_lower_inc_gamma(eta, omega) - val))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    line = (
        f"criterion 5: {'PASS' if ok else 'FAIL'} - incomplete gamma vs adaptive "
        f"quadrature: worst {worst:.1e} <= 1e-10 on 1000 points, {elapsed:.2f}s"
    )
    criterion_report(line)
    assert ok, line


def _analytic_risk(estimator_id, h, p, q, d1, d2):
    mid = (d1 + d2) / 2.0
    if estimator_id == "UNBIASED":
        return 0.0, risk.rmse_unbiased(h)
    if estimator_id == "MMSE":
        return -2.0 / (h - 2.0), risk.rmse_mmse(h)
    if estimator_id == "SHRINK_PQ":
        return risk.bias_shrink(h, p, q, mid), risk.rmse_shrink(h, p, q, mid)
    return risk.bias_modified(h, p, q, d1, d2), risk.mse_modified(h, p, q, d1, d2)


def test_criterion_6_simulation_matches_analytic_risk(criterion_report):
    beta = 1.0
    start = time.perf_counter()
    worst_z = 0.0
    n_checks = 0
    problems = []
    for m, p, q, d1, d2 in MC_POINTS:
        h = H[m]
        cfg = ShrinkageConfig(p=p, q=q)
        interval = GuessInterval(beta1=d1 * beta, beta2=d2 * beta)
        plan = mc.SimulationPlan(
            replicates=MC_REPS,
            seed=MC_SEED,
            params=WeibullParams(alpha=1.0, beta=beta),
            n=20,
            m=m,
        )
        estimators = {
            "UNBIASED": mc.unbiased_estimator(h),
            "MMSE": mc.mmse_estimator(h),
            "SHRINK_PQ": mc.shrink_estimator(h, interval, cfg),
        }
        if d2 > d1:
            estimators["SHRINK_PQ_MODIFIED"] = mc.truncated_estimator(h, interval, cfg)
        for estimator_id, estimator in estimators.items():
            emp = mc.empirical_risk(plan, estimator, h=h)
            bias_ref, mse_ref = _analytic_risk(estimator_id, h, p, q, d1, d2)
            z_bias = abs(emp.bias - bias_ref) / (emp.se_mean / beta)
            z_mse = abs(emp.mse - mse_ref) / emp.se_mse
            worst_z = max(worst_z, z_bias, z_mse)
            n_checks += 2
            if z_bias > 3.0 or z_mse > 3.0:
                problems.append(
                    f"{estimator_id} at m={m} p={p:g} q={q:g} ({d1:g}, {d2:g}): "
                    f"z_bias={z_bias:.2f} z_mse={z_mse:.2f}"
                )

    # the documented verify invocation must come back clean too
    named = cli.main(
        "mc verify --h 10.8519 --p -2 --q 0.25 --delta 0.15 "
        f"--reps {MC_REPS} --seed {MC_SEED}".split()
    )
    if named != 0:
        problems.append(f"named verify run exited {named}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"{elapsed:.1f}s over 60s budget")
    ok = not problems
    line = (
        f"criterion 6: {'PASS' if ok else 'FAIL'} - {n_checks} bias/MSE checks at "
        f"{len(MC_POINTS)} points within 3 SE (worst {worst_z:.2f}), named verify "
        f"run exit {named}, {elapsed:.1f}s"
        + ("" if ok else f"; {'; '.join(problems)}")
    )
    criterion_report(line)
    assert ok, line


def test_criterion_7_unbiasedness_identities(criterion_report):
    beta = 2.5
    h = H[6]
    plan = mc.SimulationPlan(
        replicates=MC_REPS,
        seed=MC_SEED,
        params=WeibullParams(alpha=1.0, beta=beta),
        n=20,
        m=6,
    )
    emp = mc.empirical_risk(plan, mc.unbiased_estimator(h), h=h)
    z_unbiased = abs(emp.mean - beta) / emp.se_mean

    # E[delta_hat] = midpoint/beta, since E[t] = h/beta
    interval = GuessInterval(beta1=1.0, beta2=3.0)
    target = interval.midpoint / beta
    per_chunk = MC_REPS // 16
    sums, sums2 = [], []
    for seq in np.random.SeedSequence(MC_SEED + 1).spawn(16):
        rng = np.random.default_rng(seq)
        t = mc.sample_t(h, beta, rng, size=per_chunk)
        dh = t * (interval.beta1 + interval.beta2) / (2.0 * h)
        sums.append(float(np.sum(dh)))
        sums2.append(float(np.sum(dh * dh)))
    total = 16 * per_chunk
    mean_dh = math.fsum(sums) / total
    se_dh = math.sqrt((math.fsum(sums2) / total - mean_dh**2) / total)
    z_departure = abs(mean_dh - target) / se_dh

    rng = random.Random(701)
    worst = 0.0
    for _ in range(1000):
        h_f = rng.uniform(4.5, 45.0)
        ctx = PivotalContext(h=h_f, t=rng.uniform(1e-3, 4.0 * h_f))
        b1 = rng.uniform(0.05, 5.0)
        iv = GuessInterval(beta1=b1, beta2=b1 * rng.uniform(1.0, 4.0))
        worst = max(worst, abs(estimate_departure(ctx, iv) * suggest_q(ctx, iv) - 1.0))

    ok = z_unbiased <= 3.0 and z_departure <= 3.0 and worst <= 1e-12
    line = (
        f"criterion 7: {'PASS' if ok else 'FAIL'} - at 1e6 replicates "
        f"E[shape estimate] z={z_unbiased:.2f}, E[departure estimate] "
        f"z={z_departure:.2f}; worst |q_select * delta_hat - 1| = {worst:.1e} <= 1e-12"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_8_symmetry_and_argmax(criterion_report):
    rng = random.Random(801)
    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(-2.4, -0.6) if rng.random() < 0.5 else rng.uniform(0.05, 3.0)
        h = rng.uniform(10.4, 40.0)
        q = rng.uniform(0.05, 1.0)
        s = rng.uniform(1e-9, 0.999 / q)
        worst = max(
            worst,
            abs(
                risk.rmse_shrink(h, p, q, 1.0 / q - s)
                - risk.rmse_shrink(h, p, q, 1.0 / q + s)
            ),
        )

    blocks: dict = {}
    for cell in tables.table_31(tables.GridSpec.default_31()):
        blocks.setdefault((cell.q, cell.p, cell.m), []).append(cell)
    bad_blocks = []
    for key, cells in blocks.items():
        q = key[0]
        nearest = min(range(len(cells)), key=lambda i: abs(cells[i].delta - 1.0 / q))
        argmax = max(range(len(cells)), key=lambda i: cells[i].pre)
        if argmax != nearest:
            bad_blocks.append(key)

    ok = worst <= 1e-12 and len(blocks) == 48 and not bad_blocks
    line = (
        f"criterion 8: {'PASS' if ok else 'FAIL'} - rmse symmetric about 1/q, "
        f"worst {worst:.1e} <= 1e-12 on 1000 points; PRE argmax at nearest-1/q "
        f"row in {len(blocks) - len(bad_blocks)}/{len(blocks)} blocks"
    )
    criterion_report(line)
    assert ok, line


def test_criterion_9_truncation_removed_limit(criterion_report):
    d1, d2 = 1e-8, 1e8
    mid = (d1 + d2) / 2.0
    worst_abs = 0.0  # q rescaled so q*mid is O(1) and absolute 1e-6 is meaningful
    worst_rel = 0.0  # table q values; risks are huge, so compare relatively
    for m in (6, 8, 10, 12):
        h = H[m]
        for p in (-2.0, -1.0, 1.0, 2.0):
            for pull in (0.5, 1.0, 2.0):
                q = pull / mid
                worst_abs = max(
                    worst_abs,
                    abs(risk.bias_modified(h, p, q, d1, d2) - risk.bias_shrink(h, p, q, mid)),
                    abs(risk.mse_modified(h, p, q, d1, d2) - risk.rmse_shrink(h, p, q, mid)),
                )
            for q in (0.25, 0.5, 0.75):
                b_pl = risk.bias_shrink(h, p, q, mid)
                m_pl = risk.rmse_shrink(h, p, q, mid)
                worst_rel = max(
                    worst_rel,
                    abs(risk.bias_modified(h, p, q, d1, d2) - b_pl) / abs(b_pl),
                    abs(risk.mse_modified(h, p, q, d1, d2) - m_pl) / m_pl,
                )
    ok = worst_abs <= 1e-6 and worst_rel <= 1e-6
    line = (
        f"criterion 9: {'PASS' if ok else 'FAIL'} - truncation-removed interval "
        f"matches plain risk: abs {worst_abs:.1e} (rescaled q), rel {worst_rel:.1e} "
        f"(table q), both <= 1e-6"
    )
    criterion_report(line)
    assert ok, line
