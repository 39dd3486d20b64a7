"""The benchmark's three workloads.

Each workload turns (seed, op index) into the inputs of one op, runs the op
(the only timed part), keeps a small record of its outputs, and checks those
records after the timed interval. The inputs never depend on package code, so
two commits see the same op sequence.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# the built-in n = 20 designs (m, h); the benchmark keeps its own copy so that
# its inputs do not move when the package's constants do
DESIGNS = ((6, 10.8519), (8, 15.6740), (10, 20.8442), (12, 26.4026))


def op_rng(workload: str, seed: int, i) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def weight(p: float, h: float) -> float:
    """w(p) = ((h-2)/2)^p Gamma(h/2+p) / Gamma(h/2+2p), computed here, not by the package."""
    return math.exp(
        p * math.log((h - 2.0) / 2.0) + math.lgamma(h / 2.0 + p) - math.lgamma(h / 2.0 + 2.0 * p)
    )


def draw_p(rng: random.Random, hs) -> float:
    """A shrinkage exponent admissible, with 0 < w < 1, at every h given."""
    while True:
        p = rng.uniform(0.3, 3.0) if rng.random() < 0.5 else -rng.uniform(0.6, 2.5)
        if all(h / 2.0 + 2.0 * p > 0.0 and 0.0 < weight(p, h) < 1.0 - 1e-9 for h in hs):
            return p


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# independent recomputation of table cells (scipy is imported only here, and
# only after the timed interval)


def oracle_pre_arb_31(h, p, q, delta):
    from scipy.special import gammaln

    w = math.exp(p * math.log((h - 2.0) / 2.0) + gammaln(h / 2.0 + p) - gammaln(h / 2.0 + 2.0 * p))
    denom = (h - 2.0) * ((q * delta - 1.0) ** 2 * (1.0 - w) ** 2 * (h - 4.0) + 2.0 * w * w)
    return 200.0 * (h - 4.0) / denom, abs(q * delta - 1.0) * (1.0 - w)


def oracle_pre_51(h, p, q, d1, d2):
    """The table 5.1 efficiency and the relative error it may carry (see GAMMA_ATOL)."""
    from scipy.special import gammainc, gammaln

    w = math.exp(p * math.log((h - 2.0) / 2.0) + gammaln(h / 2.0 + p) - gammaln(h / 2.0 + 2.0 * p))
    pull = q * 0.5 * (d1 + d2) * (1.0 - w)
    e1 = (h / 2.0 - 1.0) / d1
    e2 = (h / 2.0 - 1.0) / d2
    full = gammainc(h / 2.0, e1) - gammainc(h / 2.0, e2)
    down = gammainc(h / 2.0 - 1.0, e1) - gammainc(h / 2.0 - 1.0, e2)
    dd = gammainc(h / 2.0 - 2.0, e1) - gammainc(h / 2.0 - 2.0, e2)
    mse = (
        (d1 - 1.0) ** 2
        - d1 * (d1 - 2.0) * gammainc(h / 2.0, e1)
        + d2 * (d2 - 2.0) * gammainc(h / 2.0, e2)
        + w * w * ((h - 2.0) / (h - 4.0)) * dd
        + pull * (pull - 2.0) * full
        + 2.0 * w * (pull - 1.0) * down
    )
    # the sum of the absolute coefficients of the six incomplete gamma values
    gamma_weight = (
        abs(d1 * (d1 - 2.0)) + abs(d2 * (d2 - 2.0))
        + 2.0 * w * w * ((h - 2.0) / (h - 4.0))
        + 2.0 * abs(pull * (pull - 2.0)) + 4.0 * abs(w * (pull - 1.0))
    )
    return 100.0 * (2.0 / (h - 2.0)) / mse, GAMMA_ATOL * gamma_weight / mse


# relative agreement demanded of a cell against the oracle
CELL_RTOL = 1e-7
# Absolute error allowed in each incomplete gamma value of a table 5.1 cell.
# The package's P(omega, eta) is off by up to 5e-13 at omega near 1000 (its
# error grows with omega), and the truncated-estimator MSE is a sum of O(1)
# multiples of six such values. For a narrow interval around 1 that sum
# cancels to about 4e-6, so the cell's relative error reaches 2e-7 (seed
# 550129034, op 302). The oracle turns this allowance into a relative one.
GAMMA_ATOL = 1e-11


def cell_mismatch(table: str, c: dict) -> str | None:
    """None when the cell agrees with the oracle, else a description."""
    if table == "31":
        pre, arb = oracle_pre_arb_31(c["h"], c["p"], c["q"], c["delta"])
        slack = 0.0
        if abs(c["arb"] - arb) > CELL_RTOL * abs(arb) + 1e-13:
            return f"table 31 arb {c['arb']!r} != oracle {arb!r} at {c}"
    else:
        pre, slack = oracle_pre_51(c["h"], c["p"], c["q"], c["delta1"], c["delta2"])
    if not abs(c["pre"] - pre) <= (CELL_RTOL + slack) * abs(pre):
        return f"table {table} pre {c['pre']!r} != oracle {pre!r} at {c}"
    return None


def cell_dict(cell) -> dict:
    return {
        "h": cell.h, "p": cell.p, "q": cell.q, "delta1": cell.delta1,
        "delta2": cell.delta2, "delta": cell.delta, "pre": cell.pre, "arb": cell.arb,
    }


# ---------------------------------------------------------------------------
# grid: closed forms, tables, audits and serialization; no numpy


# audit status counts of the embedded printed tables at the time the benchmark
# was written. Table 5.1 passes 218 of 324 unambiguous cells (67.3%), which is
# why acceptance criterion 4 fails; the benchmark pins that, it does not fix it.
EXPECTED_AUDITS = {
    "31": {"pass": 358, "printed-weight-artifact": 74},
    "51": {"pass": 218, "printed-weight-artifact": 12, "source-disagreement": 106},
    "ranges": {"pass": 111, "printed-weight-artifact": 14, "unverifiable": 15, "inconsistent": 4},
}
STOCK_CELLS = (432, 336)
FRESH_SHAPE = (4, 3, 2, 4)  # designs, p values, q values, interval rows


@dataclass
class GridRecord:
    i: int
    digest: str  # every output of the op: stock texts, audits, fresh cells
    stock_digest: str
    counts: tuple
    audits: dict
    samples: list
    stock: tuple | None = None  # serialized texts and cells, first op only


class Grid:
    """One op: both stock tables, all three audits, their serialization, and a
    freshly seeded grid through table_31 and table_51."""

    name = "grid"
    throughput_name = "cells_per_s"
    work_unit = "cells"
    window = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.tables = importlib.import_module("weibull_shrink.tables")
        self._kept_stock = False

    def op_input(self, i):
        rng = op_rng(self.name, self.seed, i)
        designs = [
            rng.choice(DESIGNS),
            (101, rng.uniform(30.0, 80.0)),
            (102, rng.uniform(200.0, 500.0)),
            (103, rng.uniform(1800.0, 2000.0)),  # omega = h/2 near 1000
        ]
        hs = [h for _, h in designs]
        ps = [draw_p(rng, hs) for _ in range(FRESH_SHAPE[1])]
        qs = [rng.uniform(0.2, 1.0) for _ in range(FRESH_SHAPE[2])]
        rows = []
        for _ in range(FRESH_SHAPE[3]):
            d1 = rng.uniform(0.5, 1.5)  # eta = (h/2 - 1)/delta stays near omega
            rows.append((d1, d1 * rng.uniform(1.0, 1.5)))
        return designs, ps, qs, rows

    def run(self, inp):
        t = self.tables
        c31 = t.table_31(t.GridSpec.default_31())
        c51 = t.table_51(t.GridSpec.default_51())
        audits = (t.audit_table_31(), t.audit_table_51(), t.audit_ranges_31())
        texts = tuple(
            fmt(cells)
            for cells in (c31, c51)
            for fmt in (t.cells_to_csv, t.cells_to_json, t.cells_to_text)
        )
        spec = t.GridSpec(*inp)
        return c31, c51, audits, texts, t.table_31(spec), t.table_51(spec)

    def work(self, inp, out) -> int:
        c31, c51, _, _, f31, f51 = out
        return len(c31) + len(c51) + len(f31) + len(f51)

    def record(self, i, inp, out) -> GridRecord:
        c31, c51, audits, texts, f31, f51 = out
        rng = op_rng("grid-check", self.seed, i)
        samples = [("31", cell_dict(c)) for c in rng.sample(f31, 4)]
        samples += [("51", cell_dict(c)) for c in rng.sample(f51, 4)]
        stock_digest = digest(*texts)
        audit_counts = {
            key: dict(Counter(a.status for a in group))
            for key, group in zip(("31", "51", "ranges"), audits)
        }
        fresh = repr([(c.pre, c.arb, c.mse_range, c.best) for c in f31 + f51])
        rec = GridRecord(
            i=i,
            digest=digest(stock_digest, repr(audit_counts), fresh),
            stock_digest=stock_digest,
            counts=(len(c31), len(c51), len(f31), len(f51)),
            audits=audit_counts,
            samples=samples,
        )
        if not self._kept_stock:
            rec.stock = (texts, [cell_dict(c) for c in c31], [cell_dict(c) for c in c51])
            self._kept_stock = True
        return rec

    def check(self, records) -> dict:
        """Op index -> reason, for every op whose outputs are wrong."""
        failures = {}
        fresh = math.prod(FRESH_SHAPE)
        for rec in records:
            reasons = []
            if rec.stock_digest != records[0].stock_digest:
                reasons.append("stock serialization differs from the first op")
            if rec.counts != (*STOCK_CELLS, fresh, fresh):
                reasons.append(f"cell counts {rec.counts}")
            if rec.audits != EXPECTED_AUDITS:
                reasons.append(f"audit counts {rec.audits} != {EXPECTED_AUDITS}")
            reasons += [r for r in (cell_mismatch(t, c) for t, c in rec.samples) if r]
            if rec.stock is not None:
                reasons += self._check_stock(rec)
            if reasons:
                failures[rec.i] = "; ".join(reasons)
        return failures

    def _check_stock(self, rec: GridRecord) -> list:
        texts, c31, c51 = rec.stock
        reasons = []
        rng = op_rng("grid-stock", self.seed, 0)
        for table, cells in (("31", c31), ("51", c51)):
            reasons += [r for r in (cell_mismatch(table, c) for c in rng.sample(cells, 16)) if r]
        for (csv_text, json_text, text), cells in ((texts[0:3], c31), (texts[3:6], c51)):
            parsed = json.loads(json_text)
            if [c["pre"] for c in parsed] != [c["pre"] for c in cells]:
                reasons.append("json pre column does not round-trip")
            rows = csv_text.split("\r\n")[1:-1]
            if [float(r.split(",")[7]) for r in rows] != [c["pre"] for c in cells]:
                reasons.append("csv pre column does not round-trip")
            if text.count("\n") != len(cells) + 1:
                reasons.append("text table has the wrong number of lines")
        return reasons


# ---------------------------------------------------------------------------
# simulate: one `mc verify` point per op


# (m, p, q, delta1, delta2): the twelve reference points of the acceptance
# suite and scripts/verify_risks.py, copied so the benchmark's inputs stay fixed
REFERENCE_POINTS = (
    (6, -2.0, 0.25, 0.15, 0.15),
    (8, -1.0, 0.25, 1.0, 1.0),
    (10, 1.0, 0.5, 2.0, 2.0),
    (12, 2.0, 0.75, 2.5, 2.5),
    (6, 1.0, 0.5, 4.0, 4.0),
    (8, 2.0, 0.25, 0.5, 0.5),
    (6, -2.0, 0.25, 0.2, 0.3),
    (8, -1.0, 0.5, 0.8, 1.2),
    (10, 1.0, 0.5, 1.0, 1.5),
    (12, 2.0, 0.75, 1.0, 1.5),
    (6, -1.0, 0.25, 0.4, 0.6),
    (10, -2.0, 0.75, 1.5, 2.0),
)
REPLICATES = 400_000
SE_LIMIT = 5.0
# When a guess interval lies far from the truth, the truncated estimator is
# clamped on every simulated replicate, so its sample SE is exactly 0, while
# the closed form still counts the unclamped region of probability ~1e-8. An
# event rarer than 3/R is likely unseen in R replicates (the rule of three),
# so each comparison also allows 3/R times the size of the compared value.
UNSEEN = 3.0


@dataclass
class SimRecord:
    i: int
    digest: str
    rows: tuple  # (estimator, bias, mse, se of bias, se of mse, closed-form bias, closed-form mse)


class Simulate:
    """One op: empirical bias and MSE of every applicable estimator at one
    point, beside the closed forms, as `mc verify` computes them."""

    name = "simulate"
    throughput_name = "replicates_per_s"
    work_unit = "estimator-replicates"
    window = 24  # a reference point, then a random one, twelve times

    def __init__(self, seed: int, replicates: int = REPLICATES):
        self.seed = seed
        self.replicates = replicates
        self.mc = importlib.import_module("weibull_shrink.montecarlo")
        self.risk = importlib.import_module("weibull_shrink.risk")
        self.model = importlib.import_module("weibull_shrink.model")

    def op_input(self, i):
        rng = op_rng(self.name, self.seed, i)
        mc_seed = rng.getrandbits(32)
        if i % 2 == 0:
            m, p, q, d1, d2 = REFERENCE_POINTS[(i // 2) % len(REFERENCE_POINTS)]
        else:
            m, h = rng.choice(DESIGNS)
            p = draw_p(rng, [h])
            q = rng.uniform(0.2, 1.0)
            d1 = rng.uniform(0.2, 3.0)
            d2 = d1 * rng.uniform(1.05, 1.6)
        return m, dict(DESIGNS)[m], p, q, d1, d2, mc_seed

    def run(self, inp):
        m, h, p, q, d1, d2, mc_seed = inp
        mc, risk, model = self.mc, self.risk, self.model
        cfg = model.ShrinkageConfig(p=p, q=q)
        plan = mc.SimulationPlan(
            replicates=self.replicates, seed=mc_seed,
            params=model.WeibullParams(alpha=1.0, beta=1.0), n=20, m=m,
        )
        delta = 0.5 * (d1 + d2)
        mid = model.GuessInterval(beta1=delta, beta2=delta)
        checks = [
            ("UNBIASED", mc.unbiased_estimator(h), 0.0, risk.rmse_unbiased(h)),
            ("MMSE", mc.mmse_estimator(h), -risk.arb_mmse(h), risk.rmse_mmse(h)),
            ("SHRINK_PQ", mc.shrink_estimator(h, mid, cfg),
             risk.bias_shrink(h, p, q, delta), risk.rmse_shrink(h, p, q, delta)),
        ]
        if d1 < d2:
            pair = model.GuessInterval(beta1=d1, beta2=d2)
            checks.append(
                ("SHRINK_PQ_MODIFIED", mc.truncated_estimator(h, pair, cfg),
                 risk.bias_modified(h, p, q, d1, d2), risk.mse_modified(h, p, q, d1, d2))
            )
        return tuple(
            (name, mc.empirical_risk(plan, est, h=h), bias, mse)
            for name, est, bias, mse in checks
        )

    def work(self, inp, out) -> int:
        return self.replicates * len(out)

    def record(self, i, inp, out) -> SimRecord:
        rows = tuple(
            (name, e.bias, e.mse, e.se_mean, e.se_mse, bias, mse) for name, e, bias, mse in out
        )
        return SimRecord(i, digest(repr(rows)), rows)

    def check(self, records) -> dict:
        failures = {}
        unseen = UNSEEN / self.replicates
        for rec in records:
            reasons = [
                f"{name} {what} off by more than {SE_LIMIT:g} SE"
                for name, bias, mse, se_b, se_m, a_bias, a_mse in rec.rows
                for what, emp, ana, se in (("bias", bias, a_bias, se_b), ("mse", mse, a_mse, se_m))
                if not abs(emp - ana) <= SE_LIMIT * se + unseen * max(1.0, abs(ana))
            ]
            if reasons:
                failures[rec.i] = "; ".join(reasons)
        return failures


# ---------------------------------------------------------------------------
# cli: one fresh `python -m weibull_shrink.cli` process per op

FORMATS = ("text", "csv", "json")
CLI_TIMEOUT_S = 120.0
CLI_VERIFY_REPS = 100_000  # reduced from the default 10^6 so one op stays near cold start
CLI_CALIBRATE_REPS = 50_000

# kind -> subcommand group reported per layer
KINDS = {
    "risk": "risk",
    "risk_modified": "risk",
    "dominance": "dominance",
    "table31": "table",
    "table31_diff": "table",
    "table51": "table",
    "table51_diff": "table",
    "estimate_t": "estimate",
    "estimate_data": "estimate",
    "mc_verify": "mc_verify",
    "mc_estimate_k": "mc_estimate_k",
    "mc_estimate_h": "mc_estimate_h",
}
GROUPS = tuple(dict.fromkeys(KINDS.values()))
# exit codes an op may end with; `mc verify` exits 1 when a 3-SE check misses
EXPECTED_CODES = {"mc_verify": (0, 1)}


def _r(x: float) -> str:
    return repr(float(x))


@dataclass
class CliRecord:
    i: int
    kind: str
    argv: tuple
    stdout_digest: str
    code: int
    stderr: str

    @property
    def digest(self) -> str:
        return f"{self.code}:{self.stdout_digest}"


class Cli:
    """One op: one CLI invocation in a fresh interpreter, drawn from a seeded
    mix in which every round runs each kind once, in a seeded order."""

    name = "cli"
    throughput_name = "invocations_per_s"
    work_unit = "invocations"
    window = len(KINDS)

    def __init__(self, seed: int):
        self.seed = seed
        self.cli = importlib.import_module("weibull_shrink.cli")
        self.data_dir = OUT / "cli-data"
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.env = subprocess_env()
        self._inprocess: dict = {}

    def kind_of(self, i) -> str:
        order = sorted(KINDS)
        op_rng("cli-round", self.seed, i // len(order)).shuffle(order)
        return order[i % len(order)]

    def op_input(self, i):
        kind = self.kind_of(i) if i >= 0 else "risk"
        rng = op_rng(self.name, self.seed, i)
        fmt = rng.choice(FORMATS)
        m, h = rng.choice(DESIGNS)
        p = draw_p(rng, [h])
        q = rng.uniform(0.2, 1.0)
        d1 = rng.uniform(0.1, 3.0)
        d2 = d1 * rng.uniform(1.0, 1.8)
        seed = str(rng.getrandbits(31))
        shape = ["--h", _r(h), "--p", _r(p), "--q", _r(q)]
        if kind == "risk":
            argv = ["risk", *shape, "--delta", _r(rng.uniform(0.1, 4.0))]
        elif kind == "risk_modified":
            argv = ["risk", *shape, "--delta1", _r(d1), "--delta2", _r(d2), "--modified"]
        elif kind == "dominance":
            argv = ["dominance", *shape]
        elif kind.startswith("table"):
            argv = ["table", kind[5:7]] + (["--diff"] if kind.endswith("diff") else [])
        elif kind == "estimate_t":
            b1 = rng.uniform(0.5, 2.0)
            argv = ["estimate", "--t", _r(rng.uniform(2.0, 40.0)), "--h", _r(h),
                    "--p", _r(p), "--q", _r(q), "--beta1", _r(b1),
                    "--beta2", _r(b1 * rng.uniform(1.0, 3.0))]
        elif kind == "estimate_data":
            alpha, beta = rng.uniform(0.5, 5.0), rng.uniform(0.8, 3.0)
            times = sorted(
                alpha * (-math.log(1.0 - rng.random())) ** (1.0 / beta) for _ in range(20)
            )
            path = self.data_dir / f"op{i}.dat"
            path.write_text(
                f"# {m} of 20 Weibull(alpha={alpha!r}, beta={beta!r}) lifetimes\n"
                + "".join(f"{x!r}\n" for x in times[:m])
            )
            b1 = beta * rng.uniform(0.5, 1.0)
            argv = ["estimate", "--data", str(path), "--n", "20", "--p", _r(p), "--q", _r(q),
                    "--beta1", _r(b1), "--beta2", _r(b1 * rng.uniform(1.1, 2.0)), "--seed", seed]
        elif kind == "mc_verify":
            pair = (["--delta1", _r(d1), "--delta2", _r(d2)] if rng.random() < 0.5
                    else ["--delta", _r(d1)])
            argv = ["mc", "verify", *shape, *pair, "--m", str(m),
                    "--reps", str(CLI_VERIFY_REPS), "--seed", seed]
        elif kind == "mc_estimate_k":
            argv = ["mc", "estimate-k", "--n", "20", "--m", str(m),
                    "--reps", str(CLI_CALIBRATE_REPS), "--seed", seed]
        else:
            n = rng.randint(12, 24)
            argv = ["mc", "estimate-h", "--n", str(n), "--m", str(rng.randint(4, n)),
                    "--reps", str(CLI_CALIBRATE_REPS), "--seed", seed]
        return kind, tuple(argv + ["--format", fmt])

    def run(self, inp):
        _, argv = inp
        return subprocess.run(
            [sys.executable, "-m", "weibull_shrink.cli", *argv],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=CLI_TIMEOUT_S, check=False,
        )

    def work(self, inp, out) -> int:
        return 1

    def record(self, i, inp, out) -> CliRecord:
        kind, argv = inp
        return CliRecord(
            i=i, kind=kind, argv=argv, stdout_digest=hashlib.sha256(out.stdout).hexdigest(),
            code=out.returncode, stderr=out.stderr[-300:].decode("utf-8", "replace"),
        )

    def inprocess(self, argv) -> tuple:
        """Exit code and stdout digest of cli.main in this process."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.cli.main(list(argv))
        return code, hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()

    def expected(self, argv) -> tuple:
        if argv not in self._inprocess:
            self._inprocess[argv] = self.inprocess(argv)
        return self._inprocess[argv]

    def check(self, records) -> dict:
        failures = {}
        for rec in records:
            code, out_digest = self.expected(rec.argv)
            reasons = []
            if rec.code not in EXPECTED_CODES.get(rec.kind, (0,)):
                reasons.append(f"exit code {rec.code}: {rec.stderr.strip()}")
            if rec.code != code:
                reasons.append(f"exit code {rec.code} but {code} in process")
            if rec.stdout_digest != out_digest:
                reasons.append("stdout differs from cli.main in process")
            if reasons:
                failures[rec.i] = f"{' '.join(rec.argv)}: " + "; ".join(reasons)
        return failures


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (Grid, Simulate, Cli)}
