"""Command-line front end.

Subcommands: estimate (from data or a forced pivotal value), risk (analytic
risk at a parameter point), dominance (departure ranges), table (grid
reproduction; --diff adds the audit of the printed cells selected, in the
chosen format), mc (simulation verification and constant estimation). The
global flags --format {csv,json,text}, --seed and --out follow any subcommand.

Exit codes: 0 success, 1 failed verification check, 2 data or flag problems
(with file:line for parse failures), 3 inadmissible or degenerate shrinkage
parameters, 4 missing pivotal constant for an unknown design, 5 a failed
write of the output, to the --out path or to stdout (one stderr line, no
traceback). `main` is the only place that maps exceptions to exit codes; the
subcommands let the package's own checks raise. `risk`, `dominance`, `mc
verify` and `estimate` check h, q, the departures (for `estimate`, the guess
interval), then p (a non-finite p exits 2), then their trailing inputs: the
simulation flags, or `estimate`'s data file with its design, then t. A
numerical overflow, or an efficiency left unbounded by a zero or vanishing
MSE, is a data problem too, and exits 2: `estimate` refuses an estimate that
overflows in every format, `risk` names the departure flags when a risk
overflows, and `risk` refuses a report of infinite efficiency with one line
naming the estimator and its departure (`mc verify` checks such a report's
bias and MSE). Data goes to stdout (or --out); diagnostics go to stderr.
Output depends only on flags and seed, never on wall clock, so reruns are
byte-identical.

A subcommand imports what it runs, inside its own function, so importing
this module loads only `model` and `writers`. `risk`, `dominance` and `mc
verify` load `risk` (and with it `estimators` and `specfun`); `estimate`
loads `estimators` and `specfun`. Only the mc subcommands simulate, so only
they import `montecarlo` and with it numpy (`mc verify` only once its point
and --reps pass), and `mc estimate-k/-h` load nothing of the analytic layer.
Only `table` imports `tables`, and with it `risk` and the transcribed printed
tables in `reference_data`.

Each subcommand builds its document, one record or a list of records, and
hands it to `writers.render` with the format. `risk`, `dominance` and `table
--diff` pass their own csv table, whose shape differs from their json, and
`risk`, `mc verify` and `table --diff` their own text renderer. Only `table`
without --diff picks a writer by format, one of the table-cell writers in
`tables`. `writers` alone knows how a value prints, and loads `csv` and
`json` only for those formats. No module of the package imports
`dataclasses`. `estimate --data` takes Bain's unbiasing constant k from its
one source, the exact finite sum `estimators.bain_constant`, so it ignores
--seed. `estimate --t` takes no design: every estimate reads only h and t,
so n and m print as absent, like the scale estimate and k.

`main(argv)` returns its exit code and never ends the process; the tests and
the benchmark's checks call it in process, and it leaves the cyclic garbage
collector as it found it. It writes stdout and flushes it before it returns,
so a failed write is its exit 5. The script entry, `run` (the `__main__`
block and the `weibull-shrink` console script), turns the collector off,
calls `main`, flushes stdout and stderr, and ends the process with
`os._exit`, skipping the interpreter's teardown of every loaded module.
That saves about 9 to 11 ms for the mc subcommands, which load numpy, and 2
to 4 ms for the rest, on a 2-core Xeon. A process that is never torn down
has no use for the collector either, which would otherwise run about 30
times in an mc subcommand's `main`, most while numpy imports: off, it saves
another 2.4 to 2.6 ms there (the README gives the measurements). So `atexit`
hooks do not run on the script path, and a tool that saves its data at
interpreter exit (coverage's subprocess measurement, for one) does not see
these processes finish.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from weibull_shrink import writers
from weibull_shrink.model import (
    BUILTIN_H,
    CensoredSample,
    GridValidationError,
    GuessInterval,
    InadmissibleParameterError,
    MissingConstantError,
    PivotalContext,
    ShrinkageConfig,
    WeibullParams,
    lookup_h,
)
from weibull_shrink.model import _require_h, _require_q


def _resolve_delta(args) -> tuple[float, bool]:
    """The midpoint departure from --delta or --delta1/--delta2, and whether
    the pair was given."""
    have_pair = args.delta1 is not None or args.delta2 is not None
    if have_pair and (args.delta1 is None or args.delta2 is None):
        raise ValueError("--delta1 and --delta2 go together")
    if args.delta is None and not have_pair:
        raise ValueError("give --delta or --delta1/--delta2")
    delta = args.delta if args.delta is not None else 0.5 * (args.delta1 + args.delta2)
    return delta, have_pair


# ---------------------------------------------------------------------------
# estimate


def _read_failure_times(path: str) -> list:
    """One failure time per line; '#' starts a comment; blanks skipped."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    values = []
    # bytes.splitlines breaks at the same \n, \r\n and \r as text mode
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            # utf-8-sig drops the byte-order mark some editors write first
            line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            value = float(stripped)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: cannot parse {stripped!r} as a failure time"
            ) from None
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{path}:{lineno}: failure times must be finite and > 0")
        if values and value < values[-1]:
            raise ValueError(
                f"{path}:{lineno}: failure times must be nondecreasing "
                f"({value:g} after {values[-1]:g})"
            )
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no failure times found")
    return values


def cmd_estimate(args) -> tuple:
    from weibull_shrink import estimators

    if (args.t is None) == (args.data is None):
        raise ValueError("give exactly one of --t or --data")
    if args.t is not None and args.h is None:
        raise ValueError("--t needs an explicit --h")
    if args.t is not None and args.n is not None:
        raise ValueError("--n goes with --data only; --t needs no design")
    if args.data is not None and args.n is None:
        raise ValueError("--data needs --n (number of units on test)")
    # risk's order: h, q, the guess interval, then p (finite, then admissible
    # once h is known, which --data may look up from its design); last the
    # data file with its design, and t
    h = None if args.h is None else _require_h(args.h, 4.0)
    _require_q(args.q)
    interval = GuessInterval(beta1=args.beta1, beta2=args.beta2)
    cfg = ShrinkageConfig(p=args.p, q=args.q)
    if h is not None:
        estimators.shrink_weight(cfg.p, h)
    n = m = bain_k = scale = None
    if args.t is not None:
        t = args.t
    else:
        # the sample checks its design before the h lookup: one failure time exits 2 either way
        sample = CensoredSample(n=args.n, observations=tuple(_read_failure_times(args.data)))
        n, m = sample.n, sample.m
        if h is None:
            h = lookup_h(n, m)
            estimators.shrink_weight(cfg.p, h)
        bain_k = estimators.bain_constant(m, n)
        scale = estimators.bain_scale_estimate(sample, bain_k)
        t = h * scale
    ctx = PivotalContext(h=h, t=t)
    estimates = {
        "beta_unbiased": estimators.beta_unbiased(ctx),
        "beta_mmse": estimators.beta_mmse(ctx),
        "beta_shrink": estimators.beta_shrink(ctx, interval, cfg),
        "beta_shrink_truncated": estimators.beta_shrink_truncated(ctx, interval, cfg),
        "delta_hat": estimators.estimate_departure(ctx, interval),
        "q_select": estimators.suggest_q(ctx, interval),
    }
    overflowed = [name for name, value in estimates.items() if not math.isfinite(value)]
    if overflowed:
        # every format refuses it alike, as json must; a tiny t or a huge
        # guess interval can each overflow, so the message names them all
        source = f"--t {t!r}" if args.t is not None else f"t = {t!r} from {args.data}"
        raise OverflowError(
            f"{', '.join(overflowed)} overflow at {source}, h = {h!r} and the "
            f"guess interval ({interval.beta1!r}, {interval.beta2!r})"
        )
    doc = {"n": n, "m": m, "h": float(h), "t": float(t), "scale_estimate": scale,
           "bain_k": bain_k, **estimates, "p_admissible": True}
    return writers.render(args.format, doc), 0


# ---------------------------------------------------------------------------
# risk


def _point_reports(args, delta: float, pair: bool) -> list:
    """The closed-form risk reports at --h/--p/--q and departure delta, with
    the truncated estimator's at --delta1/--delta2 when `pair`. Each checks
    its arguments in the order h, q, departures, then p."""
    from weibull_shrink import risk

    reports = [risk.report_unbiased(args.h), risk.report_mmse(args.h)]
    try:
        reports.append(risk.report_shrink(args.h, args.p, args.q, delta))
        if pair:
            reports.append(risk.report_modified(args.h, args.p, args.q, args.delta1, args.delta2))
    except risk.DepartureOverflowError as exc:
        given = [f"--{name} {value!r}" for name, value in
                 (("delta", args.delta), ("delta1", args.delta1), ("delta2", args.delta2))
                 if value is not None]
        raise OverflowError(f"{' '.join(given)}: {exc}") from None
    return reports


def cmd_risk(args) -> tuple:
    delta, have_pair = _resolve_delta(args)
    if args.modified and not have_pair:
        raise ValueError("--modified needs --delta1 and --delta2")
    reports = _point_reports(args, delta, args.modified)
    # a zero or vanishing MSE leaves the efficiency unbounded; only the
    # shrinkage estimators, whose MSE reads a departure, can have one
    for r in reports:
        if r.pre_vs_mmse == math.inf:
            where = (f"at delta={delta!r}" if r.estimator_id == "SHRINK_PQ"
                     else f"on the interval ({args.delta1!r}, {args.delta2!r})")
            raise ValueError(f"{r.estimator_id} has MSE {r.rmse!r} {where}, "
                             "so its efficiency is unbounded")
    doc = [r.to_dict() for r in reports]
    table = (["estimator", "bias", "arb", "rmse", "pre"], [r.values() for r in doc])
    return writers.render(args.format, doc, text=_risk_text, table=table), 0


def _risk_text(records) -> str:
    lines = [f"{'estimator':<20} {'bias':>10} {'arb':>10} {'rmse':>10} {'pre':>12}"]
    lines += [
        f"{r['estimator_id']:<20} {r['bias_over_beta']:>10.4f} {r['arb']:>10.4f} "
        f"{r['rmse']:>10.4f} {r['pre_vs_mmse']:>12.4f}"
        for r in records
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dominance


def cmd_dominance(args) -> tuple:
    from weibull_shrink import risk

    try:
        ranges = risk.dominance_ranges(args.h, args.p, args.q)
    except risk.DepartureOverflowError as exc:
        raise OverflowError(f"--q {args.q!r}: {exc}") from None
    doc = {"mse_range": ranges["mse"], "arb_range": ranges["arb"], "best": ranges["best"]}
    table = (["range", "lo", "hi"], [[name, *writers.span_ends(r)] for name, r in doc.items()])
    return writers.render(args.format, doc, table=table), 0


# ---------------------------------------------------------------------------
# table


def _parse_design(text: str):
    m, _, h = text.partition(":")
    try:
        return int(m), float(h)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected M:H with an integer M and a number H, got {text!r}"
        ) from None


def _parse_row(text: str):
    a, _, b = text.partition(":")
    try:
        return float(a), float(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected D1:D2 with two numbers, got {text!r}") from None


def cmd_table(args) -> tuple:
    from weibull_shrink import reference_data as ref
    from weibull_shrink import tables

    # --m, --p and --q select from the design list and the stock p and q
    # lists, so the one grid built and checked is the grid that runs
    designs = args.design or tables.DEFAULT_DESIGNS
    rows = args.rows or (tables.ROWS_31 if args.which == "31" else ref.TABLE_51_INTERVALS)
    spec = tables.GridSpec(
        [(m, h) for m, h in designs if args.m is None or m in args.m],
        [p for p in ref.GRID_P if args.p is None or p in args.p],
        [q for q in ref.GRID_Q if args.q is None or q in args.q],
        rows,
    )
    cells = tables.table_31(spec) if args.which == "31" else tables.table_51(spec)
    if not args.diff:
        writer = {"csv": tables.cells_to_csv, "json": tables.cells_to_json,
                  "text": tables.cells_to_text}[args.format]
        return writer(cells), 0
    audits, ranges = tables.printed_audit(args.which, cells)
    doc = {"cells": [c.to_dict() for c in cells], "audit": [a.to_dict() for a in audits]}
    if ranges is not None:
        doc["ranges"] = [r.to_dict() for r in ranges]

    def text(_) -> str:
        return tables.cells_to_text(cells) + "\n" + tables.format_diff_report(audits, ranges)

    table = (tables.CellAudit.__slots__, (a.values() for a in doc["audit"]))
    return writers.render(args.format, doc, text=text, table=table), 0


# ---------------------------------------------------------------------------
# mc


def cmd_mc_estimate(args) -> tuple:
    """`mc estimate-k` or `mc estimate-h`, by `args.constant`; h is compared
    with the built-in value of a built-in design."""
    from weibull_shrink import montecarlo

    estimate = {"k": montecarlo.estimate_bain_constant,
                "h": montecarlo.estimate_degrees_of_freedom}[args.constant]
    value, se = estimate(args.m, args.n, args.reps, args.seed)
    doc = {args.constant: value, "se": se, "m": args.m, "n": args.n,
           "replicates": args.reps, "seed": args.seed}
    builtin = BUILTIN_H.get((args.n, args.m)) if args.constant == "h" else None
    if builtin is not None:
        doc.update(builtin_h=builtin, deviation=value - builtin)
    return writers.render(args.format, doc), 0


def cmd_mc_verify(args) -> tuple:
    delta, have_pair = _resolve_delta(args)
    reports = _point_reports(args, delta, have_pair)
    if args.reps < 1000:
        raise ValueError("verification needs --reps >= 1000")
    # numpy loads only for a point that passed its checks
    from weibull_shrink import montecarlo

    cfg = ShrinkageConfig(p=args.p, q=args.q)
    # risks are scale-free, so verify at true shape 1 with the guessed
    # interval placed to realize the requested departures
    plan = montecarlo.SimulationPlan(
        replicates=args.reps, seed=args.seed, params=WeibullParams(alpha=1.0, beta=1.0),
        n=args.n, m=args.m,
    )
    simulated = [
        montecarlo.unbiased_estimator(args.h),
        montecarlo.mmse_estimator(args.h),
        montecarlo.shrink_estimator(args.h, GuessInterval(beta1=delta, beta2=delta), cfg),
    ]
    if have_pair:
        pair = GuessInterval(beta1=args.delta1, beta2=args.delta2)
        simulated.append(montecarlo.truncated_estimator(args.h, pair, cfg))
    # Besides 3 SE, each check allows 3/R times the size of the closed form:
    # an event rarer than 3/R is likely unseen in R replicates (the rule of
    # three). A truncated estimator clamped on every replicate has an SE of
    # exactly 0, while its closed form still counts the unclamped region.
    unseen = 3.0 / plan.replicates
    results = []
    for report, emp in zip(reports, montecarlo.empirical_risks(plan, simulated, h=args.h)):
        for metric, got, ana, tol in (
            ("bias", emp.bias, report.bias_over_beta, 3.0 * emp.se_mean),
            ("mse", emp.mse, report.rmse, 3.0 * emp.se_mse),
        ):
            ok = abs(got - ana) <= tol + unseen * max(1.0, abs(ana))
            results.append(
                (report.estimator_id, metric, got, ana, tol, "PASS" if ok else "FAIL")
            )
    header = ("estimator", "metric", "empirical", "analytic", "three_se", "status")
    doc = [dict(zip(header, r)) for r in results]
    code = 1 if any(r[-1] == "FAIL" for r in results) else 0
    return writers.render(args.format, doc, text=_verify_text), code


def _verify_text(records) -> str:
    lines = [
        f"{status} {name} {metric}: empirical {emp:.6f} vs analytic {ana:.6f} "
        f"(3se {tol:.6f})"
        for name, metric, emp, ana, tol, status in map(dict.values, records)
    ]
    passed = sum(r["status"] == "PASS" for r in records)
    lines.append(f"summary: {passed}/{len(records)} checks passed")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # The parent leaves an absent global flag unset (SUPPRESS), so a leaf
    # under `mc` never clobbers one given at the `mc` level; the defaults
    # are set once, on the top-level parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json", "text"), default=argparse.SUPPRESS,
                        help="output format (default text, 4 decimals; "
                             "csv/json carry full precision)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed (default 0)")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to this path instead of stdout")
    point = argparse.ArgumentParser(add_help=False)
    for flag in ("--h", "--p", "--q"):
        point.add_argument(flag, type=float, required=True)
    departure = argparse.ArgumentParser(add_help=False)
    for flag in ("--delta", "--delta1", "--delta2"):
        departure.add_argument(flag, type=float)

    parser = argparse.ArgumentParser(
        prog="weibull-shrink",
        description="Shrinkage estimation of the Weibull shape under failure censoring",
    )
    parser.set_defaults(format="text", seed=0, out=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", parents=[common],
                           help="estimate the shape from data or a forced pivotal value")
    p_est.add_argument("--data", help="file with one failure time per line")
    p_est.add_argument("--n", type=int, help="number of units on test, for --data only")
    p_est.add_argument("--t", type=float, help="pivotal statistic, bypassing --data")
    p_est.add_argument("--h", type=float, help="pivotal degrees of freedom")
    p_est.add_argument("--beta1", type=float, required=True)
    p_est.add_argument("--beta2", type=float, required=True)
    p_est.add_argument("--p", type=float, required=True)
    p_est.add_argument("--q", type=float, required=True)
    p_est.set_defaults(func=cmd_estimate)

    p_risk = sub.add_parser("risk", parents=[common, point, departure],
                            help="analytic risk at a parameter point")
    p_risk.add_argument("--modified", action="store_true",
                        help="include the truncated estimator (needs --delta1/--delta2)")
    p_risk.set_defaults(func=cmd_risk)

    p_dom = sub.add_parser("dominance", parents=[common, point],
                           help="departure ranges where shrinkage beats the MMSE multiple")
    p_dom.set_defaults(func=cmd_dominance)

    p_tab = sub.add_parser("table", parents=[common], help="reproduce an efficiency table")
    p_tab.add_argument("which", choices=("31", "51"))
    p_tab.add_argument("--diff", action="store_true",
                       help="add the audit of the selected cells against the printed values")
    p_tab.add_argument("--m", action="append", type=int, help="restrict to these m")
    p_tab.add_argument("--p", action="append", type=float, help="restrict to these p")
    p_tab.add_argument("--q", action="append", type=float, help="restrict to these q")
    p_tab.add_argument("--design", action="append", type=_parse_design, metavar="M:H",
                       help="replace the design list (repeatable)")
    p_tab.add_argument("--rows", action="append", type=_parse_row, metavar="D1:D2",
                       help="replace the departure rows (repeatable)")
    p_tab.set_defaults(func=cmd_table)

    p_mc = sub.add_parser("mc", parents=[common], help="Monte Carlo utilities")
    mc_sub = p_mc.add_subparsers(dest="mc_command", required=True)

    p_ver = mc_sub.add_parser("verify", parents=[common, point, departure],
                              help="check analytic risks against simulation")
    p_ver.add_argument("--reps", type=int, default=1_000_000)
    p_ver.add_argument("--n", type=int, default=20,
                       help="units on test; checked as a design with --m, but unused: "
                            "t is drawn from its gamma law at --h")
    p_ver.add_argument("--m", type=int, default=6,
                       help="observed failures (2 <= m <= n); checked, but unused like --n")
    p_ver.set_defaults(func=cmd_mc_verify)

    for constant, help_text in (("k", "simulate the unbiasing constant for a design"),
                                ("h", "simulate the variance-matching pivotal constant")):
        p_const = mc_sub.add_parser(f"estimate-{constant}", parents=[common], help=help_text)
        p_const.add_argument("--n", type=int, required=True)
        p_const.add_argument("--m", type=int, required=True)
        p_const.add_argument("--reps", type=int, default=100_000)
        p_const.set_defaults(func=cmd_mc_estimate, constant=constant)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 after --help; report the
        # code instead of unwinding through library callers, once the help
        # text it wrote to stdout is out
        return _write("", None, exc.code if isinstance(exc.code, int) else 2)
    try:
        output, code = args.func(args)
    except (InadmissibleParameterError, GridValidationError) as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except MissingConstantError as exc:
        print(
            f"{exc}\nhint: run `weibull-shrink mc estimate-h --n N --m M` to "
            "calibrate a surrogate, then pass it via --h",
            file=sys.stderr,
        )
        return 4
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"inputs out of floating-point range: {exc}", file=sys.stderr)
        return 2
    return _write(output, args.out, code)


def _write(output: str, path, code: int) -> int:
    """Write `output` to `path`, or to stdout flushed, and return `code`; a
    failed write returns 5 with one line naming where it went."""
    try:
        if path:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(output)
        else:
            sys.stdout.write(output)
            sys.stdout.flush()
    except OSError as exc:
        print(f"cannot write {path or 'stdout'}: {exc}", file=sys.stderr)
        return 5
    return code


def run() -> None:
    """The script entry: `main` on the process's arguments, with the cyclic
    garbage collector off, then the end of the process, without the
    interpreter's teardown."""
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass  # main flushed its output, so only a write it reported (code 5) is left
    os._exit(code)


if __name__ == "__main__":
    run()
