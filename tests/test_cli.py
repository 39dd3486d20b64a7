"""End-to-end CLI behaviour: exit codes, formats, determinism.

Everything runs in-process through main(argv) so coverage and capsys work,
except the script-path tests, which run `python -m weibull_shrink.cli` in
fresh processes (it ends with `os._exit`) and compare them with main(argv),
and the test of `scripts/reproduce_tables.py`.
"""

import ast
import csv
import gc
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weibull_shrink
from weibull_shrink import risk
from weibull_shrink.cli import main
from weibull_shrink.estimators import bain_constant
from weibull_shrink.model import BUILTIN_H

# the stock h of m = 6, 10 and 12 (n = 20) as flag values
H6, H10, H12 = (repr(BUILTIN_H[20, m]) for m in (6, 10, 12))
_SRC = Path(weibull_shrink.__file__).resolve().parent.parent  # the package's import root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- estimate ---------------------------------------------------------------


def test_estimate_from_pivot_fixed_point(capsys):
    code, out, err = run(
        capsys, "estimate", "--t", "8.8519", "--h", H6,
        "--beta1", "3.8", "--beta2", "4.2", "--p", "-1", "--q", "0.25",
    )
    assert code == 0, err
    assert "beta_unbiased = 1.0000" in out
    assert "beta_shrink = 1.0000" in out  # q * midpoint = 1 fixed point
    assert "beta_shrink_truncated = 3.8000" in out
    assert "delta_hat = 3.2628" in out
    assert "q_select = 0.3065" in out
    assert "p_admissible = yes" in out


def test_estimate_json_keys(capsys):
    code, out, _ = run(
        capsys, "estimate", "--t", "4.0", "--h", H6,
        "--beta1", "1.6", "--beta2", "2.4", "--p", "1", "--q", "0.5",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["scale_estimate"] is None  # pivot given directly
    assert data["bain_k"] is None
    assert data["beta_shrink"] == pytest.approx(1.835451054124296, rel=1e-13)
    assert data["p_admissible"] is True
    assert data["n"] is None and data["m"] is None  # a forced pivot has no design


def test_estimate_from_data(tmp_path, capsys):
    f = tmp_path / "times.dat"
    f.write_text(
        "# lifetimes in hours\n"
        "0.35\n"
        "0.96\n"
        "\n"
        "1.42  # tie broken upward\n"
        "1.42\n"
        "2.10\n"
        "2.75\n"
    )
    args = (
        "estimate", "--data", str(f), "--n", "20",
        "--beta1", "0.8", "--beta2", "1.2", "--p", "-1", "--q", "0.5",
        "--format", "json",
    )
    code, out, err = run(capsys, *args)
    assert code == 0, err
    data = json.loads(out)
    assert data["m"] == 6
    assert data["h"] == BUILTIN_H[20, 6]  # resolved from the built-in table
    assert data["bain_k"] == bain_constant(6, 20)
    assert data["scale_estimate"] > 0.0
    assert data["t"] == pytest.approx(BUILTIN_H[20, 6] * data["scale_estimate"], rel=1e-12)

    # byte-identical on a rerun
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0 and out2 == out


def test_estimate_data_uses_the_exact_k_and_ignores_the_seed(tmp_path, capsys):
    f = tmp_path / "times.dat"
    f.write_text("0.5\n1.0\n1.5\n2.0\n2.5\n3.0\n")
    args = (
        "estimate", "--data", str(f), "--n", "20",
        "--beta1", "0.8", "--beta2", "1.2", "--p", "-1", "--q", "0.5",
        "--format", "json",
    )
    code, out, err = run(capsys, *args, "--seed", "7")
    assert code == 0, err
    assert json.loads(out)["bain_k"] == bain_constant(6, 20)
    code2, out2, _ = run(capsys, *args, "--seed", "8")
    assert code2 == 0 and out2 == out


@pytest.mark.parametrize(
    "argv",
    [
        # both or neither of --t/--data
        ("estimate", "--t", "5", "--data", "x.dat", "--h", H6,
         "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5"),
        ("estimate", "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5"),
        # --t without --h
        ("estimate", "--t", "5", "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5"),
        # h at the finite-variance boundary
        ("estimate", "--t", "5", "--h", "4.0",
         "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5"),
        # q outside (0, 1]
        ("estimate", "--t", "5", "--h", H6,
         "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "1.5"),
        # reversed guess interval
        ("estimate", "--t", "5", "--h", H6,
         "--beta1", "2", "--beta2", "1", "--p", "1", "--q", "0.5"),
    ],
)
def test_estimate_flag_problems_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err != ""


def test_estimate_t_takes_no_design(capsys):
    # no output value depends on the design, so any h > 4 works and n and m
    # print as absent, like scale_estimate and bain_k
    args = ("estimate", "--t", "5", "--h", "33.3", "--beta1", "1", "--beta2", "2",
            "--p", "1", "--q", "0.5")
    code, out, err = run(capsys, *args)
    assert code == 0, err
    assert out.startswith("n = -\nm = -\nh = 33.3000\n")
    code, out, err = run(capsys, *args, "--format", "csv")
    assert code == 0, err
    header, row = csv.reader(io.StringIO(out))
    assert header[:2] == ["n", "m"] and row[:2] == ["", ""]
    code, out, err = run(capsys, *args, "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    assert (data["n"], data["m"], data["h"]) == (None, None, 33.3)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "t, beta2, overflowed",
    [("1e-320", "2", "beta_unbiased, beta_mmse, beta_shrink, q_select"),
     ("5", "1.7e308", "delta_hat")],
)
def test_estimate_overflow_is_refused_in_every_format(capsys, fmt, t, beta2, overflowed):
    # json cannot spell an infinity, and text and csv printed it with exit 0,
    # so every format refuses it alike, naming t, h and the interval
    code, out, err = run(
        capsys, "estimate", "--t", t, "--h", "10", "--p", "1", "--q", "0.5",
        "--beta1", "1", "--beta2", beta2, "--format", fmt,
    )
    assert (code, out) == (2, "")
    assert err == (
        f"inputs out of floating-point range: {overflowed} overflow at --t {float(t)!r}, "
        f"h = 10.0 and the guess interval (1.0, {float(beta2)!r})\n"
    )


def test_estimate_t_with_n_is_a_flag_error(capsys):
    # reported with the other flag combinations, before h and p are checked
    code, out, err = run(
        capsys, "estimate", "--t", "5", "--h", "3", "--n", "20",
        "--beta1", "1", "--beta2", "2", "--p", "0", "--q", "0.5",
    )
    assert (code, out) == (2, "")
    assert err == "--n goes with --data only; --t needs no design\n"


def test_n_below_m_has_one_message(tmp_path, capsys):
    f = tmp_path / "seven.dat"
    f.write_text("".join(f"{x}.0\n" for x in range(1, 8)))
    code, _, err = run(
        capsys, "estimate", "--data", str(f), "--n", "6",
        "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5",
    )
    assert code == 2
    assert err == "n must be an integer >= m, got n=6, m=7\n"
    code, _, err_k = run(capsys, "mc", "estimate-k", "--n", "6", "--m", "7", "--reps", "1000")
    assert code == 2
    assert err_k == err


def test_estimate_data_needs_n(tmp_path, capsys):
    f = tmp_path / "times.dat"
    f.write_text("1.0\n2.0\n")
    code, _, err = run(
        capsys, "estimate", "--data", str(f),
        "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5",
    )
    assert code == 2
    assert "--n" in err


def test_estimate_bad_data_line_reports_position(tmp_path, capsys):
    f = tmp_path / "times.dat"
    f.write_text("1.0\n2.0\nbogus\n3.0\n")
    code, _, err = run(
        capsys, "estimate", "--data", str(f), "--n", "20",
        "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5",
    )
    assert code == 2
    assert f"{f}:3" in err


def test_estimate_unsorted_data_reports_position(tmp_path, capsys):
    f = tmp_path / "times.dat"
    f.write_text("1.0\n3.0\n2.0\n")
    code, _, err = run(
        capsys, "estimate", "--data", str(f), "--n", "20",
        "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5",
    )
    assert code == 2
    assert f"{f}:3" in err
    assert "nondecreasing" in err


def test_estimate_nonpositive_time_rejected(tmp_path, capsys):
    f = tmp_path / "times.dat"
    f.write_text("0.0\n1.0\n")
    code, _, err = run(
        capsys, "estimate", "--data", str(f), "--n", "20",
        "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5",
    )
    assert code == 2
    assert f"{f}:1" in err


def test_estimate_empty_data_file(tmp_path, capsys):
    f = tmp_path / "times.dat"
    f.write_text("# nothing but comments\n\n")
    code, _, err = run(
        capsys, "estimate", "--data", str(f), "--n", "20",
        "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5",
    )
    assert code == 2
    assert "no failure times" in err


def test_estimate_missing_data_file(capsys):
    code, _, err = run(
        capsys, "estimate", "--data", "/no/such/file.dat", "--n", "20",
        "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5",
    )
    assert code == 2
    assert "cannot read" in err


def test_estimate_more_failures_than_units(tmp_path, capsys):
    f = tmp_path / "times.dat"
    f.write_text("".join(f"{x}.0\n" for x in range(1, 9)))
    code, _, err = run(
        capsys, "estimate", "--data", str(f), "--n", "5",
        "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5",
    )
    assert code == 2
    assert "n=5" in err


def test_estimate_inadmissible_p_exits_3(capsys):
    code, _, err = run(
        capsys, "estimate", "--t", "5", "--h", H6,
        "--beta1", "1", "--beta2", "2", "--p", "0", "--q", "0.5",
    )
    assert code == 3
    assert "nonzero" in err
    # the w > 1 band of small negative p is rejected the same way
    code, _, err = run(
        capsys, "estimate", "--t", "5", "--h", H6,
        "--beta1", "1", "--beta2", "2", "--p", "-0.1", "--q", "0.5",
    )
    assert code == 3
    assert "> 1" in err


def test_estimate_unknown_design_exits_4_with_hint(tmp_path, capsys):
    f = tmp_path / "times.dat"
    f.write_text("1.0\n2.0\n3.0\n")
    code, _, err = run(
        capsys, "estimate", "--data", str(f), "--n", "20",
        "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5",
    )
    assert code == 4
    assert "estimate-h" in err
    # one failure time breaks the design rule, which is checked before the h
    # lookup, so it exits 2 with or without --h
    f.write_text("1.0\n")
    for extra in ((), ("--h", H6)):
        code, _, err = run(
            capsys, "estimate", "--data", str(f), "--n", "20", *extra,
            "--beta1", "1", "--beta2", "2", "--p", "1", "--q", "0.5",
        )
        assert code == 2
        assert err == "m must be an integer >= 2, got 1\n"


def test_out_unwritable_exits_5(capsys):
    code, _, err = run(
        capsys, "estimate", "--t", "8.8519", "--h", H6,
        "--beta1", "3.8", "--beta2", "4.2", "--p", "-1", "--q", "0.25",
        "--out", "/no/such/dir/result.txt",
    )
    assert code == 5
    assert "cannot write" in err


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "result.json"
    args = (
        "estimate", "--t", "8.8519", "--h", H6,
        "--beta1", "3.8", "--beta2", "4.2", "--p", "-1", "--q", "0.25",
        "--format", "json",
    )
    code, out, _ = run(capsys, *args)
    assert code == 0
    code2, out2, _ = run(capsys, *args, "--out", str(target))
    assert code2 == 0
    assert out2 == ""
    assert target.read_text(encoding="utf-8") == out


# --- risk -------------------------------------------------------------------


def test_risk_text_table(capsys):
    code, out, err = run(
        capsys, "risk", "--h", H6, "--p", "-2", "--q", "0.25", "--delta", "4",
    )
    assert code == 0, err
    assert "UNBIASED" in out and "MMSE" in out and "SHRINK_PQ" in out
    assert "2482.1513" in out
    assert "SHRINK_PQ_MODIFIED" not in out


def test_risk_modified_row(capsys):
    code, out, _ = run(
        capsys, "risk", "--h", H6, "--p", "-1", "--q", "0.25",
        "--delta1", "3.8", "--delta2", "4.2", "--modified",
    )
    assert code == 0
    assert "SHRINK_PQ_MODIFIED" in out
    assert "129.1890" in out  # plain shrinkage at the midpoint departure


def test_risk_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "risk", "--h", H6, "--p", "-1", "--q", "0.25", "--delta", "1",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["estimator", "bias", "arb", "rmse", "pre"]
    assert len(rows) == 4
    assert float(rows[3][4]) == pytest.approx(110.96917348844778, rel=1e-15)

    code, out, _ = run(
        capsys, "risk", "--h", H6, "--p", "-1", "--q", "0.25", "--delta", "1",
        "--format", "json",
    )
    data = json.loads(out)
    assert [r["estimator_id"] for r in data] == ["UNBIASED", "MMSE", "SHRINK_PQ"]


@pytest.mark.parametrize(
    "argv",
    [
        ("risk", "--h", H6, "--p", "1", "--q", "0.5"),  # no departure at all
        ("risk", "--h", H6, "--p", "1", "--q", "0.5", "--delta1", "0.8"),  # half a pair
        ("risk", "--h", H6, "--p", "1", "--q", "0.5", "--delta", "1", "--modified"),
    ],
)
def test_risk_flag_problems_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2, err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("risk", "--h", "20", "--p", "1", "--q", "0.5",
          "--delta1", "1e-300", "--delta2", "1e300", "--modified"),
         "--delta1 1e-300 --delta2 1e+300: "),
        (("risk", "--h", H6, "--p", "1", "--q", "0.5", "--delta", "1e300"),
         "--delta 1e+300: "),
        (("mc", "verify", "--h", H6, "--p", "1", "--q", "0.5", "--delta", "1e300",
          "--reps", "2000"),
         "--delta 1e+300: "),
        (("table", "31", "--design", f"6:{H6}", "--rows", "1e200:1e200", "--p", "1",
          "--q", "0.5"),
         f"at design (m=6, h={H6}), row (1e+200, 1e+200)"),
        (("table", "51", "--design", f"6:{H6}", "--rows", "1e-300:1e300"),
         f"at design (m=6, h={H6}), row (1e-300, 1e+300)"),
        (("dominance", "--h", "10", "--p", "1", "--q", "1e-320"),
         "--q 1e-320: "),
    ],
    ids=[f"argv{i}" for i in range(6)],
)
def test_overflow_exits_2_without_traceback(capsys, argv, named):
    # each line names the flag, or the table's design and row, whose value
    # carries a risk or a range end past the float range
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert named in err, err


def test_extreme_risk_inputs_end_without_a_traceback(capsys):
    # every extreme of h, p, q and the departure, through dominance, risk and
    # risk --modified in text and json: a documented exit code, and a refusal
    # is one stderr line
    failures = []
    runs = 0
    for h, p, q in itertools.product(("4.0000001", "10", "1e6", "1e306"),
                                     ("-1", "1", "100", "1000", "1e308"),
                                     ("1e-320", "0.5", "1")):
        shape = ("--h", h, "--p", p, "--q", q)
        commands = [("dominance", *shape)]
        for d in ("1e-300", "2", "1e300"):
            commands += [("risk", *shape, "--delta", d),
                         ("risk", *shape, "--delta1", d, "--delta2", repr(2 * float(d)),
                          "--modified")]
        for argv, fmt in itertools.product(commands, ("text", "json")):
            runs += 1
            try:
                code, _, err = run(capsys, *argv, "--format", fmt)
            except Exception as exc:  # what would end the CLI in a traceback
                failures.append((argv, fmt, repr(exc)))
                continue
            if code not in (0, 1, 2, 3) or (code and len(err.splitlines()) != 1):
                failures.append((argv, fmt, code, err))
    assert runs == 840
    assert failures == []


@pytest.mark.parametrize(
    "argv",
    [
        ("risk", "--h", "30000", "--p", "1", "--q", "0.5", "--delta1", "1", "--delta2", "2",
         "--modified"),
        ("mc", "verify", "--h", "30000", "--p", "1", "--q", "0.5", "--delta1", "1",
         "--delta2", "2", "--reps", "1000"),
        ("table", "51", "--design", "6:30000", "--rows", "1:2", "--p", "1", "--q", "0.5"),
    ],
    ids=["risk", "mc-verify", "table"],
)
def test_truncated_estimator_beyond_its_h_bound_names_h(capsys, argv):
    # its incomplete gammas P(h/2, eta) are accurate only up to shape 1e4
    assert run(capsys, *argv) == (2, "", "the truncated estimator needs h <= 20000, twice the "
                                  "accuracy bound of its incomplete gammas, got h=30000.0\n")


_TINY_PAIR = ("--h", "10", "--p", "1", "--q", "0.5", "--delta1", "1e-320", "--delta2", "1e-320")


@pytest.mark.parametrize(
    "argv, line",
    [
        (("risk", *_TINY_PAIR, "--modified"),
         "SHRINK_PQ_MODIFIED      -1.0000     1.0000     1.0000      25.0000"),
        (("mc", "verify", *_TINY_PAIR, "--reps", "1000"), "summary: 8/8 checks passed"),
        (("table", "51", "--design", "6:10", "--rows", "1e-320:1e-320", "--p", "1", "--q", "0.5"),
         "6  10.0000  1  0.5  0.0000  0.0000  0.0000  25.0000    -       -       -        -"
         "        -"),
    ],
    ids=["risk", "mc-verify", "table"],
)
def test_departure_that_overflows_eta_is_computed(capsys, argv, line):
    # eta = (h/2 - 1)/delta is +inf, so P(., eta) = 1: the truncated estimator
    # always returns beta2, with bias delta2 - 1 and MSE (delta2 - 1)^2
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert line in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ("risk", "--h", H6, "--p", "1", "--q", "0.5",
         "--delta1", "1", "--delta2", "1", "--modified"),
        ("table", "51", "--rows", "1:1", "--m", "6", "--p", "1", "--q", "0.5"),
    ],
)
def test_zero_mse_exits_2_naming_the_interval(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "(1.0, 1.0)" in err and "Traceback" not in err


def test_risk_near_the_float_range_of_h_is_100_percent_efficient(capsys):
    # every MSE is about 2/h there, so every efficiency is 100; formed as
    # 100 mse_mmse / mse, no step leaves the float range
    for h in ("1e306", "1e308"):
        code, out, err = run(capsys, "risk", "--h", h, "--p", "1", "--q", "0.5",
                             "--delta", "1", "--format", "json")
        assert code == 0, err
        reports = json.loads(out)
        assert [r["estimator_id"] for r in reports] == ["UNBIASED", "MMSE", "SHRINK_PQ"]
        for r in reports:
            assert r["pre_vs_mmse"] == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize(
    "argv, h",
    [
        (("dominance", "--h", "30", "--p", "1e308", "--q", "0.5"), "30.0"),
        (("dominance", "--h", "20", "--p", "1e308", "--q", "0.5"), "20.0"),
        (("risk", "--h", "30", "--p", "1e308", "--q", "0.5", "--delta", "1"), "30.0"),
        (("mc", "verify", "--h", "30", "--p", "1e308", "--q", "0.5", "--delta", "1",
          "--reps", "1000"), "30.0"),
        (("estimate", "--t", "5", "--h", "30", "--p", "1e308", "--q", "0.5",
          "--beta1", "1", "--beta2", "2"), "30.0"),
    ],
    ids=["dominance", "dominance-lgamma", "risk", "mc-verify", "estimate"],
)
def test_overflowing_weight_names_h(capsys, argv, h):
    # a p near the float range overflows w(p) on both of its routes: the
    # Stirling form from h = 27 and the lgamma form below
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"inputs out of floating-point range: the shrinkage weight w(p=1e+308) overflows at h={h}"
    ]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("dominance", "--h", "1e308", "--p", "1", "--q", "0.5"), 3,
         "w(p=1.0) rounds to 1 at h=1e+308"),
        (("risk", "--h", "1e306", "--p", "1", "--q", "0.5", "--delta", "1"), 0,
         "SHRINK_PQ               -0.0000     0.0000     0.0000     100.0000"),
        (("mc", "verify", "--h", "1e306", "--p", "1", "--q", "0.5", "--delta", "1",
          "--reps", "1000"), 0, "summary: 6/6 checks passed"),
        (("estimate", "--t", "5", "--h", "1e306", "--p", "1", "--q", "0.5",
          "--beta1", "1", "--beta2", "2", "--format", "json"), 0, None),
        (("table", "31", "--design", "6:1e306", "--rows", "1:2", "--p", "1", "--q", "0.5"),
         3, "w(p=1.0) rounds to 1 at h=1e+306"),
    ],
    ids=["dominance", "risk", "mc-verify", "estimate", "table"],
)
def test_weight_near_the_float_range_is_finite(capsys, argv, code, message):
    # w(1) = 1 - O(1/h) is representable for every finite h; what fails at
    # these h is what the weight feeds, each with its own message
    got, out, err = run(capsys, *argv)
    assert got == code, err
    if message is None:
        assert json.loads(out)["beta_shrink"] == pytest.approx(2e305, rel=1e-12)
    elif code == 0:
        assert message in out.splitlines()
    else:
        assert out == "" and err.startswith(message) and len(err.splitlines()) == 1


def test_dominance_at_large_h_keeps_its_ranges(capsys):
    # w(1) = 1 - 2/(h/2) + ..., so at h = 1e9 the weight is below 1 and the
    # ranges exist; the arb range is 1/q -+ 2/((h - 2)(1 - w))/q
    code, out, err = run(capsys, "dominance", "--h", "1e9", "--p", "1", "--q", "0.5",
                         "--format", "json")
    assert code == 0, err
    assert json.loads(out)["arb_range"] == pytest.approx([1.0, 3.0], rel=1e-6)


def test_risk_at_large_h_has_vanishing_bias(capsys):
    # the shrinkage bias (q delta - 1)(1 - w) is of order 1/h: 1e-15 at h = 1e15
    code, out, err = run(capsys, "risk", "--h", "1e15", "--p", "1", "--q", "0.5",
                         "--delta", "1", "--format", "json")
    assert code == 0, err
    shrink = {r["estimator_id"]: r for r in json.loads(out)}["SHRINK_PQ"]
    assert abs(shrink["bias_over_beta"]) < 1e-12


@pytest.mark.parametrize(
    "argv, line",
    [
        (("risk", "--h", H6, "--p", "1", "--q", "0.5", "--delta1", "1", "--delta2", "1",
          "--modified"),
         "SHRINK_PQ_MODIFIED has MSE 0.0 on the interval (1.0, 1.0), so its efficiency "
         "is unbounded"),
        # w(1000) underflows to 0 at h = 10, and q * delta = 1 removes the bias
        (("risk", "--h", "10", "--p", "1000", "--q", "0.5", "--delta", "2"),
         "SHRINK_PQ has MSE 0.0 at delta=2.0, so its efficiency is unbounded"),
        # w(100)^2 is subnormal, so 100 mse_mmse / mse overflows
        (("risk", "--h", "10", "--p", "100", "--q", "0.5", "--delta", "2"),
         "SHRINK_PQ has MSE 5.192111e-317 at delta=2.0, so its efficiency is unbounded"),
        # the plain estimator's report comes first and is refused first
        (("risk", "--h", "10", "--p", "1000", "--q", "0.5", "--delta1", "1", "--delta2", "3",
          "--modified"),
         "SHRINK_PQ has MSE 0.0 at delta=2.0, so its efficiency is unbounded"),
    ],
    ids=["modified", "shrink-zero", "shrink-subnormal", "shrink-before-modified"],
)
def test_risk_refuses_an_unbounded_efficiency(capsys, argv, line):
    # one line naming the estimator and its departure, for either estimator
    for fmt in ("text", "csv", "json"):
        assert run(capsys, *argv, "--format", fmt) == (2, "", line + "\n")


@pytest.mark.parametrize("p", ["100", "1000"])
def test_mc_verify_checks_a_vanishing_mse(capsys, p):
    # risk refuses the efficiency at these points; verify only compares bias
    # and MSE, and the simulated shrinkage estimate is the true shape
    code, out, err = run(capsys, "mc", "verify", "--h", "10", "--p", p, "--q", "0.5",
                         "--delta", "2", "--reps", "1000")
    assert code == 0, err
    assert "summary: 6/6 checks passed" in out


def test_risk_inadmissible_p_exits_3(capsys):
    code, _, _ = run(capsys, "risk", "--h", H6, "--p", "0", "--q", "0.5", "--delta", "1")
    assert code == 3


# --- dominance --------------------------------------------------------------


def test_dominance_text(capsys):
    code, out, err = run(capsys, "dominance", "--h", H6, "--p", "-2", "--q", "0.25")
    assert code == 0, err
    assert "mse_range = (1.7379, 6.2621)" in out
    assert "arb_range = (2.9024, 5.0976)" in out
    assert "best = (2.9024, 5.0976)" in out


def test_dominance_empty_range(capsys):
    code, out, _ = run(capsys, "dominance", "--h", H6, "--p", "0.05", "--q", "0.5")
    assert code == 0
    assert "mse_range = empty" in out
    assert "best = empty" in out
    assert "arb_range = (" in out


def test_dominance_json_spans(capsys):
    code, out, _ = run(
        capsys, "dominance", "--h", H6, "--p", "0.05", "--q", "0.5", "--format", "json",
    )
    data = json.loads(out)
    assert data["mse_range"] == []
    assert len(data["arb_range"]) == 2


def test_dominance_degenerate_p_exits_3(capsys):
    for p in ("0", "-0.1"):
        code, _, err = run(capsys, "dominance", "--h", H6, "--p", p, "--q", "0.25")
        assert code == 3, (p, err)


# --- table ------------------------------------------------------------------


def test_table_31_csv_cell_count(capsys):
    code, out, _ = run(capsys, "table", "31", "--format", "csv")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0].startswith("m,h,p,q,")
    assert len([l for l in lines[1:] if l]) == 432


def test_table_51_csv_cell_count(capsys):
    code, out, _ = run(capsys, "table", "51", "--format", "csv")
    assert code == 0
    assert len([l for l in out.split("\r\n")[1:] if l]) == 336


def test_table_filter_q(capsys):
    code, out, _ = run(capsys, "table", "31", "--q", "0.5", "--format", "csv")
    assert code == 0
    rows = [l for l in out.split("\r\n")[1:] if l]
    assert len(rows) == 144
    assert all(r.split(",")[3] == "0.5" for r in rows)


def test_table_custom_design_and_rows(capsys):
    code, out, _ = run(
        capsys, "table", "51", "--design", f"6:{H6}", "--rows", "0.8:1.2",
        "--format", "csv",
    )
    assert code == 0
    rows = [l for l in out.split("\r\n")[1:] if l]
    assert len(rows) == 12  # 3 q * 4 p * 1 design * 1 row


def test_table_31_ranges_follow_h_not_m(capsys):
    # two designs with the same m but different h keep their own ranges
    tail = ("--rows", "1:1", "--q", "0.5", "--p", "1", "--format", "csv")
    _, both, _ = run(capsys, "table", "31", "--design", f"6:{H6}",
                     "--design", f"6:{H12}", *tail)
    _, alone, _ = run(capsys, "table", "31", "--design", f"6:{H12}", *tail)
    second = both.split("\r\n")[2]
    assert second == alone.split("\r\n")[1]
    lo, hi = (float(x) for x in second.split(",")[9:11])
    assert (round(lo, 4), round(hi, 4)) == (0.2004, 3.7996)


@pytest.mark.parametrize(
    "flag, value, form",
    [("--design", "6.5:10.85", "M:H with an integer M"),
     ("--design", "6", "M:H with an integer M"),
     ("--rows", "1", "D1:D2")],
)
def test_table_parse_errors_name_the_form(capsys, flag, value, form):
    code, out, err = run(capsys, "table", "31", flag, value)
    assert (code, out) == (2, "")
    assert f"argument {flag}: expected {form}" in err and repr(value) in err
    assert "_parse_" not in err


def test_table_invalid_design_exits_3(capsys):
    code, _, err = run(capsys, "table", "31", "--design", "6:3.5")
    assert code == 3
    assert "h > 4" in err


def test_selection_filtering(capsys):
    # --m and --p select from the stock lists
    code, out, _ = run(capsys, "table", "31", "--m", "6", "--p", "-1", "--format", "csv")
    assert code == 0
    rows = [l.split(",") for l in out.split("\r\n")[1:] if l]
    assert len(rows) == 27  # 3 q * 9 rows
    assert all(r[0] == "6" and r[2] == "-1" for r in rows)


@pytest.mark.parametrize(
    "designs, head",
    [(("--design", "6:5"), ["6", "5", "1", "0.5"]),
     (("--design", "6:5", "--design", "8:10", "--m", "8"), ["8", "10", "1", "0.5"])],
    ids=["one-design", "m-selects-a-design"],
)
def test_selection_precedes_the_grid_check(capsys, designs, head):
    # p = -2 is inadmissible at h = 5, but the selection leaves it out
    code, out, err = run(capsys, "table", "31", *designs,
                         "--rows", "1:2", "--p", "1", "--q", "0.5", "--format", "csv")
    assert (code, err) == (0, "")
    rows = [l.split(",") for l in out.split("\r\n")[1:] if l]
    assert [r[:4] for r in rows] == [head]


def test_table_empty_grid_exits_3(capsys):
    # a selection that leaves no design is a grid problem, like a bad design
    code, _, err = run(capsys, "table", "31", "--m", "99")
    assert code == 3
    assert "h_values is empty" in err


def test_table_diff_appends_audit(capsys):
    code, out, _ = run(capsys, "table", "31", "--diff")
    assert code == 0
    assert "summary: 358/358 unambiguous cells within tolerance" in out
    assert "range summary:" in out

    code, out, _ = run(capsys, "table", "51", "--diff")
    assert code == 0
    assert "106 source disagreements" in out


def test_table_diff_follows_the_selection(capsys):
    code, out, _ = run(capsys, "table", "31", "--m", "6", "--p", "1", "--q", "0.5", "--diff")
    assert code == 0
    assert "summary: 9/9 unambiguous cells within tolerance" in out
    assert "range summary: 3 pass," in out
    flagged = [l for l in out.splitlines() if l.startswith("[")]
    assert all(" m=6 p=1 q=0.5" in l for l in flagged), flagged

    code, out, _ = run(capsys, "table", "51", "--m", "12", "--q", "0.5", "--diff")
    assert code == 0
    flagged = [l for l in out.splitlines() if l.startswith("[")]
    assert flagged
    assert all(" m=12 " in l and " q=0.5 " in l for l in flagged), flagged


@pytest.mark.parametrize(
    "selection",
    [
        ("--m", "12", "--p", "1", "--q", "0.25"),  # every cell is a printed-weight artifact
        ("--design", f"6:{H12}"),  # no printed cell at all
    ],
)
def test_table_diff_without_unambiguous_cells(capsys, selection):
    code, out, err = run(capsys, "table", "31", *selection, "--diff")
    assert code == 0, err
    assert "summary: 0/0 unambiguous cells within tolerance (n/a)" in out


@pytest.mark.parametrize("which", ["31", "51"])
def test_table_diff_respects_format(capsys, which):
    code, out, _ = run(capsys, "table", which, "--m", "6", "--diff", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == (["audit", "cells", "ranges"] if which == "31" else ["audit", "cells"])
    assert len(doc["audit"]) == len(doc["cells"]) == (108 if which == "31" else 84)
    assert {a["m"] for a in doc["audit"]} == {6}
    if which == "31":
        assert all(r["computed"] == [] or len(r["computed"]) == 2 for r in doc["ranges"])

    code, out, _ = run(capsys, "table", which, "--m", "6", "--diff", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["table", "m", "p"]
    assert len(rows) == 1 + len(doc["audit"])
    assert {len(r) for r in rows} == {len(rows[0])}
    assert {r[1] for r in rows[1:]} == {"6"}


def test_table_output_is_byte_stable(capsys):
    _, a, _ = run(capsys, "table", "31", "--format", "csv")
    _, b, _ = run(capsys, "table", "31", "--format", "csv")
    assert a == b


# --- mc ---------------------------------------------------------------------


def test_mc_estimate_k_two_by_two(capsys):
    args = ("mc", "estimate-k", "--n", "2", "--m", "2", "--reps", "4000",
            "--seed", "5", "--format", "json")
    code, out, err = run(capsys, *args)
    assert code == 0, err
    data = json.loads(out)
    assert 0.6 < data["k"] < 0.8  # ln 2 plus simulation noise
    assert data["se"] > 0.0
    # deterministic rerun
    _, out2, _ = run(capsys, *args)
    assert out2 == out


def test_mc_global_flags_accepted_before_subcommand(capsys):
    leaf = ("estimate-k", "--n", "2", "--m", "2", "--reps", "4000")
    before = run(capsys, "mc", "--seed", "5", "--format", "json", *leaf)[1]
    after = run(capsys, "mc", *leaf, "--seed", "5", "--format", "json")[1]
    split = run(capsys, "mc", "--seed", "5", *leaf, "--format", "json")[1]
    assert before == after == split
    # at both levels the leaf's flag wins
    assert run(capsys, "mc", "--seed", "9", "--format", "csv", *leaf,
               "--seed", "5", "--format", "json")[1] == before
    # without any global flag the defaults apply: text, seed 0, stdout
    default = run(capsys, "mc", *leaf)[1]
    assert default == run(capsys, "mc", *leaf, "--seed", "0", "--format", "text")[1]
    assert default.startswith("k = ")
    assert default != run(capsys, "mc", *leaf, "--seed", "5")[1]


def test_mc_estimate_h_reports_builtin_deviation(capsys):
    code, out, _ = run(
        capsys, "mc", "estimate-h", "--n", "20", "--m", "6", "--reps", "20000",
        "--seed", "7", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["builtin_h"] == BUILTIN_H[20, 6]
    assert abs(data["deviation"]) < 1.0
    assert data["h"] == pytest.approx(BUILTIN_H[20, 6], rel=0.1)


def test_mc_estimate_h_unknown_design_has_no_builtin(capsys):
    code, out, _ = run(
        capsys, "mc", "estimate-h", "--n", "10", "--m", "5", "--reps", "5000",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert "builtin_h" not in data
    assert data["h"] > 4.0


def test_mc_verify_passes_at_moderate_replicates(capsys):
    code, out, err = run(
        capsys, "mc", "verify", "--h", H6, "--p", "-1", "--q", "0.5",
        "--delta1", "0.8", "--delta2", "1.2", "--reps", "40000", "--seed", "1",
    )
    assert code == 0, (out, err)
    lines = out.splitlines()
    assert sum(l.startswith("PASS") for l in lines) == 8  # 4 estimators x 2 metrics
    assert "summary: 8/8 checks passed" in out


def test_mc_verify_without_pair_checks_three_estimators(capsys):
    code, out, _ = run(
        capsys, "mc", "verify", "--h", H6, "--p", "1", "--q", "0.5",
        "--delta", "2.0", "--reps", "20000", "--seed", "3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert {d["estimator"] for d in data} == {"UNBIASED", "MMSE", "SHRINK_PQ"}
    assert all(d["status"] == "PASS" for d in data)


def test_mc_verify_output_does_not_depend_on_the_design(capsys):
    # t is drawn from its gamma law at --h, so --n and --m are checked only
    outs = set()
    for design in (("--m", "6"), ("--m", "8"), ("--m", "12"), ("--n", "30", "--m", "12")):
        code, out, _ = run(
            capsys, "mc", "verify", "--h", H6, "--p", "1", "--q", "0.5",
            "--delta1", "0.8", "--delta2", "1.2", "--reps", "2000", "--seed", "5", *design,
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_mc_verify_passes_when_every_replicate_is_clamped(capsys):
    # the truncated estimator is clamped on every replicate here, so its SE
    # is 0 up to rounding; the analytic values still agree to six decimals
    code, out, err = run(
        capsys, "mc", "verify", "--h", H10, "--p", "0.9019", "--q", "0.391",
        "--delta1", "0.2361", "--delta2", "0.274", "--m", "10", "--seed", "3",
        "--reps", "1000", "--format", "json",
    )
    assert code == 0, (out, err)
    rows = {(d["estimator"], d["metric"]): d for d in json.loads(out)}
    for metric in ("bias", "mse"):
        row = rows["SHRINK_PQ_MODIFIED", metric]
        assert row["three_se"] < 1e-8
        assert row["status"] == "PASS"
        assert row["empirical"] == pytest.approx(row["analytic"], abs=1e-6)


def test_mc_verify_passes_at_zero_mse(capsys):
    # delta1 = delta2 = 1 pins the truncated estimator to the true shape
    code, out, err = run(
        capsys, "mc", "verify", "--h", H6, "--p", "1", "--q", "0.5",
        "--delta1", "1", "--delta2", "1", "--reps", "2000",
    )
    assert code == 0, (out, err)
    assert "summary: 8/8 checks passed" in out
    assert "PASS SHRINK_PQ_MODIFIED mse: empirical 0.000000 vs analytic 0.000000" in out


def test_mc_verify_small_reps_exit_2(capsys):
    code, _, err = run(
        capsys, "mc", "verify", "--h", H6, "--p", "1", "--q", "0.5",
        "--delta", "2.0", "--reps", "500",
    )
    assert code == 2
    assert "1000" in err


def test_argparse_usage_errors_return_2(capsys):
    # missing required flags and unknown subcommands come back as plain
    # return codes, not SystemExit
    code, _, err = run(capsys, "risk", "--h", H6)
    assert code == 2
    assert "--p" in err or "required" in err
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_mc_verify_bad_q_exit_2_bad_p_exit_3(capsys):
    code, _, _ = run(
        capsys, "mc", "verify", "--h", H6, "--p", "1", "--q", "1.5",
        "--delta", "2.0", "--reps", "2000",
    )
    assert code == 2
    code, _, _ = run(
        capsys, "mc", "verify", "--h", H6, "--p", "0", "--q", "0.5",
        "--delta", "2.0", "--reps", "2000",
    )
    assert code == 3


# --- bad input: every rejection has a fixed exit code and prints nothing ------

_EST = ("--beta1", "1", "--beta2", "2")
_VER = ("mc", "verify", "--reps", "2000")

# data files for `estimate --data` rows, written per test under these names
_SIX = b"".join(b"%d.0\n" % x for x in range(1, 7))
_DATA = {
    "@six": _SIX,
    "@bom": b"\xef\xbb\xbf" + _SIX,  # a UTF-8 byte-order mark, as some editors save
    "@tied": b"2.0\n" * 6,  # a zero scale estimate: no t exists
    "@one": b"1.0\n",  # m = 1 breaks the design rule
    "@latin1": b"1.0\n2.0\n# caf\xe9\n4.0\n",  # line 3 is not UTF-8
}

# `estimate` checks h, q, the guess interval, then p (finite, then admissible
# once h is known), then its design, data file and t. One row per adjacent
# pair, both bad: the exit code and the first stderr line name the earlier one.
_ESTIMATE_ORDER = [
    # h / q
    (2, "need a finite h > 4", ("estimate", "--t", "5", "--h", "3", *_EST,
                                "--p", "1", "--q", "1.5")),
    (2, "need a finite h > 4", ("estimate", "--data", "@six", "--n", "20", "--h", "3", *_EST,
                                "--p", "1", "--q", "1.5")),
    # q / interval
    (2, "q must lie", ("estimate", "--t", "5", "--h", H6, "--beta1", "2", "--beta2", "1",
                       "--p", "1", "--q", "1.5")),
    (2, "q must lie", ("estimate", "--data", "@six", "--n", "20", "--beta1", "2", "--beta2", "1",
                       "--p", "1", "--q", "1.5")),
    # interval / p
    (2, "beta1 must not exceed beta2", ("estimate", "--t", "5", "--h", H6, "--beta1", "2",
                                        "--beta2", "1", "--p", "0", "--q", "0.5")),
    (2, "beta1 must not exceed beta2", ("estimate", "--data", "@six", "--n", "20", "--beta1", "2",
                                        "--beta2", "1", "--p", "0", "--q", "0.5")),
    # p / t
    (3, "p=-0.1 gives weight", ("estimate", "--t", "-1", "--h", H6, *_EST,
                                "--p", "-0.1", "--q", "0.5")),
    (3, "p must be nonzero", ("estimate", "--data", "@tied", "--n", "20", *_EST,
                              "--p", "0", "--q", "0.5")),
    # p / design, and p / data file
    (3, "p must be nonzero", ("estimate", "--t", "5", "--h", "33.3", *_EST,
                              "--p", "0", "--q", "0.5")),
    (3, "p must be nonzero", ("estimate", "--data", "@one", "--n", "20", *_EST,
                              "--p", "0", "--q", "0.5")),
    (3, "p=-6.0 violates", ("estimate", "--data", "@one", "--n", "20", "--h", H6, *_EST,
                            "--p", "-6", "--q", "0.5")),
    (3, "p must be nonzero", ("estimate", "--data", "/no/such/file.dat", "--n", "20", *_EST,
                              "--p", "0", "--q", "0.5")),
    # without --h, p's admissibility waits for the design's h, so the design goes first
    (2, "m must be an integer >= 2", ("estimate", "--data", "@one", "--n", "20", *_EST,
                                      "--p", "-6", "--q", "0.5")),
]


def _with_data_files(tmp_path, argv) -> list:
    """argv with each `_DATA` name replaced by the path of a file holding it."""
    out = []
    for arg in argv:
        if arg in _DATA:
            path = tmp_path / f"{arg[1:]}.dat"
            path.write_bytes(_DATA[arg])
            arg = str(path)
        out.append(arg)
    return out


@pytest.mark.parametrize(
    "code, argv",
    [
        # risk: each bad flag alone, then bad flags paired with p = 0
        (2, ("risk", "--h", "4", "--p", "1", "--q", "0.5", "--delta", "1")),
        (2, ("risk", "--h", "nan", "--p", "1", "--q", "0.5", "--delta", "1")),
        (2, ("risk", "--h", H6, "--p", "nan", "--q", "0.5", "--delta", "1")),
        (3, ("risk", "--h", H6, "--p", "-0.1", "--q", "0.5", "--delta", "1")),
        (2, ("risk", "--h", H6, "--p", "1", "--q", "0", "--delta", "1")),
        (2, ("risk", "--h", H6, "--p", "1", "--q", "inf", "--delta", "1")),
        (2, ("risk", "--h", H6, "--p", "1", "--q", "1.5", "--delta", "1")),
        (2, ("risk", "--h", H6, "--p", "1", "--q", "0.5", "--delta", "-1")),
        (2, ("risk", "--h", H6, "--p", "1", "--q", "0.5",
             "--delta1", "0", "--delta2", "1", "--modified")),
        (2, ("risk", "--h", H6, "--p", "1", "--q", "0.5",
             "--delta1", "1.2", "--delta2", "0.8", "--modified")),
        (2, ("risk", "--h", H6, "--p", "1", "--q", "0.5", "--delta2", "0.8")),
        (2, ("risk", "--h", "3", "--p", "0", "--q", "0.5", "--delta", "1")),
        (2, ("risk", "--h", "3", "--p", "-6", "--q", "0.5", "--delta", "1")),
        (2, ("risk", "--h", H6, "--p", "0", "--q", "0", "--delta", "1")),
        (2, ("risk", "--h", H6, "--p", "-6", "--q", "0", "--delta", "1")),
        (2, ("risk", "--h", H6, "--p", "0", "--q", "0.5", "--delta", "-1")),
        (3, ("risk", "--h", H6, "--p", "0", "--q", "0.5",
             "--delta1", "1.2", "--delta2", "0.8", "--modified")),
        # h/2 above the accuracy bound of the incomplete gamma function
        (2, ("risk", "--h", "1e16", "--p", "1", "--q", "0.5",
             "--delta1", "1", "--delta2", "1.0001", "--modified")),
        (2, ("risk", "--h", "1e300", "--p", "1", "--q", "0.5",
             "--delta1", "1", "--delta2", "1.0001", "--modified")),
        # dominance
        (2, ("dominance", "--h", "4", "--p", "1", "--q", "0.5")),
        (2, ("dominance", "--h", "inf", "--p", "1", "--q", "0.5")),
        (3, ("dominance", "--h", H6, "--p", "-3", "--q", "0.5")),
        (3, ("dominance", "--h", H6, "--p", "1e-300", "--q", "0.5")),
        (2, ("dominance", "--h", H6, "--p", "1", "--q", "-0.5")),
        (2, ("dominance", "--h", H6, "--p", "1", "--q", "1.5")),
        (2, ("dominance", "--h", "3", "--p", "0", "--q", "0.5")),
        (2, ("dominance", "--h", "3", "--p", "-6", "--q", "0.5")),
        (2, ("dominance", "--h", H6, "--p", "0", "--q", "0")),
        (2, ("dominance", "--h", H6, "--p", "-6", "--q", "0")),
        # table
        (3, ("table", "31", "--design", "6:nan")),
        (3, ("table", "51", "--design", "6:5")),
        (3, ("table", "31", "--rows", "1.2:0.8")),
        (3, ("table", "51", "--rows", "0:1")),
        (3, ("table", "31", "--m", "7")),
        (3, ("table", "31", "--p", "0")),
        (3, ("table", "51", "--q", "2")),
        (2, ("table", "31", "--design", "x")),
        # a table design's m follows the design's m rule
        (3, ("table", "31", "--design=-3:10.85", "--rows", "1:2", "--p", "1", "--q", "0.5")),
        (2, ("table", "41")),
        # estimate --t
        (2, ("estimate", "--t", "0", "--h", H6, *_EST, "--p", "1", "--q", "0.5")),
        (2, ("estimate", "--t", "nan", "--h", H6, *_EST, "--p", "1", "--q", "0.5")),
        (2, ("estimate", "--t", "5", "--h", "nan", *_EST, "--p", "1", "--q", "0.5")),
        # --t takes no design, and estimate has no --m
        (2, ("estimate", "--t", "5", "--h", H6, "--m", "6", *_EST, "--p", "1", "--q", "0.5")),
        (2, ("estimate", "--t", "5", "--h", H6, "--beta1", "-1", "--beta2", "2",
             "--p", "1", "--q", "0.5")),
        (2, ("estimate", "--t", "5", "--h", H6, *_EST, "--p", "nan", "--q", "0.5")),
        (3, ("estimate", "--t", "5", "--h", H6, *_EST, "--p", "-6", "--q", "0.5")),
        (2, ("estimate", "--t", "5", "--h", H6, *_EST, "--p", "1", "--q", "0")),
        (2, ("estimate", "--t", "5", "--h", "3", *_EST, "--p", "0", "--q", "0.5")),
        (3, ("estimate", "--t", "0", "--h", H6, *_EST, "--p", "0", "--q", "0.5")),
        (3, ("estimate", "--t", "0", "--h", H6, *_EST, "--p", "-6", "--q", "0.5")),
        (2, ("estimate", "--t", "5", "--h", H6, "--beta1", "-1", "--beta2", "2",
             "--p", "0", "--q", "0.5")),
        (2, ("estimate", "--t", "5", "--h", H6, "--beta1", "-1", "--beta2", "2",
             "--p", "-6", "--q", "0.5")),
        (2, ("estimate", "--t", "5", "--h", H6, *_EST, "--p", "-6", "--q", "0")),
        (2, ("estimate", "--t", "5", "--h", H6, *_EST, "--p", "0", "--q", "1.5")),
        *((code, argv) for code, _, argv in _ESTIMATE_ORDER),
        # estimate has no --m (--data counts m in its file), so argparse rejects it
        # before every value check
        (2, ("estimate", "--data", "@six", "--n", "20", "--m", "8", *_EST,
             "--p", "1", "--q", "0.5")),
        (2, ("estimate", "--data", "@six", "--n", "20", "--m", "6", *_EST,
             "--p", "0", "--q", "0.5")),
        # k is always the exact bain_constant(m, n); no option sets it
        (2, ("estimate", "--data", "@six", "--n", "20", "--bain-k", "0.2", *_EST,
             "--p", "1", "--q", "0.5")),
        # mc verify
        (2, (*_VER, "--h", "3", "--p", "1", "--q", "0.5", "--delta", "1")),
        (2, (*_VER, "--h", "2", "--p", "1", "--q", "0.5", "--delta", "1")),
        (2, (*_VER, "--h", H6, "--p", "nan", "--q", "0.5", "--delta", "1")),
        (3, (*_VER, "--h", H6, "--p", "-0.1", "--q", "0.5", "--delta", "1")),
        (2, (*_VER, "--h", H6, "--p", "1", "--q", "0", "--delta", "1")),
        (2, (*_VER, "--h", H6, "--p", "1", "--q", "0.5", "--delta", "0")),
        (2, (*_VER, "--h", H6, "--p", "1", "--q", "0.5", "--delta1", "1.2", "--delta2", "0.8")),
        (2, (*_VER, "--h", H6, "--p", "1", "--q", "0.5", "--delta1", "0.8")),
        (2, (*_VER, "--h", H6, "--p", "1", "--q", "0.5", "--delta", "1", "--m", "1")),
        (2, (*_VER, "--h", H6, "--p", "1", "--q", "0.5", "--delta", "1", "--m", "21")),
        (2, (*_VER, "--h", H6, "--p", "1", "--q", "0.5", "--delta", "1", "--seed", "-1")),
        (3, ("mc", "verify", "--h", H6, "--p", "0", "--q", "0.5", "--delta", "1",
             "--reps", "500")),
        (2, (*_VER, "--h", "3", "--p", "0", "--q", "0.5", "--delta", "1")),
        (2, (*_VER, "--h", "3", "--p", "-3", "--q", "0.5", "--delta", "1")),
        (2, (*_VER, "--h", "2", "--p", "-0.1", "--q", "0.5", "--delta", "1")),
        (2, (*_VER, "--h", H6, "--p", "0", "--q", "0", "--delta", "1")),
        (2, (*_VER, "--h", H6, "--p", "0", "--q", "0.5", "--delta", "0")),
        (2, (*_VER, "--h", H6, "--p", "-0.1", "--q", "0.5", "--delta", "0")),
        (3, (*_VER, "--h", H6, "--p", "-0.1", "--q", "0.5", "--delta", "1", "--m", "1")),
        (3, (*_VER, "--h", H6, "--p", "-0.1", "--q", "0.5", "--delta", "1", "--seed", "-1")),
        (3, ("mc", "verify", "--h", H6, "--p", "-0.1", "--q", "0.5", "--delta", "1",
             "--reps", "500")),
        # mc estimate-k / estimate-h
        (2, ("mc", "estimate-k", "--n", "20", "--m", "1", "--reps", "1000")),
        (2, ("mc", "estimate-k", "--n", "5", "--m", "6", "--reps", "1000")),
        (2, ("mc", "estimate-k", "--n", "20", "--m", "6", "--reps", "1")),
        (2, ("mc", "estimate-k", "--n", "20", "--m", "6", "--reps", "1000", "--seed", "-1")),
        (2, ("mc", "estimate-h", "--n", "20", "--m", "1", "--reps", "1000")),
        (2, ("mc", "estimate-h", "--n", "5", "--m", "6", "--reps", "1000")),
        (2, ("mc", "estimate-h", "--n", "20", "--m", "6", "--reps", "0")),
        (2, ("mc", "estimate-h", "--n", "20", "--m", "6", "--reps", "1000", "--seed", "-1")),
        (2, ("mc", "estimate-h", "--n", "5", "--m", "1", "--reps", "1")),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_bad_input_exit_code(tmp_path, capsys, code, argv):
    got, out, err = run(capsys, *_with_data_files(tmp_path, argv))
    assert got == code, err
    assert out == ""
    assert err != ""


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    argv = ("estimate", "--data", "@six", "--n", "20", *_EST, "--p", "1", "--q", "0.5")
    got, six, err = run(capsys, *_with_data_files(tmp_path, argv))
    assert got == 0, err
    bom = ["@bom" if arg == "@six" else arg for arg in argv]
    assert run(capsys, *_with_data_files(tmp_path, bom)) == (0, six, "")


def test_undecodable_data_file_names_its_line(tmp_path, capsys):
    argv = ("estimate", "--data", "@latin1", "--n", "20", *_EST, "--p", "1", "--q", "0.5")
    got, out, err = run(capsys, *_with_data_files(tmp_path, argv))
    assert (got, out) == (2, "")
    assert err.startswith(f"{tmp_path / 'latin1.dat'}:3: 'utf-8' codec can't decode"), err


@pytest.mark.parametrize(
    "code, first, argv", _ESTIMATE_ORDER, ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v)
)
def test_estimate_reports_the_first_bad_input_in_risk_order(tmp_path, capsys, code, first, argv):
    got, out, err = run(capsys, *_with_data_files(tmp_path, argv))
    assert (got, out) == (code, "")
    assert err.startswith(first), err


# --- the script path: run() flushes, then ends the process with os._exit ------

_RISK = ("risk", "--h", H6, "--p", "-2", "--q", "0.25", "--delta", "4.0",
         "--modified", "--delta1", "3.8", "--delta2", "4.2")
_DOM = ("dominance", "--h", H6, "--p", "1", "--q", "0.5")
_PIVOT = ("estimate", "--t", "8.8519", "--h", H6, "--p", "1", "--q", "0.5",
          "--beta1", "0.8", "--beta2", "3.2")
_FORMATS = ("text", "csv", "json")
# every subcommand, and every exit code: 0 to 5
_SCRIPT_ARGVS = [
    ("--help",),
    *((*_RISK, "--format", fmt) for fmt in _FORMATS),
    *((*_DOM, "--format", fmt) for fmt in _FORMATS),
    *((*_PIVOT, "--format", fmt) for fmt in _FORMATS),
    ("estimate", "--data", "@six", "--n", "20", *_EST, "--p", "1", "--q", "0.5",
     "--format", "csv"),
    ("table", "31", "--m", "6", "--p", "1", "--q", "0.5", "--diff"),
    ("table", "51", "--diff", "--format", "json"),  # about 212 KB in one write
    ("mc", "verify", "--h", "10", "--p", "1", "--q", "0.5", "--delta", "1",
     "--reps", "1000", "--seed", "44"),  # one MSE check fails: exit 1
    ("mc", "verify", "--h", H6, "--p", "1", "--q", "0.5", "--delta1", "0.8", "--delta2", "1.2",
     "--reps", "1000", "--seed", "7", "--format", "json"),
    ("mc", "estimate-k", "--n", "20", "--m", "6", "--reps", "1000", "--format", "csv"),
    ("mc", "estimate-k", "--n", "20", "--m", "6", "--reps", "1000", "--format", "json"),
    ("mc", "estimate-h", "--n", "20", "--m", "6", "--reps", "1000", "--format", "csv"),
    ("mc", "estimate-h", "--n", "20", "--m", "6", "--reps", "1000", "--format", "json"),
    ("risk", "--h", H6),  # argparse usage error: exit 2
    ("risk", "--h", H6, "--p", "1", "--q", "1.5", "--delta", "1"),  # exit 2
    ("dominance", "--h", H6, "--p", "-3", "--q", "0.5"),  # exit 3
    ("estimate", "--data", "@six", "--n", "30", *_EST, "--p", "1", "--q", "0.5"),  # exit 4
    ("table", "31", "--out", "/no/such/dir/table.csv"),  # exit 5
    ("table", "31", "--format", "csv", "--out", "@out"),
]


def _script(argv, cwd=None, stdout=subprocess.PIPE):
    # stdout stays buffered, as by default, so output left unflushed at os._exit is lost
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "weibull_shrink.cli", *argv], cwd=cwd,
                          env=dict(env, PYTHONPATH=str(_SRC)), stdout=stdout,
                          stderr=subprocess.PIPE)


def test_script_path_matches_main_in_process(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps alike in both processes
    codes = set()
    for argv in _SCRIPT_ARGVS:
        argv = _with_data_files(tmp_path, argv)
        outs = [tmp_path / "main.csv", tmp_path / "script.csv"]
        here, there = ([str(out) if a == "@out" else a for a in argv] for out in outs)
        code, out, err = run(capsys, *here)
        done = _script(there, cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr.decode("utf-8")) == (
            code, out.encode("utf-8"), err), argv
        if "@out" in argv:
            assert outs[0].read_bytes() == outs[1].read_bytes() != b""
        codes.add(code)
    assert codes == {0, 1, 2, 3, 4, 5}


class _FailingStdout(io.StringIO):
    """A stdout whose `method` raises `error`."""

    def __init__(self, method, error):
        super().__init__()
        setattr(self, method, self._raise)
        self.error = error

    def _raise(self, *_):
        raise self.error


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                   BrokenPipeError(32, "Broken pipe")], ids=repr)
def test_failed_stdout_write_exits_5_with_one_line(capsys, monkeypatch, method, error):
    # capsys patches sys.stdout first; the stub replaces it for main alone
    monkeypatch.setattr(sys, "stdout", _FailingStdout(method, error))
    code = main(["dominance", *_DOM[1:]])
    monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (5, f"cannot write stdout: {error}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_script_writing_to_a_full_device_exits_5():
    with open("/dev/full", "wb") as full:
        done = _script(["table", "51"], stdout=full)
    assert done.returncode == 5
    assert done.stderr == b"cannot write stdout: [Errno 28] No space left on device\n"


def test_run_flushes_then_ends_the_process_with_mains_code(monkeypatch):
    from weibull_shrink import cli

    events = []

    class Stream(io.StringIO):
        def __init__(self, name):
            super().__init__()
            self.name = name

        def flush(self):
            events.append(("flush", self.name))

    class Exit(BaseException):
        pass

    def fake_exit(code):
        events.append(("exit", code))
        raise Exit

    monkeypatch.setattr(sys, "argv", ["weibull-shrink", *_DOM])
    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))
    # the stub records the call and leaves the test process's collector on
    monkeypatch.setattr(gc, "disable", lambda: events.append(("gc.disable",)))
    monkeypatch.setattr(cli, "main", lambda: events.append(("main",)) or 3)
    monkeypatch.setattr(os, "_exit", fake_exit)
    with pytest.raises(Exit):
        cli.run()
    assert events == [("gc.disable",), ("main",), ("flush", "stdout"), ("flush", "stderr"),
                      ("exit", 3)]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_in_process_leaves_the_collector_as_it_found_it(capsys, enabled):
    # only the script entry turns the cyclic collector off, and never back on
    argvs = [_DOM, ("mc", "estimate-k", "--n", "20", "--m", "6", "--reps", "1000"),
             ("mc", "verify", "--h", H6, "--p", "1", "--q", "0.5", "--delta", "1",
              "--reps", "10"), ("risk", "--h", H6)]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv in argvs:
            main(list(argv))
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_console_script_and_main_block_call_the_same_entry():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    from weibull_shrink import cli

    with open(_SRC.parent / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["weibull-shrink"]
    module, _, name = entry.partition(":")
    assert module == cli.__name__
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    block = tree.body[-1]
    assert isinstance(block, ast.If) and ast.unparse(block.test) == "__name__ == '__main__'"
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{name}()"]
    assert callable(getattr(cli, name))


# --- scripts ------------------------------------------------------------------


def test_reproduce_tables_script(tmp_path, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"
    done = subprocess.run(
        [sys.executable, str(script), "--outdir", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(_SRC)), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    for which in ("31", "51"):
        _, out, _ = run(capsys, "table", which, "--format", "csv")
        assert (tmp_path / f"table_{which}.csv").read_bytes() == out.encode("utf-8")
        _, out, _ = run(capsys, "table", which, "--diff")
        assert (tmp_path / f"table_{which}_audit.txt").read_bytes() == out.encode("utf-8")
    lines = done.stdout.splitlines()
    assert lines[0].startswith("table 31: summary: 358/358 unambiguous cells")
    assert lines[1].startswith("table 31: range summary: 111 pass,")
    assert lines[2].startswith("table 51: summary: 218/324 unambiguous cells")
