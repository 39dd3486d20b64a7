"""The document writer: exact output bytes of each subcommand's document, and
the value rules that only `writers` holds.

The full-byte pins run numpy-free subcommands only (risk, dominance,
estimate --t, table), so an upgrade of numpy cannot move them; `mc verify`
pins only its csv header and json keys.
"""

import hashlib
import json

import pytest

from weibull_shrink import writers
from weibull_shrink.cli import main
from weibull_shrink.risk import DominanceRange

POINT = ["--h", "10.8519", "--p", "1", "--q", "0.5"]
RISK = ["risk", *POINT, "--delta", "1.2"]
RISK_MODIFIED = ["risk", *POINT, "--delta1", "0.8", "--delta2", "1.2", "--modified"]


def out(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


# --- risk --------------------------------------------------------------------

RISK_TEXT = (
    "estimator                  bias        arb       rmse          pre\n"
    "UNBIASED                 0.0000     0.0000     0.2919      77.4060\n"
    "MMSE                    -0.2259     0.2259     0.2259     100.0000\n"
)
RISK_CSV = (
    "estimator,bias,arb,rmse,pre\r\n"
    "UNBIASED,0,0,0.29188984077409186,77.405980636925406\r\n"
    "MMSE,-0.22594019363074594,0.22594019363074594,0.22594019363074594,100\r\n"
)


def _risk_json(*reports) -> str:
    rows = [
        ("UNBIASED", "0.0", "0.0", "0.29188984077409186", "77.4059806369254"),
        ("MMSE", "-0.22594019363074594", "0.22594019363074594", "0.22594019363074594",
         "100.0"),
        *reports,
    ]
    items = [
        '  {\n    "estimator_id": "%s",\n    "bias_over_beta": %s,\n    "arb": %s,\n'
        '    "rmse": %s,\n    "pre_vs_mmse": %s\n  }' % row
        for row in rows
    ]
    return "[\n" + ",\n".join(items) + "\n]\n"


def test_risk_bytes(capsys):
    assert out(capsys, *RISK) == RISK_TEXT + (
        "SHRINK_PQ               -0.1245     0.1245     0.1540     146.7434\n"
    )
    assert out(capsys, *RISK, "--format", "csv") == RISK_CSV + (
        "SHRINK_PQ,-0.12449521082485858,0.12449521082485858,0.15396957091322214,"
        "146.74340669435699\r\n"
    )
    assert out(capsys, *RISK, "--format", "json") == _risk_json(
        ("SHRINK_PQ", "-0.12449521082485858", "0.12449521082485858", "0.15396957091322214",
         "146.743406694357"),
    )


def test_risk_modified_bytes(capsys):
    assert out(capsys, *RISK_MODIFIED) == RISK_TEXT + (
        "SHRINK_PQ               -0.1556     0.1556     0.1627     138.8796\n"
        "SHRINK_PQ_MODIFIED      -0.0939     0.0939     0.0387     584.2579\n"
    )
    assert out(capsys, *RISK_MODIFIED, "--format", "csv") == RISK_CSV + (
        "SHRINK_PQ,-0.15561901353107321,0.15561901353107321,0.16268779076728052,"
        "138.87962493383776\r\n"
        "SHRINK_PQ_MODIFIED,-0.093895930645863435,0.093895930645863435,"
        "0.038671314799637702,584.25785314354687\r\n"
    )
    assert out(capsys, *RISK_MODIFIED, "--format", "json") == _risk_json(
        ("SHRINK_PQ", "-0.1556190135310732", "0.1556190135310732", "0.16268779076728052",
         "138.87962493383776"),
        ("SHRINK_PQ_MODIFIED", "-0.09389593064586343", "0.09389593064586343",
         "0.0386713147996377", "584.2578531435469"),
    )


# --- dominance ---------------------------------------------------------------

EMPTY_DOMINANCE = ["dominance", "--h", "10.8519", "--p", "0.5", "--q", "0.5"]


def test_dominance_bytes_with_an_empty_range(capsys):
    # an empty range is `empty` in text, empty fields in csv and [] in json
    assert out(capsys, *EMPTY_DOMINANCE) == (
        "mse_range = empty\narb_range = (0.0000, 5.8498)\nbest = empty\n"
    )
    assert out(capsys, *EMPTY_DOMINANCE, "--format", "csv") == (
        "range,lo,hi\r\nmse_range,,\r\narb_range,0,5.8497607862464021\r\nbest,,\r\n"
    )
    assert out(capsys, *EMPTY_DOMINANCE, "--format", "json") == (
        '{\n  "mse_range": [],\n  "arb_range": [\n    0.0,\n    5.849760786246402\n  ],\n'
        '  "best": []\n}\n'
    )


# --- estimate ----------------------------------------------------------------


def test_estimate_t_csv_bytes(capsys):
    argv = ["estimate", "--t", "9.5", "--h", "10.8519", "--p", "1", "--q", "0.5",
            "--beta1", "0.8", "--beta2", "1.2", "--format", "csv"]
    assert out(capsys, *argv) == (
        "n,m,h,t,scale_estimate,bain_k,beta_unbiased,beta_mmse,beta_shrink,"
        "beta_shrink_truncated,delta_hat,q_select,p_admissible\r\n"
        ",,10.851900000000001,9.5,,,0.93177894736842115,0.72125263157894748,"
        "0.79739291966250336,0.79739291966250336,0.87542273703222473,1.1423052631578947,"
        "true\r\n"
    )


# --- table --diff ------------------------------------------------------------

DIFF = ["table", "31", "--m", "6", "--p", "1", "--q", "0.5", "--diff"]


def test_table_diff_csv_bytes(capsys):
    rows = [
        "0.10000000000000001,0.20000000000000001,102.06999999999999,102.0718150205327,"
        "1.7782115535448372e-05,pass,0.28789999999999999,0.28789517503248546,"
        "4.824967514527323e-06",
        "0.40000000000000002,0.59999999999999998,117.09,117.09209724296596,"
        "1.7911375573997499e-05,pass,0.2334,0.23342852029660982,2.8520296609824136e-05",
        "0.40000000000000002,1.6000000000000001,138.88,138.87962493383776,"
        "2.7006492096400932e-06,pass,0.15559999999999999,0.15561901353107321,"
        "1.9013531073225343e-05",
        "1,2,156.33000000000001,156.33312929712977,2.0017252797033766e-05,pass,"
        "0.077799999999999994,0.077809506765536607,9.5067655366126713e-06",
        "1.6000000000000001,2.3999999999999999,163.16999999999999,163.16845232341993,"
        "9.4850559542804595e-06,pass,0,0,0",
        "2,3,156.33000000000001,156.33312929712977,2.0017252797033766e-05,pass,"
        "0.077799999999999994,0.077809506765536607,9.5067655366126713e-06",
        "2.5,3.5,138.88,138.87962493383776,2.7006492096400932e-06,pass,"
        "0.15559999999999999,0.15561901353107321,1.9013531073225343e-05",
        "3.5,3.5,117.09,117.09209724296596,1.7911375573997499e-05,pass,0.2334,"
        "0.23342852029660982,2.8520296609824136e-05",
        "3.7999999999999998,4.2000000000000002,96.010000000000005,96.006014992934993,"
        "4.1506166701508322e-05,pass,0.31119999999999998,0.31123802706214643,"
        "3.8027062146450685e-05",
    ]
    assert out(capsys, *DIFF, "--format", "csv") == (
        "table,m,p,q,delta1,delta2,printed_pre,computed_pre,rel_err_pre,status,"
        "printed_arb,computed_arb,abs_err_arb,large\r\n"
        + "".join(f"31,6,1,0.5,{row},false\r\n" for row in rows)
    )


def test_table_diff_json_bytes(capsys):
    text = out(capsys, *DIFF, "--format", "json")
    assert len(text) == 8414
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fe85813cee1fb2eaef00a8ff8e4883a357ed9a5887201d71f57510e50e4df3c1"
    )
    ranges = json.loads(text)["ranges"]
    assert ranges[0] == {"kind": "mse", "m": 6, "p": 1.0, "q": 0.5, "printed": [0.1, 3.9],
                         "computed": [0.09950771278889614, 3.9004922872111036],
                         "status": "pass"}


# --- mc verify ---------------------------------------------------------------


def test_mc_verify_csv_header_and_json_keys(capsys):
    argv = ["mc", "verify", *POINT, "--delta1", "0.8", "--delta2", "1.2", "--reps", "1000"]
    header = out(capsys, *argv, "--format", "csv").split("\r\n")[0]
    assert header == "estimator,metric,empirical,analytic,three_se,status"
    records = json.loads(out(capsys, *argv, "--format", "json"))
    assert len(records) == 8
    assert {tuple(r) for r in records} == {
        ("estimator", "metric", "empirical", "analytic", "three_se", "status")
    }


# --- value rules -------------------------------------------------------------


def test_render_prints_each_value_by_its_format():
    doc = {"a": 0.5, "b": None, "c": True, "d": 3, "e": DominanceRange(0.25, 1.5),
           "f": DominanceRange.empty()}
    assert writers.render("text", doc) == (
        "a = 0.5000\nb = -\nc = yes\nd = 3\ne = (0.2500, 1.5000)\nf = empty\n"
    )
    assert writers.render("json", doc) == (
        '{\n  "a": 0.5,\n  "b": null,\n  "c": true,\n  "d": 3,\n  "e": [\n    0.25,\n'
        '    1.5\n  ],\n  "f": []\n}\n'
    )
    del doc["e"], doc["f"]
    assert writers.render("csv", doc) == "a,b,c,d\r\n0.5,,true,3\r\n"


def test_render_takes_a_subcommands_text_and_table():
    doc = [{"x": 1.0}, {"x": 2.0}]
    assert writers.render("text", doc, text=lambda d: f"{len(d)} records\n") == "2 records\n"
    assert writers.render("csv", doc) == "x\r\n1\r\n2\r\n"
    assert writers.render("csv", doc, table=(["y"], [[0.1]])) == "y\r\n0.10000000000000001\r\n"


def test_json_encodes_only_ranges():
    with pytest.raises(TypeError, match="not JSON serializable"):
        writers.render("json", {"x": object()})
    with pytest.raises(TypeError):
        writers.render("json", {"x": {1.0, 2.0}})
    with pytest.raises(ValueError):
        writers.render("json", {"x": float("nan")})
