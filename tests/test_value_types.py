"""The package's value types keep the behaviour of the frozen dataclasses
they replaced: constructor signature, read-only fields, equality, hash,
repr text, copying, pickling and field order.

Each type is compared with a frozen dataclass built here with the same field
names, which gives the reference repr, equality and hash. No type writes its
own constructor: `model.Frozen` generates each one from the type's slots.
"""

import ast
import copy
import dataclasses
import inspect
import io
import json
import math
import pickle
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import weibull_shrink
from weibull_shrink import cli
from weibull_shrink.model import (
    CensoredSample,
    Frozen,
    GuessInterval,
    PivotalContext,
    RiskReport,
    ShrinkageConfig,
    WeibullParams,
    _set,
)
from weibull_shrink.montecarlo import EmpiricalRisk, SimulationPlan
from weibull_shrink.risk import DominanceRange
from weibull_shrink.tables import AuditSummary, CellAudit, GridSpec, RangeAudit, TableCell

RANGE = DominanceRange(0.5, 1.5)

# type -> (keyword arguments in field order, one field changed)
SAMPLES = {
    WeibullParams: (dict(alpha=1.5, beta=2.0), dict(beta=3.0)),
    CensoredSample: (dict(n=20, observations=(0.5, 1.0, 1.5)), dict(n=21)),
    PivotalContext: (dict(h=10.8519, t=8.8519), dict(t=9.0)),
    GuessInterval: (dict(beta1=0.8, beta2=1.2), dict(beta1=0.9)),
    ShrinkageConfig: (dict(p=-1.0, q=0.5), dict(q=0.25)),
    RiskReport: (
        dict(estimator_id="MMSE", bias_over_beta=-0.2, arb=0.2, rmse=0.3, pre_vs_mmse=100.0),
        dict(estimator_id="UNBIASED"),
    ),
    SimulationPlan: (
        dict(replicates=1000, seed=3, params=WeibullParams(1.0, 1.0), n=20, m=6),
        dict(seed=4),
    ),
    EmpiricalRisk: (
        dict(mean=1.0, bias=0.0, mse=0.1, se_mean=0.01, se_mse=0.01, replicates=100),
        dict(mse=0.2),
    ),
    DominanceRange: (dict(lo=0.5, hi=1.5), dict(hi=2.5)),
    GridSpec: (
        dict(h_values=((6, 10.8519),), p_values=(1.0,), q_values=(0.5,),
             delta_rows=((0.8, 1.2),)),
        dict(q_values=(0.25,)),
    ),
    TableCell: (
        dict(m=6, h=10.8519, p=1.0, q=0.5, delta1=0.8, delta2=1.2, delta=1.0, pre=120.0,
             arb=0.1, mse_range=RANGE, arb_range=DominanceRange(0.2, 1.8), best=RANGE),
        dict(best=None),
    ),
    CellAudit: (
        dict(table="31", m=6, p=1.0, q=0.5, delta1=0.8, delta2=1.2, printed_pre=120.1,
             computed_pre=120.0, rel_err_pre=0.0008, status="pass", printed_arb=0.1,
             computed_arb=0.1001, abs_err_arb=0.0001, large=False),
        dict(large=True),
    ),
    RangeAudit: (
        dict(kind="mse", m=6, p=1.0, q=0.5, printed=(0.5, 1.5), computed=RANGE, status="pass"),
        dict(printed=None),
    ),
    AuditSummary: (
        dict(table="31", total=10, passed=8, artifacts=1, disagreements=1, large=0),
        dict(large=2),
    ),
}

# the field order of each type's former dataclass (PivotalContext has
# since dropped n and m, which no estimator read)
FIELDS = {
    WeibullParams: ("alpha", "beta"),
    CensoredSample: ("n", "observations"),
    PivotalContext: ("h", "t"),
    GuessInterval: ("beta1", "beta2"),
    ShrinkageConfig: ("p", "q"),
    RiskReport: ("estimator_id", "bias_over_beta", "arb", "rmse", "pre_vs_mmse"),
    SimulationPlan: ("replicates", "seed", "params", "n", "m"),
    EmpiricalRisk: ("mean", "bias", "mse", "se_mean", "se_mse", "replicates"),
    DominanceRange: ("lo", "hi"),
    GridSpec: ("h_values", "p_values", "q_values", "delta_rows"),
    TableCell: ("m", "h", "p", "q", "delta1", "delta2", "delta", "pre", "arb",
                "mse_range", "arb_range", "best"),
    CellAudit: ("table", "m", "p", "q", "delta1", "delta2", "printed_pre", "computed_pre",
                "rel_err_pre", "status", "printed_arb", "computed_arb", "abs_err_arb",
                "large"),
    RangeAudit: ("kind", "m", "p", "q", "printed", "computed", "status"),
    AuditSummary: ("table", "total", "passed", "artifacts", "disagreements", "large"),
}

# the defaults of trailing fields; every other field is required
DEFAULTS = {
    TableCell: dict(arb=None, mse_range=None, arb_range=None, best=None),
    CellAudit: dict(printed_arb=None, computed_arb=None, abs_err_arb=None, large=False),
}

TYPES = list(SAMPLES)


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


def _reference(obj):
    """A frozen dataclass with obj's name, fields and values."""
    cls = type(obj)
    ref = dataclasses.make_dataclass(cls.__name__, FIELDS[cls], frozen=True)
    return ref(*_values(obj))


def test_every_value_type_is_covered():
    assert len(TYPES) == 14
    assert all(not dataclasses.is_dataclass(cls) for cls in TYPES)


def test_no_value_type_writes_its_constructor():
    package = Path(weibull_shrink.__file__).resolve().parent
    found, hand_written = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "Frozen" for base in node.bases
            ):
                found.append(node.name)
                hand_written += [
                    f"{path.name}:{node.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                ]
    assert sorted(found) == sorted(cls.__name__ for cls in TYPES)
    assert hand_written == []


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters
    assert tuple(params) == FIELDS[cls]
    defaults = {
        name: param.default for name, param in params.items()
        if param.default is not inspect.Parameter.empty
    }
    assert defaults == DEFAULTS.get(cls, {})
    assert all(
        param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for param in params.values()
    )


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_argument_errors_name_the_constructor(cls):
    kwargs, _ = SAMPLES[cls]
    required = [name for name in FIELDS[cls] if name not in DEFAULTS.get(cls, {})]
    prefix = re.escape(f"{cls.__name__}.__init__()")
    missing = {k: v for k, v in kwargs.items() if k != required[-1]}
    with pytest.raises(TypeError, match=rf"^{prefix} missing 1 required positional "
                       rf"argument: '{required[-1]}'$"):
        cls(**missing)
    n = len(FIELDS[cls]) + 1  # self counts
    with pytest.raises(TypeError, match=rf"^{prefix} takes (from \d+ to )?{n} positional "
                       rf"arguments but {n + 1} were given$"):
        cls(*kwargs.values(), None)
    with pytest.raises(TypeError, match=rf"^{prefix} got an unexpected keyword argument 'extra'$"):
        cls(**kwargs, extra=1)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_keyword_and_positional_construction(cls):
    kwargs, _ = SAMPLES[cls]
    assert cls.__slots__ == FIELDS[cls]
    by_name = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert by_name == by_position
    assert _values(by_name) == tuple(kwargs.values())
    assert not hasattr(by_name, "__dict__")


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_fields_are_read_only(cls):
    obj = cls(**SAMPLES[cls][0])
    for name in FIELDS[cls]:
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        obj.extra = 1


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_equality_hash_and_repr_follow_the_dataclass(cls):
    kwargs, change = SAMPLES[cls]
    obj, same, other = cls(**kwargs), cls(**kwargs), cls(**{**kwargs, **change})
    assert obj == same and hash(obj) == hash(same)
    assert obj != other
    assert obj.__eq__(object()) is NotImplemented
    assert obj != _reference(obj)  # another class never compares equal
    assert hash(obj) == hash(_reference(obj))
    assert repr(obj) == repr(_reference(obj))
    assert repr(other) == repr(_reference(other))


def test_empty_range_equality_and_hash():
    empty = DominanceRange.empty()
    assert empty == DominanceRange.empty()
    assert hash(empty) == hash(DominanceRange.empty())
    assert hash(empty) == hash(_reference(empty))
    assert empty != RANGE
    assert repr(empty) == "DominanceRange(lo=nan, hi=nan)"


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_copy_deepcopy_and_pickle_round_trips(cls):
    obj = cls(**SAMPLES[cls][0])
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls
        assert twin == obj
        assert repr(twin) == repr(obj)


def test_empty_range_round_trips():
    empty = DominanceRange.empty()
    assert copy.copy(empty) == empty
    assert copy.deepcopy(empty) == empty
    # unpickling makes new NaN objects, which compare unequal, as they did
    # for the dataclass; the range is still empty and prints the same
    back = pickle.loads(pickle.dumps(empty))
    assert back.is_empty and repr(back) == repr(empty)


def test_constructors_still_normalise_and_check():
    sample = CensoredSample(n=20.0, observations=[1, 2])
    assert sample.n == 20 and type(sample.n) is int
    assert sample.observations == (1.0, 2.0) and sample.m == 2
    assert SimulationPlan(1000.0, 3.0, WeibullParams(1, 1), 20, 6).replicates == 1000
    spec = GridSpec([(6.0, 10)], [1], [0.5], [(1, 2)])
    assert spec.h_values == ((6, 10.0),) and spec.delta_rows == ((1.0, 2.0),)
    assert WeibullParams(1, 2).alpha == 1  # unnormalised fields keep their value
    message = r"need 0 <= lo < hi, got DominanceRange\(lo=2.0, hi=1.0\)"
    with pytest.raises(ValueError, match=message):
        DominanceRange(2.0, 1.0)
    with pytest.raises(ValueError, match="beta1 must not exceed beta2"):
        GuessInterval(2.0, 1.0)
    with pytest.raises(ValueError, match="pre must be finite"):
        TableCell(6, 10.8519, 1.0, 0.5, 0.8, 1.2, 1.0, math.nan)
    defaults = TableCell(6, 10.8519, 1.0, 0.5, 0.8, 1.2, 1.0, 42.0)
    assert (defaults.arb, defaults.mse_range, defaults.arb_range, defaults.best) == (None,) * 4
    audit = CellAudit("51", 6, 1.0, 0.5, 0.8, 1.2, 50.0, 49.0, 0.02, "pass")
    assert (audit.printed_arb, audit.computed_arb, audit.abs_err_arb, audit.large) == (
        None, None, None, False)


def _runs_check(cls) -> bool:
    """Whether the generated constructor calls _check."""
    return "_check" in cls.__init__.__code__.co_names


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_constructor_calls_check_only_where_a_type_defines_one(cls):
    assert _runs_check(cls) == (cls._check is not Frozen._check)


@pytest.mark.parametrize("cls", [CellAudit, RangeAudit], ids=lambda c: c.__name__)
def test_types_without_rules_still_behave_as_frozen_records(cls):
    assert "_check" not in vars(cls) and not _runs_check(cls)
    kwargs, change = SAMPLES[cls]
    obj = cls(**kwargs)
    assert _values(obj) == tuple(kwargs.values())
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert obj == cls(*kwargs.values()) and hash(obj) == hash(_reference(obj))
    assert obj != cls(**{**kwargs, **change})
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_an_inherited_check_still_runs():
    class Interval(GuessInterval):
        pass

    class Audit(CellAudit):
        def _check(self) -> None:
            if self.status not in ("pass", "fail"):
                raise ValueError(f"bad status {self.status!r}")

    assert _runs_check(Interval) and _runs_check(Audit)
    assert Interval(1.0, 2.0).midpoint == 1.5
    with pytest.raises(ValueError, match="beta1 must not exceed beta2"):
        Interval(2.0, 1.0)
    kwargs = SAMPLES[CellAudit][0]
    assert Audit(**kwargs).status == "pass"
    with pytest.raises(ValueError, match="bad status 'odd'"):
        Audit(**{**kwargs, "status": "odd"})


def test_a_normalising_check_stores_the_normalised_value():
    class Rounded(Frozen):
        __slots__ = ("x", "tags")

        def _check(self) -> None:
            _set(self, "x", round(self.x, 1))
            _set(self, "tags", tuple(self.tags))

    obj = Rounded(1.26, ["a"])
    assert (obj.x, obj.tags) == (1.3, ("a",))
    assert obj == Rounded(x=1.3, tags=("a",))
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        obj.x = 2.0


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_to_dict_key_order(cls):
    obj = cls(**SAMPLES[cls][0])
    assert list(obj.to_dict()) == list(FIELDS[cls])
    assert obj.to_dict() == dataclasses.asdict(_reference(obj))


def _cli(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_table_diff_audit_columns():
    argv = ["table", "31", "--m", "6", "--p", "1", "--q", "0.5", "--diff"]
    header = _cli([*argv, "--format", "csv"]).split("\r\n")[0]
    assert header == ",".join(FIELDS[CellAudit])
    doc = json.loads(_cli([*argv, "--format", "json"]))
    assert [list(a) for a in doc["audit"]] == [list(FIELDS[CellAudit])] * len(doc["audit"])
    assert [list(r) for r in doc["ranges"]] == [list(FIELDS[RangeAudit])] * len(doc["ranges"])
    assert doc["audit"] and doc["ranges"]
