"""Every public name of the package has a caller outside the tests.

A public top-level function or class of `weibull_shrink`, or a public method
of such a class, must be named somewhere in the package, `scripts/` or
`bench/`: by an `ast.Name`, an `ast.Attribute` or a `from ... import`. A
string literal does not count, so a name that only appears in a table of
strings (such as the benchmark tracer's layer list) has no caller. The names
whose only caller is `bench/` are pinned, so a name that gains or loses its
last caller outside the benchmark fails the test.

The version the package reports is the one `pyproject.toml` declares.
"""

import ast
from pathlib import Path

import pytest

import weibull_shrink

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weibull_shrink"


def _modules(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions():
    """(module, qualified name, bare name) of each public top-level function,
    class and method of a public class in the package."""
    for path, tree in _modules(PACKAGE):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def _referenced_names(*dirs):
    names = set()
    for _, tree in _modules(*dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    definitions = list(_public_definitions())
    assert len(definitions) > 50  # the scan found the package
    referenced = _referenced_names(PACKAGE, ROOT / "scripts", ROOT / "bench")
    unused = [f"{module}.{qualname}" for module, qualname, name in definitions
              if name not in referenced]
    assert unused == []


# the public names that only the benchmark calls
BENCH_ONLY = {
    "montecarlo.empirical_risk",
    "risk.rmse_unbiased",
    "risk.rmse_mmse",
    "risk.arb_mmse",
    "risk.bias_shrink",
    "risk.rmse_shrink",
    "risk.bias_modified",
    "risk.mse_modified",
    "tables.GridSpec.default_31",
    "tables.GridSpec.default_51",
}


def test_names_only_the_benchmark_calls_are_pinned():
    referenced = _referenced_names(PACKAGE, ROOT / "scripts")
    bench_only = {f"{module}.{qualname}" for module, qualname, name in _public_definitions()
                  if name not in referenced}
    assert bench_only == BENCH_ONLY


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert weibull_shrink.__version__ == declared
