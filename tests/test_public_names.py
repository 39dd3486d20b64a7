"""Every public name of the package has a caller outside the tests.

A public top-level function or class of `weibull_shrink`, or a public method
of such a class, must be named somewhere in the package, `scripts/` or
`bench/`: by an `ast.Name`, an `ast.Attribute` or a `from ... import`. A
string literal does not count, so a name that only appears in a table of
strings (such as the benchmark tracer's layer list) has no caller.

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


def _referenced_names():
    names = set()
    for _, tree in _modules(PACKAGE, ROOT / "scripts", ROOT / "bench"):
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
    referenced = _referenced_names()
    unused = [f"{module}.{qualname}" for module, qualname, name in definitions
              if name not in referenced]
    assert unused == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert weibull_shrink.__version__ == declared
