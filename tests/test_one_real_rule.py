"""Every float knob of the package is checked by `langevin.checked_real`.

`langevin.checked_real` holds the one rule of a real-valued knob, so no
other function of `cdrm` may call `math.isfinite` on its own: this walks
each module's syntax tree and flags `math.isfinite` read as an attribute
and `isfinite` imported from `math`, named by the module and function they
sit in. Two functions parse text rather than check a knob, and keep theirs:
`cli._real` reads a number from a flag or a config file, and
`data.load_csv` checks the rows of a CSV file.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cdrm"
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {"langevin.checked_real", "cli._real", "data.load_csv"}


def isfinite_calls(source: str, module: str) -> list[str]:
    """Where source reaches `math.isfinite`, as `module.function` (the
    module alone at top level) with the line."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Attribute):
            reads = (
                node.attr == "isfinite"
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
            )
        elif isinstance(node, ast.ImportFrom):
            reads = node.module == "math" and any(alias.name == "isfinite" for alias in node.names)
        else:
            reads = False
        if reads:
            found.append(f"{where} line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def test_modules_found():
    assert len(MODULES) > 5 and (PACKAGE / "langevin.py") in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_but_the_rule_checks_finiteness(path):
    calls = isfinite_calls(path.read_text(), path.stem)
    assert [call for call in calls if call.split(" ")[0] not in ALLOWED] == []


def test_the_allowed_functions_exist_and_call_it():
    seen = {
        call.split(" ")[0]
        for path in MODULES
        for call in isfinite_calls(path.read_text(), path.stem)
    }
    assert seen == ALLOWED


def test_guard_sees_every_way_in():
    source = (
        "import math\n"
        "from math import isfinite\n"
        "x = math.isfinite(1.0)\n"
        "def f(v):\n"
        "    return math.isfinite(v)\n"
        "class C:\n"
        "    def g(self, v):\n"
        "        return np.isfinite(v) and math.isnan(v)\n"
        "    def h(self, v):\n"
        "        return math.isfinite(v)\n"
    )
    assert isfinite_calls(source, "m") == [
        "m line 2",
        "m line 3",
        "m.f line 5",
        "m.C.h line 10",
    ]
