"""Every file the package writes goes through `data.write_csv` or `data.write_json`.

`data` holds the one text format of cdrm's artifacts, so no other module
of `cdrm` may open a file for writing or call `json.dump`: this walks each
module's syntax tree and flags `json.dump` read as an attribute, `dump`
imported from `json`, and an `open(...)` or `x.open(...)` call whose mode
writes (has `w`, `a`, `x` or `+`) or is not a literal.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cdrm"
OWNER = "data.py"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != OWNER)


def _mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of an open call: its keyword, else the positional
    argument after the path of `open`, or the first one of a method such
    as `Path.open`."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    position = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[position] if len(call.args) > position else None


def _opens_to_write(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name != "open":
        return False
    mode = _mode(call)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def writes(source: str) -> list[str]:
    """Lines of source that write a file, as `line N`."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found = (
                node.attr == "dump" and isinstance(node.value, ast.Name) and node.value.id == "json"
            )
        elif isinstance(node, ast.ImportFrom):
            found = node.module == "json" and any(alias.name == "dump" for alias in node.names)
        elif isinstance(node, ast.Call):
            found = _opens_to_write(node)
        else:
            found = False
        if found:
            lines.add(node.lineno)
    return [f"line {n}" for n in sorted(lines)]


def test_modules_found():
    assert (PACKAGE / OWNER).exists() and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_data_writes_a_file(path):
    assert writes(path.read_text()) == []


def test_guard_sees_every_way_in():
    source = (
        "import json\n"
        "from json import dump, dumps, load\n"
        "json.dump({}, fh)\n"
        "open(path, 'w')\n"
        "open(path, mode='a')\n"
        "open(path, 'r+')\n"
        "open(path, kind)\n"
        "path.open('x')\n"
        "io.open(path, 'wb')\n"
        "open(path)\n"
        "open(path, 'rb')\n"
        "path.open()\n"
        "json.dumps({})\n"
        "json.load(fh)\n"
    )
    assert writes(source) == [f"line {n}" for n in (2, 3, 4, 5, 6, 7, 8, 9)]
    assert writes((PACKAGE / OWNER).read_text()) != []
