"""Every module-level import in the package, its tests, its tools and the
benchmark is used.

No linter ships with the test environment, so this walks each source
file's syntax tree: a name bound by a top-level import statement must
be read somewhere in that file (`np.exp` reads `np`). `from __future__`
imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FOLDERS = ("src/cdrm", "tests", "tools", "perfbench", "perfbench/tests")
SOURCES = sorted(path for folder in FOLDERS for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, math as m\n"
        "from x import y, z\n"
        "print(os.sep, z)\n"
    )
    assert unused_imports(source) == ["line 2: m", "line 3: y"]
