"""Every seeded generator in the package comes from `langevin.sample_rng`.

`langevin` holds the one seed rule and the one generator constructor, so
no other module of `cdrm` may reach into `numpy.random`: this walks each
module's syntax tree and flags `np.random` (or `numpy.random`) read as an
attribute, and `numpy.random` imported by name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cdrm"
OWNER = "langevin.py"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != OWNER)


def random_reads(source: str) -> list[str]:
    """Lines of source that reach numpy.random, as `line N`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            reads = (
                node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            )
        elif isinstance(node, ast.Import):
            reads = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            reads = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names)
            )
        else:
            reads = False
        if reads:
            lines.append(f"line {node.lineno}")
    return lines


def test_modules_found():
    assert (PACKAGE / OWNER).exists() and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_langevin_reads_numpy_random(path):
    assert random_reads(path.read_text()) == []


def test_guard_sees_every_way_in():
    source = (
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy import random\n"
        "from numpy.random import default_rng\n"
        "rng = np.random.default_rng(0)\n"
        "x = np.zeros(3)\n"
    )
    assert random_reads(source) == ["line 2", "line 3", "line 4", "line 5"]
    assert random_reads((PACKAGE / OWNER).read_text()) != []
