"""One table of rules about where code may live, checked on syntax trees.

A row of GUARDS is a detector, the files it reads, the sites allowed to do
what it finds, and a seeded source with the lines the detector must flag.
A site is `module.function` (`module.Class.method`; the module alone at
top level). Any other site fails the row, and every allowed site must still
be found, so no row keeps a name that has gone. No linter ships with the
test environment, hence the walkers.
"""

import ast
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cdrm"
MODULES = sorted(PACKAGE.glob("*.py"))
FOLDERS = ("src/cdrm", "tests", "tools", "perfbench", "perfbench/tests")
SOURCES = sorted(path for folder in FOLDERS for path in (ROOT / folder).glob("*.py"))


def each(flags: Callable[[ast.AST], bool]) -> Callable[[ast.Module], list[ast.AST]]:
    """The detector of the nodes that `flags` is true for."""
    return lambda tree: [node for node in ast.walk(tree) if flags(node)]


def _is(node: ast.AST, owner: str, attr: str) -> bool:
    """node reads `owner.attr`."""
    if not (isinstance(node, ast.Attribute) and node.attr == attr):
        return False
    return isinstance(node.value, ast.Name) and node.value.id == owner


def _imports_from(node: ast.AST, module: str, name: str) -> bool:
    """node is `from module import name`."""
    found = isinstance(node, ast.ImportFrom) and node.module == module
    return found and any(alias.name == name for alias in node.names)


def reads_numpy_random(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or _imports_from(node, "numpy", "random")
    return _is(node, "np", "random") or _is(node, "numpy", "random")


def _opens_to_write(call: ast.Call) -> bool:
    """An open call (`open(path, mode)` or a method such as `Path.open(mode)`)
    whose mode writes (has `w`, `a`, `x` or `+`) or is not a literal."""
    func = call.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "open":
        return False
    position = 1 if isinstance(func, ast.Name) else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position:][:1]
    if modes and isinstance(modes[0], ast.Constant) and isinstance(modes[0].value, str):
        return bool(set(modes[0].value) & set("wax+"))
    return bool(modes)


def writes_a_file(node: ast.AST) -> bool:
    opens = isinstance(node, ast.Call) and _opens_to_write(node)
    return opens or _is(node, "json", "dump") or _imports_from(node, "json", "dump")


CONVERSIONS = ("asarray", "asanyarray", "atleast_1d")


def converts_an_array(node: ast.AST) -> bool:
    """node reads numpy's `asarray`, `asanyarray` or `atleast_1d`, so an alias
    of one is caught where it is made."""
    return any(
        _is(node, "np", name) or _is(node, "numpy", name) or _imports_from(node, "numpy", name)
        for name in CONVERSIONS
    )


def defines_a_rule(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
        node.name.startswith("checked_") or node.name == "is_integer"
    )


def imports_cdrm(flagged: Callable[[str], bool]) -> Callable[[ast.AST], bool]:
    """A test of imports that name a cdrm module `flagged` is true for,
    relative (`from . import m`, `from .m import x`) or absolute
    (`import cdrm.m`, `from cdrm import m`)."""

    def flags(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = f"cdrm.{node.module or ''}".rstrip(".") if node.level else node.module or ""
            paths = [f"{base}.{a.name}" for a in node.names] if base == "cdrm" else [base]
        else:
            return False
        return any(flagged(p.split(".")[1]) for p in paths if p.startswith("cdrm."))

    return flags


def unused_imports(tree: ast.Module) -> list[ast.AST]:
    """The top-level imports binding a name the file never reads (`np.exp`
    reads `np`); `from __future__` imports bind nothing."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    flagged = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        if not used.issuperset(bound):
            flagged.append(node)
    return flagged


class Guard(NamedTuple):
    detector: Callable[[ast.Module], list[ast.AST]]
    files: list[Path]
    allowed: set[str]
    seeded: list[str]  # the lines of a source the detector must flag ...
    flags: list[int]  # ... on these lines


IMPORTS = ["from . import kde, langevin", "from .errors import InvalidInputError"]
IMPORTS += ["from .langevin import run", "from .rules import checked_count"]
IMPORTS += ["from cdrm import langevin", "import cdrm.langevin, numpy as np"]
IMPORTS += ["from cdrm.rules import derive_seed"]

GUARDS = {
    # every seeded generator comes from rules.sample_rng; the chain's
    # stream code seeds its own PCG64s
    "numpy.random": Guard(
        each(reads_numpy_random),
        MODULES,
        {"rules.sample_rng", "langevin._draw_streams", "langevin._Words"},
        ["import numpy as np", "import numpy.random", "from numpy import random"]
        + ["from numpy.random import default_rng", "rng = np.random.default_rng(0)"]
        + ["x = np.zeros(3)"],
        [2, 3, 4, 5],
    ),
    # cdrm's artifacts have one text format
    "file writes": Guard(
        each(writes_a_file),
        MODULES,
        {"data.write_csv", "data.write_json"},
        ["import json", "from json import dump, dumps, load", "json.dump({}, fh)"]
        + ["open(path, 'w')", "open(path, mode='a')", "open(path, 'r+')", "open(path, kind)"]
        + ["path.open('x')", "io.open(path, 'wb')", "open(path)", "open(path, 'rb')"]
        + ["path.open()", "json.dumps({})", "json.load(fh)"],
        [2, 3, 4, 5, 6, 7, 8, 9],
    ),
    # checked_real is the one rule of a float knob; cli._real reads a
    # number from text and data.load_csv checks the rows of a CSV file
    "math.isfinite": Guard(
        each(lambda node: _is(node, "math", "isfinite") or _imports_from(node, "math", "isfinite")),
        MODULES,
        {"rules.checked_real", "cli._real", "data.load_csv"},
        ["import math", "from math import isfinite", "x = math.isfinite(1.0)", "def f(v):"]
        + ["    return math.isfinite(v)", "class C:", "    def g(self, v):"]
        + ["        return np.isfinite(v) and math.isnan(v)", "    def h(self, v):"]
        + ["        return math.isfinite(v)"],
        [2, 3, 5, 10],
    ),
    # every argument rule lives in rules
    "argument rules": Guard(
        each(defines_a_rule),
        MODULES,
        {f"rules.{name}" for name in ("is_integer", "checked_count", "checked_real")}
        | {f"rules.checked_{name}" for name in ("widths", "instance", "array", "layout")}
        | {"rules.checked_query", "rules.checked_tolerance"},
        ["def checked_width(w):", "    return w", "class C:", "    def is_integer(self):"]
        + ["        return is_integer(self.n)", "async def checked_seed(s):", "    pass"]
        + ["def unchecked(v):", "    checked = checked_count('v', v)"],
        [1, 4, 6],
    ),
    # every argument array goes through rules.checked_array; the others cast
    # arrays cdrm made itself: the network's per-pass checks and sigmoid, the
    # score casts of the chain's per-step path, and the stream hash's words
    "array conversions": Guard(
        each(converts_an_array),
        MODULES,
        {"rules.checked_array", "nnet.sigmoid", "langevin._stream_words"}
        | {f"nnet.MlpNetwork.{name}" for name in ("_check_batch", "grad_params_batch")}
        | {"model.score_batch", "model.score_and_grad"},
        ["import numpy as np", "x = np.asarray(v)", "y = numpy.asanyarray(v, dtype=float)"]
        + ["from numpy import atleast_1d, zeros", "to_array = np.asarray", "z = np.array(v)"]
        + ["def f(v):", "    return np.ascontiguousarray(np.atleast_1d(v))", "asarray(v)"],
        [2, 3, 4, 5, 8],
    ),
    # the network, the datasets, the density and the grid do not depend on
    # the sampler; only the modules that run a chain import it
    "sampler imports": Guard(
        each(imports_cdrm(lambda name: name == "langevin")),
        MODULES,
        {"cli", "inference", "metrics", "model"},
        IMPORTS,
        [1, 3, 5, 6],
    ),
    # the oracle checks the model, so it shares only the datasets and the rules
    "oracle imports": Guard(
        each(imports_cdrm(lambda name: name not in ("data", "errors", "rules"))),
        [PACKAGE / "binref.py"],
        set(),
        IMPORTS + ["from .data import TransitionDataset", "from .inference import infer"],
        [1, 3, 5, 6, 9],
    ),
    "rules imports": Guard(
        each(imports_cdrm(lambda name: name != "errors")),
        [PACKAGE / "rules.py"],
        set(),
        IMPORTS,
        [1, 3, 4, 5, 6, 7],
    ),
    "unused imports": Guard(
        unused_imports,
        SOURCES,
        set(),
        ["from __future__ import annotations", "import os, math as m", "from x import y, z"]
        + ["print(os.sep, z)"],
        [2, 3],
    ),
}


def sites(guard: Guard, source: str, module: str) -> list[tuple[str, int]]:
    """Where guard's detector flags source, as (site, line), in line order."""
    tree = ast.parse(source)
    where = {}

    def visit(node: ast.AST, site: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            site = f"{site}.{node.name}"
        where[node] = site
        for child in ast.iter_child_nodes(node):
            visit(child, site)

    visit(tree, module)
    found = {(node.lineno, where[node]) for node in guard.detector(tree)}
    return [(site, line) for line, site in sorted(found)]


CASES = [(name, path) for name, guard in GUARDS.items() for path in guard.files]


def test_sources_found():
    assert len(MODULES) > 5 and PACKAGE / "rules.py" in MODULES
    assert len(SOURCES) > len(MODULES)


@pytest.mark.parametrize(
    "name, path", CASES, ids=[f"{name}-{path.relative_to(ROOT)}" for name, path in CASES]
)
def test_only_the_allowed_sites_break_the_rule(name, path):
    guard = GUARDS[name]
    found = sites(guard, path.read_text(), path.stem)
    assert [(site, line) for site, line in found if site not in guard.allowed] == []


@pytest.mark.parametrize("name", GUARDS)
def test_every_allowed_site_is_found(name):
    guard = GUARDS[name]
    found = {site for path in guard.files for site, _ in sites(guard, path.read_text(), path.stem)}
    assert found == guard.allowed


@pytest.mark.parametrize("name", GUARDS)
def test_guard_flags_its_seeded_violations(name):
    guard = GUARDS[name]
    assert [line for _, line in sites(guard, "\n".join(guard.seeded), "m")] == guard.flags


def test_sites_name_the_enclosing_function():
    found = sites(GUARDS["math.isfinite"], "\n".join(GUARDS["math.isfinite"].seeded), "m")
    assert found == [("m", 2), ("m", 3), ("m.f", 5), ("m.C.h", 10)]
