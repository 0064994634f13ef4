"""Every module under src/ and tests/ uses each name it imports, and every
top-level definition under src/, and every member of a class there, is read
somewhere in src/, tests/ or perfbench/.  Only ``core`` derives random
streams under src/.

An import kept on purpose for a name the module never reads carries
``# noqa: F401`` on its line, as flake8 spells it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
LIBRARY = sorted((ROOT / "src").rglob("*.py"))
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, or re-exports by ``__all__``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*" and "noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_a_dead_import_and_honours_noqa():
    source = (
        "import os\nimport sys  # noqa: F401\nfrom typing import Optional, Union\n"
        "from . import used\n__all__ = ['used']\nx: Optional[int] = os.sep\n"
    )
    assert unused_imports(source) == ["Union"]


def definitions(source: str) -> list[str]:
    """The functions, classes and constants a module defines at top level, and
    the methods, properties and attributes its classes define, dunder names
    such as ``__all__`` aside."""
    names = []

    def collect(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
                if isinstance(node, ast.ClassDef):
                    collect(node.body)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.extend(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))

    collect(ast.parse(source).body)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def read_names(source: str) -> set[str]:
    """Every name a module reads, bare or as an attribute, or imports by name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


@pytest.fixture(scope="module")
def read_anywhere() -> set[str]:
    return set().union(*(read_names(p.read_text(encoding="utf-8")) for p in READERS))


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_top_level_definition_is_read(path, read_anywhere):
    unread = [n for n in definitions(path.read_text(encoding="utf-8")) if n not in read_anywhere]
    assert unread == []


def test_the_scan_sees_an_unread_definition():
    source = (
        "import os\n__all__ = ['A']\nA, B = 1, 2\nC: int = 3\nD = 4\n"
        "def f():\n    return A + os.sep\nclass K:\n    x: int = 1\n"
        "    def __init__(self):\n        self.y = self.x\n"
        "    def used(self):\n        pass\n    def unused(self):\n        pass\n"
    )
    read = read_names(source) | read_names("from m import C\nimport m\nm.K().used()\n")
    assert [n for n in definitions(source) if n not in read] == ["B", "D", "f", "unused"]


STREAM_CALLS = {"default_rng", "SeedSequence", "spawn"}


def stream_calls(source: str) -> list[tuple[int, str]]:
    """The line and name of each call that derives a random stream:
    ``default_rng``, ``SeedSequence`` or ``.spawn``, bare or as an attribute."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in STREAM_CALLS:
                calls.append((node.lineno, name))
    return sorted(calls)


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name != "core.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_core_derives_random_streams(path):
    # core.seed_at and core.rng_at place every stream in the trial's seed tree
    assert stream_calls(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_a_derived_stream():
    source = (
        "import numpy as np\nfrom numpy.random import default_rng\n"
        "rng = default_rng(0)\nkids = np.random.SeedSequence(1).spawn(2)\n"
        "ok = isinstance(kids[0], np.random.SeedSequence)\n"
    )
    assert stream_calls(source) == [(3, "default_rng"), (4, "SeedSequence"), (4, "spawn")]
