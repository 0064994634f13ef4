"""Every module under src/ and tests/ uses each name it imports.

An import kept on purpose for a name the module never reads carries
``# noqa: F401`` on its line, as flake8 spells it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


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
