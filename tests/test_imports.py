"""Every name a ``rankelo`` module imports is used in that module.

The package's ``__init__.py`` imports names to re-export them, so it is
exempt, and so is any import line marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rankelo"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or "# noqa: F401" in lines[node.lineno - 1]
                or getattr(node, "module", None) == "__future__"):
            continue
        imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                     for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _, name in sorted(imported) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (PACKAGE / "replay.py").read_text(encoding="utf-8")
    assert unused_imports("from .errors import InputError\n" + source) == ["InputError"]
    assert unused_imports("import os, sys as system\nos.getcwd()\n") == ["system"]
    assert unused_imports("from . import store  # noqa: F401\n") == []
