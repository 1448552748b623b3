"""No module of the package imports a name it never uses.

A statement marked `# noqa: F401` re-exports on purpose and is exempt, and so
is `from __future__ import ...`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "borelcurve"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_a_stale_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .errors import InputError, to_int  # noqa: F401\n"
              "from .errors import labels, InternalError\n"
              "raise InternalError(os.sep)\n")
    assert unused_imports(source) == ["line 4: labels"]
