"""No module of the package imports a name it never uses, and no top-level
private helper is left that no module of the package names.

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


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Top-level `_`-prefixed functions and classes (dunders aside) whose name
    no module uses as a name, an attribute or an imported name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and node.name not in named]


def test_every_private_helper_is_named():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_helpers(sources) == []


def test_the_guard_sees_a_dead_helper():
    sources = {"a.py": ("def _called():\n    pass\n"
                        "def _imported():\n    pass\n"
                        "def _dead():\n    pass\n"
                        "class _Dead:\n    pass\n"
                        "def __getattr__(name):\n    raise AttributeError(name)\n"
                        "_called()\n"),
               "b.py": "from .a import _imported\n"}
    assert dead_helpers(sources) == ["a.py: _dead", "a.py: _Dead"]
