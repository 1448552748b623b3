"""No module of the package imports a name it never uses, no top-level
private helper is left that no module of the package names, and every
function that no CLI run enters is pinned, with what keeps it.

A statement marked `# noqa: F401` re-exports on purpose and is exempt, and so
is `from __future__ import ...`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import load_bench_jobs

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


def file_access(source: str) -> list[str]:
    """Calls of `open`, and imports of `io`, `hashlib` or a `cli` module: the
    ways a module could read an input file itself or reach the CLI."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):  # the called name: open, io.open, builtins.open
            names = [getattr(node.func, "id", None) or getattr(node.func, "attr", "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if {"open", "io", "hashlib", "cli"} & set(name.split("."))]
    return found


def test_subcommands_read_no_file_and_import_no_cli():
    """`cli.main` alone reads input files: each subcommand gets its reader
    passed in, and none imports `borelcurve.cli`, which `python -m` runs as
    `__main__`."""
    offences = {path.name: file_access(path.read_text(encoding="utf-8"))
                for path in sorted(PACKAGE.glob("cmd_*.py"))}
    assert offences and {name: lines for name, lines in offences.items() if lines} == {}


def test_the_guard_sees_file_access():
    source = ("import io, json\n"
              "import hashlib as h\n"
              "from . import cli, action\n"
              "from borelcurve.cli import main\n"
              "from .errors import InputError\n"
              "with open('x') as f, io.open('y') as g:\n"
              "    json.load(f)\n")
    assert file_access(source) == ["line 1: io", "line 2: hashlib", "line 3: cli",
                                   "line 4: borelcurve.cli", "line 6: open", "line 6: open"]


# Functions of the package that no CLI run enters, each with what keeps it.
PINNED = {
    **dict.fromkeys(["exactalg.rref", "exactalg.nullspace",
                     "exactalg.GradedSubalgebra.graded_basis", "exactalg.GradedSubalgebra.member",
                     "exactalg.GradedSubalgebra.coordinates",
                     "exactalg.GradedSubalgebra.quotient_by_v_dims",
                     "exactalg.GradedSubalgebra.kernel_basis", "gkm.GKMRing.basis",
                     "chern.exterior_trace", "chern.chern_tuple", "chern.chern_membership",
                     "action.exp_e"], "traced by bench/tracing.py"),
    **dict.fromkeys(["action.principal_model", "curve.NodeAlgebra.graded_basis",
                     "curve.NodeAlgebra.coordinates"], "used by tests/test_acceptance.py"),
    "chern.elementary_symmetric": "in the package's export list",
    "gkm.GKMGraph.connected_components": "called by GKMRing.basis",
    "gkm.GKMGraph.to_json": "used by scripts/plane_demo.py",
    "cli.run": "the process entry",
    **dict.fromkeys(["errors.Record.__hash__", "errors.Record.__setattr__",
                     "errors.Record.__repr__"], "the value-class protocol"),
}
ORACLES = {"oracles.py", "poly.py", "rootsystems.py"}

# Runs each argv of argv.json through cli.main under a profiler installed before
# the package is imported; prints the (file name, first line) of every code object
# of the package that was entered.
PROFILED_RUNS = """
import contextlib, io, json, os, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
from borelcurve import cli
for argv in json.load(open(sys.argv[1])):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted({(os.path.basename(c.co_filename), c.co_firstlineno) for c in entered
                         if c.co_filename.startswith(sys.argv[2])})))
"""


def defined_functions(path: Path) -> dict[tuple[str, int], str]:
    """(file name, first line) -> 'module.name' or 'module.Class.name' for each
    module-level function and class method (nested defs aside); the first line
    is a decorator's, as in the code object."""
    found = {}
    module = path.stem

    def add(node, name):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        found[(path.name, first)] = name

    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name not in ("__getattr__", "__dir__"):  # PEP 562 hooks
                add(node, f"{module}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(item, f"{module}.{node.name}.{item.name}")
    return found


def test_uncalled_functions_are_the_pinned_ones(tmp_path):
    """Every benchmark job at seed 3, help and a malformed line, run in a fresh
    interpreter, enter every function of the package but the pinned ones: a
    function no run needs and nothing pins is dead code."""
    jobs = load_bench_jobs()
    argvs = [list(job.argv) for workload in jobs.WORKLOADS
             for job in jobs.build(workload, 3, tmp_path / workload)]
    argvs += [["-h"], ["poincare", "--rank", "x"]]
    (tmp_path / "argv.json").write_text(json.dumps(argvs))
    out = subprocess.run(
        [sys.executable, "-c", PROFILED_RUNS, str(tmp_path / "argv.json"), str(PACKAGE)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent))).stdout
    entered = {tuple(pair) for pair in json.loads(out)}
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ORACLES:
            defined.update(defined_functions(path))
    assert {name for key, name in defined.items() if key not in entered} == set(PINNED)
