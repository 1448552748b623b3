"""Arbitrary JSON input files and option strings never crash the CLI.

Every subcommand that reads files is run through `cli.main` with one of its
files replaced by a generated JSON blob, the others kept valid.  Blobs are
either arbitrary JSON or objects with the right keys holding plausible or
arbitrary values, so the parsers are exercised past their first check.  A
second test keeps the files valid (regular models on P^1 to P^3) and fills
`--degrees`, `--components`, `--k` and `--max-degree` with generated strings.
Each run must exit with 0 or with 2 and one JSON error line: never an
uncaught exception (exit 1) or a broken internal invariant (exit 3).
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from borelcurve.cli import main

VALID = {
    "spec": {"n": 2, "h_weights": [2, 0, -2], "e_matrix": "principal"},
    "graph": {"vertices": [1, 2, 3], "edges": [[1, 2, 1], [1, 3, 1]]},
    "bundle": {"rank": 1, "fibres": {"1": {"weights": [1]}, "2": {"weights": [-1]},
                                     "3": {"weights": [-1]}}},
}

# argv with {spec}, {graph}, {bundle} standing for file paths
COMMANDS = (
    ("action", "validate", "--spec", "{spec}"),
    ("action", "fixed-points", "--spec", "{spec}"),
    ("action", "curve", "--spec", "{spec}"),
    ("curve", "ring", "--spec", "{spec}"),
    ("curve", "betti", "--spec", "{spec}", "--table"),
    ("curve", "restrict", "--spec", "{spec}", "--components", "2,3"),
    ("curve", "ideal", "--spec", "{spec}", "--components", "1"),
    ("principal", "--spec", "{spec}", "--gkm", "{graph}"),
    ("chern", "--spec", "{spec}", "--bundle", "{bundle}", "--k", "1", "--test-membership"),
    ("chern", "--spec", "{spec}", "--bundle", "{bundle}", "--bundle", "tangent",
     "--gkm", "{graph}"),
)

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6) | st.sampled_from(["principal", "1/2", "-3", "0", "x"]))
blobs = st.recursive(scalars, lambda inner: (st.lists(inner, max_size=4)
                                             | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4)),
                     max_leaves=12)
ints = st.integers(-4, 4) | st.integers()
entries = ints | st.sampled_from(["1/2", "-2/3", "0", "1/0"]) | scalars
matrices = st.lists(st.lists(entries, max_size=4), max_size=4)

spec_blobs = st.fixed_dictionaries({}, optional={
    "n": ints | blobs,
    "h_weights": st.lists(ints, max_size=4) | blobs,
    "e_matrix": st.just("principal") | matrices | blobs,
})
graph_blobs = st.fixed_dictionaries({}, optional={
    "vertices": st.lists(ints, max_size=4) | blobs,
    "edges": st.lists(st.lists(ints, max_size=4), max_size=4) | blobs,
})
fibre_blobs = st.fixed_dictionaries({}, optional={
    "weights": st.lists(ints, max_size=3) | blobs,
    "rho_W": matrices | blobs,
    "rho_V": matrices | blobs,
})
bundle_blobs = st.fixed_dictionaries({}, optional={
    "rank": ints | blobs,
    "fibres": st.dictionaries(st.sampled_from(["1", "2", "3", "0", "x"]) | st.text(max_size=3),
                              fibre_blobs | blobs, max_size=4) | blobs,
})
SLOT_BLOBS = {"spec": spec_blobs | blobs, "graph": graph_blobs | blobs,
              "bundle": bundle_blobs | blobs}


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_any_json_file_exits_0_or_2(data):
    command = data.draw(st.sampled_from(COMMANDS))
    slots = [s for s in VALID if "{" + s + "}" in command]
    slot = data.draw(st.sampled_from(slots))
    blob = data.draw(SLOT_BLOBS[slot])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in slots:
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                json.dump(blob if name == slot else VALID[name], handle)
        code, out, err = _run([arg.format(**paths) for arg in command])
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == ""
        assert list(json.loads(err)) == ["error"]


# argv with {spec} and {graph} for file paths and {degrees}, {components},
# {k}, {max_degree} for generated option strings (given as --opt=value, so a
# value starting with "-" is not read as an option)
ARGV_COMMANDS = (
    ("poincare", "--degrees={degrees}"),
    ("curve", "ring", "--spec", "{spec}", "--max-degree={max_degree}"),
    ("curve", "betti", "--spec", "{spec}", "--max-degree={max_degree}"),
    ("curve", "restrict", "--spec", "{spec}", "--components={components}",
     "--max-degree={max_degree}"),
    ("curve", "ideal", "--spec", "{spec}", "--components={components}"),
    ("principal", "--spec", "{spec}", "--gkm", "{graph}", "--max-degree={max_degree}"),
    ("chern", "--spec", "{spec}", "--bundle", "tangent", "--k={k}", "--test-membership"),
    ("chern", "--spec", "{spec}", "--bundle", "tangent", "--k={k}", "--gkm", "{graph}",
     "--max-degree={max_degree}"),
)

words = st.text(max_size=8)


def int_lists(elements):
    return st.lists(elements, max_size=6).map(lambda xs: ",".join(map(str, xs)))


OPTION_STRINGS = {
    "degrees": int_lists(st.integers(-1, 12) | st.integers()) | words,
    "components": int_lists(st.integers(-1, 5) | st.integers()) | words,
    "k": st.integers(-2, 5).map(str) | st.integers().map(str) | words,
    "max_degree": st.integers(-3, 30).map(str) | st.integers().map(str) | words,
}


@st.composite
def small_specs(draw):
    """A regular model on P^1..P^3: step-2 weights, shifted, in a drawn order,
    and a drawn signed superdiagonal."""
    n = draw(st.integers(1, 3))
    shift = 2 * draw(st.integers(-3, 3))
    order = draw(st.permutations(range(n + 1)))
    h = [0] * (n + 1)
    e = [["0"] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        h[order[i]] = n - 2 * i + shift
    for i in range(n):
        e[order[i]][order[i + 1]] = draw(st.sampled_from(["1", "-2", "1/2", "-3/4", "5/3"]))
    return {"n": n, "h_weights": h, "e_matrix": e}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_any_option_string_exits_0_or_2(data):
    command = data.draw(st.sampled_from(ARGV_COMMANDS))
    spec = data.draw(small_specs())
    r = spec["n"] + 1
    graph = {"vertices": list(range(1, r + 1)), "edges": [[1, j, 1] for j in range(2, r + 1)]}
    values = {name: data.draw(strategy) for name, strategy in OPTION_STRINGS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, blob in (("spec", spec), ("graph", graph)):
            values[name] = os.path.join(tmp, f"{name}.json")
            with open(values[name], "w", encoding="utf-8") as handle:
                json.dump(blob, handle)
        code, out, err = _run([arg.format(**values) for arg in command])
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == ""
        assert list(json.loads(err)) == ["error"]
