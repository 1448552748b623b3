import ast
import builtins
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import borelcurve
from borelcurve import argparser, cli, curve
from borelcurve.argparser import build_parser
from borelcurve.cli import _COMMON, GRAMMAR, _quick_parse, _sha256, integer, main
from borelcurve.errors import InternalError
from borelcurve.gkm import GKMGraph
from conftest import load_bench_jobs, monomial_span
from test_action import regular_models

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PLANE_SPEC = {"n": 2, "h_weights": [2, 0, -2],
              "e_matrix": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]}
CURVES_GRAPH = {"vertices": [1, 2, 3], "edges": [[1, 2, 1], [1, 3, 1]]}
LINE_BUNDLE_A = {"rank": 1, "fibres": {"1": {"weights": [1]},
                                       "2": {"weights": [-1]},
                                       "3": {"weights": [-1]}}}
LINE_BUNDLE_B = {"rank": 1, "fibres": {"1": {"weights": [1]},
                                       "2": {"weights": [1]},
                                       "3": {"weights": [1]}}}


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, blob in [("plane", PLANE_SPEC), ("graph", CURVES_GRAPH),
                       ("bundle_a", LINE_BUNDLE_A), ("bundle_b", LINE_BUNDLE_B)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(blob))
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poincare_family(capsys):
    code, out, _ = run(capsys, ["poincare", "--family", "A", "--rank", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["poly"] == [1, 2, 2, 1]
    assert report["exact_arithmetic"] is True


def test_poincare_degrees(capsys):
    code, out, _ = run(capsys, ["poincare", "--degrees", "1,2"])
    assert code == 0
    assert json.loads(out)["result"]["poly"] == [1, 1, 1]
    code, out, _ = run(capsys, ["poincare", "--degrees", "1"])
    assert json.loads(out)["result"]["poly"] == [1, 1]


def test_poincare_rejects_bad_degrees(capsys):
    code, _, err = run(capsys, ["poincare", "--degrees", "2"])
    assert code == 2
    assert "do not come from" in err


def test_poincare_rejects_conflicting_modes(capsys):
    for mode in (["--family", "A", "--rank", "2"], ["--rank", "3"]):
        code, out, err = run(capsys, ["poincare", *mode, "--degrees", "1,2"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "choose either --family/--rank or --degrees, "
                                            "not both"}


def test_action_commands(capsys, specs):
    code, out, _ = run(capsys, ["action", "validate", "--spec", specs["plane"]])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["big_cell_degrees"] == [1, 2]
    code, out, _ = run(capsys, ["action", "fixed-points", "--spec", specs["plane"]])
    assert json.loads(out)["result"]["fixed_points"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    code, out, _ = run(capsys, ["action", "curve", "--spec", specs["plane"]])
    comps = json.loads(out)["result"]["components"]
    assert comps[1]["chart_coords"] == [["0", "1"], []]
    assert comps[2]["chart_coords"] == [["0", "2"], ["0", "0", "2"]]


def test_action_invalid_model_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "h_weights": [2, 0, -2],
                               "e_matrix": [["0"] * 3] * 3}))
    code, _, err = run(capsys, ["action", "validate", "--spec", str(bad)])
    assert code == 2
    assert "not regular" in err


def test_curve_commands(capsys, specs):
    code, out, _ = run(capsys, ["curve", "betti", "--spec", specs["plane"]])
    assert code == 0
    assert json.loads(out)["result"]["betti"] == [1, 1, 1]
    code, out, _ = run(capsys, ["curve", "ring", "--spec", specs["plane"]])
    report = json.loads(out)
    assert report["result"]["hilbert"] == [1, 2, 3]
    assert report["result"]["truncation_degree"] == report["max_degree"]
    code, out, _ = run(capsys, ["curve", "restrict", "--spec", specs["plane"],
                                "--components", "2,3", "--max-degree", "4"])
    assert json.loads(out)["result"]["hilbert"] == [1, 2, 2, 2, 2]
    code, out, _ = run(capsys, ["curve", "ideal", "--spec", specs["plane"],
                                "--components", "2,3", "--max-degree", "4"])
    report = json.loads(out)
    assert report["result"]["ideal_hilbert"] == [0, 0, 1, 1, 1]
    assert report["result"]["stabilized_rank"] == 1


def test_curve_restrict_requires_components(capsys, specs):
    code, _, err = run(capsys, ["curve", "restrict", "--spec", specs["plane"]])
    assert code == 2
    assert "components" in err


def _broken_ring(model):
    raise InternalError("curve ring invariant failed")


@pytest.mark.parametrize("argv,code,line", [
    (["chern"], 2, {"error": "chern needs at least one --bundle (a JSON path or 'tangent')"}),
    (["curve", "ideal"], 2, {"error": "curve ideal needs --components"}),
    (["poincare", "--family", "A"], 2,
     {"error": "poincare needs --family and --rank, or --degrees"}),
    (["poincare", "--rank", "2"], 2,
     {"error": "poincare needs --family and --rank, or --degrees"}),
    (["chern", "--bundle", "tangent", "--gkm", "{pair}"], 2,
     {"error": "bundle tangent fixed points do not match graph vertices at label 3"}),
    (["poincare", "--degrees", "2,5,6,7,8,9"], 2,
     {"error": "degrees [2, 5, 6, 7, 8, 9] do not come from a regular action: "
               "negative coefficient in the expanded product"}),
    (["chern", "--bundle", "{no_fibres}"], 2, {"error": "bundle needs at least one fibre"}),
    (["principal", "--gkm", "{no_vertices}"], 2,
     {"error": "bad graph spec: graph needs at least one vertex"}),
    (["curve", "ring"], 3, {"internal_error": "curve ring invariant failed"}),
], ids=["chern-no-bundle", "ideal-no-components", "family-alone", "rank-alone",
        "bundle-off-graph", "degrees-negative-coefficient", "bundle-no-fibres",
        "graph-no-vertices", "internal-error"])
def test_exit_paths_print_one_json_line(capsys, monkeypatch, specs, tmp_path, argv, code,
                                        line):
    """Exit 2 for input the command cannot use, exit 3 for a broken invariant
    (here a patched ring builder), each with one JSON line on stderr."""
    files = {"pair": {"vertices": [1, 2], "edges": [[1, 2]]},
             "no_fibres": {"rank": 1, "fibres": {}}, "no_vertices": {"vertices": []}}
    for name, blob in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(blob))
    if code == 3:
        monkeypatch.setattr(curve, "build_curve_ring", _broken_ring)
    argv = [a.format(**{name: tmp_path / f"{name}.json" for name in files}) for a in argv]
    if argv[0] != "poincare":
        argv += ["--spec", specs["plane"]]
    assert run(capsys, argv) == (code, "", json.dumps(line, sort_keys=True) + "\n")


def test_principal_command(capsys, specs):
    code, out, _ = run(capsys, ["principal", "--spec", specs["plane"],
                                "--gkm", specs["graph"]])
    assert code == 0
    report = json.loads(out)
    verdict = report["result"]["verdict"]
    assert verdict["status"] == "NotPrincipal"
    assert verdict["witness"] == 1
    assert verdict["image_hilbert"][1] == 2
    assert verdict["gkm_hilbert"][1] == 3
    assert report["result"]["gkm_ordinary_betti"] == [1, 2, 0]


def test_principal_tiny_bound_inconclusive(capsys, specs):
    code, out, _ = run(capsys, ["principal", "--spec", specs["plane"],
                                "--gkm", specs["graph"], "--max-degree", "0"])
    assert code == 0
    assert json.loads(out)["result"]["verdict"]["status"] == "InconclusiveAtBound"


def test_chern_command(capsys, specs):
    code, out, _ = run(capsys, ["chern", "--spec", specs["plane"], "--bundle",
                                "tangent", "--k", "1", "--test-membership"])
    assert code == 0
    entry = json.loads(out)["result"]["bundles"][0]
    assert entry["tuple"] == {"degree": 1, "coeffs": ["6", "0", "-6"]}
    assert entry["membership"] is True


def test_chern_k_zero_unit(capsys, specs):
    code, out, _ = run(capsys, ["chern", "--spec", specs["plane"], "--bundle",
                                "tangent", "--k", "0"])
    assert json.loads(out)["result"]["bundles"][0]["tuple"]["coeffs"] == ["1", "1", "1"]


def test_chern_subalgebra_verdict_via_cli(capsys, specs):
    code, out, _ = run(capsys, ["chern", "--spec", specs["plane"],
                                "--bundle", specs["bundle_a"],
                                "--bundle", specs["bundle_b"],
                                "--gkm", specs["graph"]])
    assert code == 0
    verdict = json.loads(out)["result"]["subalgebra_verdict"]
    assert verdict["status"] == "NotPrincipal"
    assert verdict["witness"] == 1


def test_chern_rejects_a_fixed_point_named_twice(capsys, specs, tmp_path):
    bundle = tmp_path / "twice.json"
    bundle.write_text(json.dumps({"rank": 1, "fibres": {
        "1": {"weights": [5]}, "01": {"weights": [7]},
        "2": {"weights": [1]}, "3": {"weights": [3]}}}))
    code, out, err = run(capsys, ["chern", "--spec", specs["plane"], "--bundle", str(bundle)])
    assert (code, out) == (2, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "fibre keys '1' and '01' both name fixed point 1"}]


def test_negative_bundle_rank_exits_2(capsys, specs, tmp_path):
    """The rank is range-checked before it sizes a fibre's matrices."""
    bundle = tmp_path / "negative_rank.json"
    bundle.write_text(json.dumps({"rank": -1, "fibres": {"1": {"rho_W": [], "rho_V": []}}}))
    code, out, err = run(capsys, ["chern", "--spec", specs["plane"], "--bundle", str(bundle)])
    assert (code, out) == (2, "")
    assert err == '{"error": "bundle rank must be non-negative"}\n'


def test_chern_tuples_run_once_per_bundle(capsys, specs, monkeypatch):
    """tuple, membership and the --gkm generators share one chern_tuples run."""
    from borelcurve import chern
    calls = []
    original = chern.chern_tuples
    monkeypatch.setattr(chern, "chern_tuples", lambda *a: calls.append(a) or original(*a))
    argv = ["chern", "--spec", specs["plane"], "--bundle", "tangent",
            "--bundle", specs["bundle_b"], "--test-membership", "--gkm", specs["graph"]]
    code, out, _ = run(capsys, argv + ["--k", "1"])
    assert code == 0
    assert [e["membership"] for e in json.loads(out)["result"]["bundles"]] == [True, True]
    assert len(calls) == 2
    code, _, err = run(capsys, argv + ["--k", "3"])
    assert code == 2
    assert json.loads(err) == {"error": "k must lie in 0..2"}
    assert len(calls) == 3


P8_SPEC = {"n": 8, "h_weights": [8 - 2 * i for i in range(9)], "e_matrix": "principal"}


def test_multiplicity_1000_path_is_a_component_count(capsys, tmp_path):
    """Every edge of the P^8 path graph has multiplicity 1000, so below degree
    1000 the graph is one component and from 1000 on it is nine."""
    spec, graph = tmp_path / "p8.json", tmp_path / "path.json"
    spec.write_text(json.dumps(P8_SPEC))
    graph.write_text(json.dumps({"vertices": list(range(1, 10)),
                                 "edges": [[i, i + 1, 1000] for i in range(1, 9)]}))
    code, out, _ = run(capsys, ["principal", "--spec", str(spec), "--gkm", str(graph)])
    assert code == 0
    result = json.loads(out)["result"]
    verdict = result["verdict"]
    assert verdict["gkm_hilbert"] == [1 if d < 1000 else 9 for d in range(1001)]
    assert verdict["image_hilbert"] == [min(d + 1, 9) for d in range(1001)]
    assert (verdict["status"], verdict["bound"]) == ("InconclusiveAtBound", 1000)
    assert any("inconsistent" in note for note in verdict["notes"])
    assert result["gkm_ordinary_betti"] == [1] + [0] * 999 + [8, 0]


def test_chern_verdict_builds_no_slice_past_full_rank(capsys, tmp_path, monkeypatch):
    """The generated slices form a chain, so from the first full degree on the
    verdict reads r without building the slice: its algebra builds full + 1."""
    from borelcurve.exactalg import GradedSubalgebra
    spec, graph = tmp_path / "p8.json", tmp_path / "star.json"
    spec.write_text(json.dumps(P8_SPEC))
    graph.write_text(json.dumps({"vertices": list(range(1, 10)),
                                 "edges": [[1, j, 1] for j in range(2, 10)]}))
    made = []
    original = GradedSubalgebra.__init__
    monkeypatch.setattr(GradedSubalgebra, "__init__",
                        lambda self, *args: made.append(self) or original(self, *args))
    code, out, _ = run(capsys, ["chern", "--spec", str(spec), "--bundle", "tangent",
                                "--gkm", str(graph), "--max-degree", "1000"])
    assert code == 0
    image = json.loads(out)["result"]["subalgebra_verdict"]["image_hilbert"]
    assert len(image) == 1001
    full = image.index(9)
    assert image[full:] == [9] * (1001 - full)
    assert [len(algebra._slices) for algebra in made] == [full + 1]


@st.composite
def chern_gkm_cases(draw):
    """A model, 1-2 bundles and a graph with multiplicities 1-3 on the bundles'
    fixed points: (model, bundles, graph, max_degree), each bundle a pair of
    its JSON spec (None for tangent) and its fibre weights per label.  Split
    and matrix fibres are equal across edges of multiplicity >= 2, so their
    classes meet the congruences; tangent's may not."""
    model = draw(regular_models(max_n=3))
    h = model.h_weights
    kinds = draw(st.lists(st.sampled_from(["tangent", "split", "matrix"]),
                          min_size=1, max_size=2))
    if "tangent" in kinds:
        vertices = list(range(1, len(h) + 1))
    else:
        vertices = sorted(draw(st.sets(st.integers(1, len(h)), min_size=1)))
    pairs = st.permutations(vertices).map(lambda p: p[:2])
    edges = draw(st.lists(st.tuples(pairs, st.integers(1, 3)).map(lambda e: [*e[0], e[1]]),
                          max_size=4 if len(vertices) > 1 else 0))
    graph = {"vertices": vertices, "edges": edges}
    glued = GKMGraph.from_json(graph).connected_components(1)
    bundles = []
    for kind in kinds:
        if kind == "tangent":
            weights = {j: [h[j - 1] - x for i, x in enumerate(h) if i != j - 1]
                       for j in vertices}
            bundles.append((None, weights))
            continue
        rank = draw(st.integers(1, 3))
        weights, fibres = {}, {}
        for comp in glued:
            if kind == "split":
                ws = draw(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank))
                fibre = {"weights": ws}
            else:  # rho_W diagonal, steps of 2; rho_V on the superdiagonal
                top = draw(st.integers(-4, 4))
                ws = [top - 2 * i for i in range(rank)]
                fibre = {"rho_W": [[str(ws[i] if i == j else 0) for j in range(rank)]
                                   for i in range(rank)],
                         "rho_V": [[str(draw(st.integers(-3, 3)) if j == i + 1 else 0)
                                    for j in range(rank)] for i in range(rank)]}
            for j in comp:
                weights[j], fibres[str(j)] = ws, fibre
        bundles.append(({"rank": rank, "fibres": fibres}, weights))
    return model, bundles, graph, draw(st.none() | st.integers(0, 4))


@settings(max_examples=80, deadline=None)
@given(chern_gkm_cases())
def test_chern_gkm_verdict_is_the_subalgebra_of_every_class(case):
    """The chern --gkm verdict compares the congruence ring with the
    subalgebra that c_1..c_rank of every bundle and v generate, its slices
    spanned by brute force."""
    from borelcurve.exactalg import HomTuple
    from borelcurve.gkm import GKMRing, compare_hilberts
    model, bundles, graph_json, max_degree = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, blob in [("spec", model.to_json()), ("graph", graph_json),
                           *((f"bundle{i}", b) for i, (b, _) in enumerate(bundles))]:
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                json.dump(blob, handle)
        argv = ["chern", "--spec", paths["spec"], "--gkm", paths["graph"]]
        for i, (blob, _) in enumerate(bundles):
            argv += ["--bundle", "tangent" if blob is None else paths[f"bundle{i}"]]
        if max_degree is not None:
            argv += ["--max-degree", str(max_degree)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    ring = GKMRing(GKMGraph.from_json(graph_json))
    labels = ring.graph.vertices
    gens = [HomTuple(k, [sum(math.prod(c) for c in itertools.combinations(weights[j], k))
                         for j in labels])
            for _, weights in bundles for k in range(1, len(weights[labels[0]]) + 1)]
    if not all(ring.contains(g) for g in gens):
        assert code == 2 and "violates the graph congruences" in err.getvalue()
        return
    assert code == 0, err.getvalue()
    bound = ring.stabilization_degree if max_degree is None else max_degree
    image = [len(monomial_span(len(labels), gens, d)) for d in range(bound + 1)]
    expected = compare_hilberts(image, ring.hilbert(bound), len(labels), bound).to_json()
    verdict = json.loads(out.getvalue())["result"]["subalgebra_verdict"]
    keys = ("status", "witness", "bound", "image_hilbert")
    assert {k: verdict[k] for k in keys} == {k: expected[k] for k in keys}


@pytest.mark.parametrize("text", [
    '{"n": ' + "1" * 5000 + "}",     # past the interpreter's int-digit limit
    b"\xff\xfe{}",                  # not UTF-8
    "[" * 100000 + "]" * 100000,      # nested past the recursion limit
])
def test_undecodable_json_exits_2(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    if isinstance(text, bytes):
        bad.write_bytes(text)
    else:
        bad.write_text(text)
    code, out, err = run(capsys, ["action", "validate", "--spec", str(bad)])
    assert (code, out) == (2, "")
    assert "is not valid JSON" in json.loads(err)["error"]


@pytest.mark.parametrize("literal", ["1" * 4300, "-" + "9" * 4300])
def test_json_integers_up_to_4300_digits_are_read(capsys, tmp_path, literal):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 2, "h_weights": [2, 0, -2], "e_matrix": "principal", '
                    f'"x": {literal}}}')
    assert run(capsys, ["curve", "betti", "--spec", str(spec)])[0] == 0


@pytest.mark.parametrize("literal", ["1" * 4301, "-" + "9" * 5000])
def test_json_integer_past_4300_digits_has_fixed_text(capsys, tmp_path, literal):
    """int()'s own text for it differs between Python 3.10 and 3.11."""
    spec = tmp_path / "spec.json"
    spec.write_text(f'{{"n": {literal}}}')
    code, out, err = run(capsys, ["curve", "betti", "--spec", str(spec)])
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": f"{spec} is not valid JSON: an integer has more than "
                                       "4300 digits"}) + "\n"


def test_long_echoed_values_are_cut(capsys, tmp_path):
    """An echoed value shows its first 160 characters and its full length."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 2, "h_weights": "w" * 300, "e_matrix": "principal"}))
    code, _, err = run(capsys, ["curve", "betti", "--spec", str(spec)])
    assert code == 2
    assert json.loads(err)["error"] == (
        "expected a list, got '" + "w" * 159 + "... (302 characters)")
    for argv in (["poincare", "--family", "A", "--rank", "9" * 5000],
                 ["poincare", "--degrees", "x," * 100000],
                 ["poincare", "--degrees", ",".join(["2"] * 500)],
                 ["curve", "betti", "--spec", str(spec), "--max-degree", "x" * 5000]):
        code, _, err = run(capsys, argv)
        assert code == 2 and len(err) < 300, argv
        assert " characters)" in json.loads(err)["error"], argv


def test_principal_shorthand_with_huge_n_exits_2(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 10**18, "h_weights": [2, 0, -2],
                                "e_matrix": "principal"}))
    code, _, err = run(capsys, ["action", "validate", "--spec", str(spec)])
    assert code == 2
    assert "h_weights must have length n+1" in err


def test_degree_limits_exit_2(capsys, tmp_path, specs):
    graph = tmp_path / "heavy_edge.json"
    graph.write_text(json.dumps({"vertices": [1, 2, 3], "edges": [[1, 2, 10**12]]}))
    code, _, err = run(capsys, ["principal", "--spec", specs["plane"], "--gkm", str(graph)])
    assert code == 2
    assert json.loads(err) == {"error": "bad graph spec: edge multiplicity must lie in 1..1000"}
    for argv in (["curve", "ideal", "--spec", specs["plane"], "--components", "2"],
                 ["principal", "--spec", specs["plane"], "--gkm", specs["graph"]],
                 ["chern", "--spec", specs["plane"], "--bundle", "tangent",
                  "--gkm", specs["graph"]]):
        code, _, err = run(capsys, argv + ["--max-degree", "1001"])
        assert code == 2
        assert "degree bound must be <= 1000" in err
    code, out, _ = run(capsys, ["curve", "ring", "--spec", specs["plane"],
                                "--max-degree", "1000"])
    assert code == 0
    assert len(json.loads(out)["result"]["hilbert"]) == 1001


def write_principal_spec(tmp_path, n: int) -> str:
    path = tmp_path / f"principal_{n}.json"
    path.write_text(json.dumps({"n": n, "h_weights": [n - 2 * i for i in range(n + 1)],
                                "e_matrix": "principal"}))
    return str(path)


@pytest.mark.parametrize("what", [["ring"], ["betti"], ["restrict", "--components", "1,5"],
                                  ["ideal", "--components", "1,5"]])
def test_curve_default_bound_may_pass_the_cap(capsys, tmp_path, monkeypatch, what):
    """Without --max-degree a ring on 1,002 nodes is read to its default bound
    1001; only a given bound is capped.  `ring` and `restrict` print O(n^2)
    generators, so for them the ring is swapped in unvalidated; `betti` and
    `ideal` run on the principal spec with n = 1001, about 2 s end to end,
    nearly all of it to parse and validate (2-core host, Python 3.11).  The
    cap does not depend on the spec, so a given bound is refused on the plane."""
    if what[0] in ("ring", "restrict"):
        from borelcurve import curve
        from borelcurve.action import ActionModel
        big = curve.CurveRing(ActionModel(1001, (), ()), curve.NodeAlgebra(range(1002), ()))
        monkeypatch.setattr(curve, "build_curve_ring", lambda model: big)
    plane = str(write_plane_inputs(tmp_path)["spec"])
    big_spec = plane if what[0] in ("ring", "restrict") else write_principal_spec(tmp_path, 1001)
    code, out, err = run(capsys, ["curve", *what, "--spec", big_spec])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["max_degree"] == report["result"]["truncation_degree"] == 1001
    for key in ("hilbert", "betti", "ideal_hilbert"):
        assert len(report["result"].get(key, [0] * 1002)) == 1002
    code, out, err = run(capsys, ["curve", *what, "--spec", plane, "--max-degree", "1001"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "degree bound must be <= 1000"}


def test_curve_betti_reads_1002_nodes_unpatched(capsys, tmp_path):
    """The Betti numbers of P^1001 need no generator and no parametrization."""
    code, out, err = run(capsys, ["curve", "betti", "--spec",
                                  write_principal_spec(tmp_path, 1001)])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["betti"] == [1] * 1002


def test_graph_edge_of_four_entries_exits_2(capsys, tmp_path, specs):
    graph = tmp_path / "long_edge.json"
    graph.write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 2, 1, 5]]}))
    code, out, err = run(capsys, ["principal", "--spec", specs["plane"], "--gkm", str(graph)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "bad graph spec: edge [1, 2, 1, 5] is not [i, j] "
                                        "or [i, j, multiplicity]"}


@pytest.mark.parametrize("argv", [
    ["curve", "ring"], ["curve", "betti"], ["curve", "restrict", "--components", "2"],
    ["curve", "ideal", "--components", "1"], ["principal", "--gkm", "{graph}"],
    ["chern", "--bundle", "tangent"], ["chern", "--bundle", "tangent", "--gkm", "{graph}"]])
def test_negative_max_degree_exits_2(capsys, specs, argv):
    argv = [a.format(graph=specs["graph"]) for a in argv] + ["--spec", specs["plane"]]
    code, out, err = run(capsys, argv + ["--max-degree", "-2"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "degree bound must be non-negative"}
    if argv[0] == "chern":  # checked even where no verdict reads it
        code, _, err = run(capsys, argv + ["--max-degree", "1001"])
        assert code == 2 and "degree bound must be <= 1000" in err


@pytest.mark.parametrize("argv", [
    [], ["curve"], ["curve", "ring"], ["curve", "ring", "--spec", "x", "--k", "1"],
    ["chern", "--spec", "x", "--k", "one"],
    ["curve", "ring", "--spec", "x", "--max-degree", "1.5"],
    ["poincare", "--family", "E8", "--rank", "8"], ["poincare", "--rank", "2x"]])
def test_malformed_command_line_exits_2_with_one_json_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert list(json.loads(err)) == ["error"]


@pytest.mark.parametrize("entry", ["1e999999999", "0.5", "1_0", "\u0663"])
def test_non_integer_rational_strings_exit_2(capsys, tmp_path, entry):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 1, "h_weights": [1, -1],
                                "e_matrix": [["0", entry], ["0", "0"]]}))
    code, out, err = run(capsys, ["action", "validate", "--spec", str(spec)])
    assert (code, out) == (2, "")
    assert "cannot parse rational" in err


@pytest.mark.parametrize("argv", [
    ["curve", "ideal", "--spec", "{plane}", "--components", "\u0662"],
    ["curve", "restrict", "--spec", "{plane}", "--components", "2,1_0"],
    ["poincare", "--degrees", "2,\u0663"], ["poincare", "--degrees", "1_0"]])
def test_list_options_take_ascii_digits_only(capsys, specs, argv):
    """int() reads "1_0" as 10 and the Arabic-Indic digits as 2 and 3."""
    code, out, err = run(capsys, [arg.format(**specs) for arg in argv])
    assert (code, out) == (2, "")
    assert "list" in err and "expected comma-separated integers" in err


@pytest.mark.parametrize("argv,option,value", [
    (["poincare", "--family", "A", "--rank", "\u0663"], "--rank", "\u0663"),
    (["curve", "betti", "--spec", "{plane}", "--max-degree", "0_2"], "--max-degree", "0_2"),
    (["chern", "--spec", "{plane}", "--bundle", "tangent", "--k", "\u0661"], "--k", "\u0661"),
    (["principal", "--spec", "{plane}", "--gkm", "{graph}", "--max-degree=1_000"],
     "--max-degree", "1_000")])
def test_int_options_take_ascii_digits_only(capsys, specs, argv, option, value):
    """int() reads "0_2" as 2 and the Arabic-Indic digits as 3 and 1."""
    code, out, err = run(capsys, [arg.format(**specs) for arg in argv])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"argument {option}: invalid integer value: {value!r}"}


def test_list_options_take_signs_zeros_and_spaces(capsys, specs):
    code, out, _ = run(capsys, ["curve", "ideal", "--spec", specs["plane"],
                                "--components", " +2, 03"])
    assert code == 0
    assert json.loads(out)["result"]["components"] == [2, 3]


def test_poincare_degree_sum_is_capped(capsys):
    from borelcurve.rootsystems import MAX_DEGREE_SUM
    for degrees in (str(MAX_DEGREE_SUM + 1), ",".join(["1"] * (MAX_DEGREE_SUM + 1))):
        code, out, err = run(capsys, ["poincare", "--degrees", degrees])
        assert (code, out) == (2, "")
        assert f"degrees must sum to at most {MAX_DEGREE_SUM}" in err


def test_deterministic_output(capsys, specs):
    _, first, _ = run(capsys, ["principal", "--spec", specs["plane"],
                               "--gkm", specs["graph"]])
    _, second, _ = run(capsys, ["principal", "--spec", specs["plane"],
                                "--gkm", specs["graph"]])
    assert first == second


# `--table` lines of the plane spec's lists of objects: each item is keyed by
# its index in brackets, and a zero polynomial renders as an empty value
PLANE_TABLES = {
    ("curve", "ring"): [
        "result.betti = 1 1 1",
        "result.generators[0].coeffs = 1 1 1",
        "result.generators[0].degree = 1",
        "result.generators[1].coeffs = 0 1 2",
        "result.generators[1].degree = 1",
        "result.generators[2].coeffs = 0 0 2",
        "result.generators[2].degree = 2",
        "result.hilbert = 1 2 3",
        "result.truncation_degree = 2",
    ],
    ("action", "curve"): [
        "result.components[0].chart_coords[0] = ",
        "result.components[0].chart_coords[1] = ",
        "result.components[0].degrees = 1 2",
        "result.components[0].homogeneous_coords[0] = 1",
        "result.components[0].homogeneous_coords[1] = ",
        "result.components[0].homogeneous_coords[2] = ",
        "result.components[0].index = 1",
        "result.components[1].chart_coords[0] = 0 1",
        "result.components[1].chart_coords[1] = ",
        "result.components[1].degrees = 1 2",
        "result.components[1].homogeneous_coords[0] = 1",
        "result.components[1].homogeneous_coords[1] = 0 1",
        "result.components[1].homogeneous_coords[2] = ",
        "result.components[1].index = 2",
        "result.components[2].chart_coords[0] = 0 2",
        "result.components[2].chart_coords[1] = 0 0 2",
        "result.components[2].degrees = 1 2",
        "result.components[2].homogeneous_coords[0] = 1/2",
        "result.components[2].homogeneous_coords[1] = 0 1",
        "result.components[2].homogeneous_coords[2] = 0 0 1",
        "result.components[2].index = 3",
    ],
}


def test_table_renderer(capsys, specs):
    code, out, _ = run(capsys, ["curve", "betti", "--spec", specs["plane"], "--table"])
    assert code == 0
    assert "result.betti = 1 1 1" in out
    assert "exact_arithmetic = True" in out
    for argv, expected in PLANE_TABLES.items():
        code, out, _ = run(capsys, [*argv, "--spec", specs["plane"], "--table"])
        assert code == 0
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("result.")] == expected
        assert f"options.what = {argv[1]}" in lines


def test_disconnected_graph_warns_with_one_json_line(tmp_path):
    """The warning is one JSON line on stderr, whatever the interpreter's
    warning filters, and stdout is the report alone."""
    spec, graph = tmp_path / "plane.json", tmp_path / "graph.json"
    spec.write_text(json.dumps(PLANE_SPEC))
    graph.write_text(json.dumps({"vertices": [1, 2, 3], "edges": [[1, 2, 1]]}))
    from borelcurve.gkm import GKMGraph, gkm_ordinary_betti
    betti = gkm_ordinary_betti(GKMGraph.from_json(json.loads(graph.read_text())))
    assert betti[0] == 2
    outs = []
    for flags in ([], ["-W", "error"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "borelcurve.cli", "principal",
                               "--spec", str(spec), "--gkm", str(graph)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0
        assert proc.stderr == ('{"warning": "graph is disconnected; Betti bookkeeping '
                               'applies per connected component"}\n')
        assert json.loads(proc.stdout)["result"]["gkm_ordinary_betti"] == betti
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# the quick parser agrees with argparse wherever it answers


def parse_with_argparse(argv) -> dict:
    return vars(build_parser(GRAMMAR, _COMMON).parse_args(argv))


PLAIN_LINES = [
    ["poincare", "--family", "A", "--rank", "2"],
    ["poincare", "--degrees=1,2,3", "--table"],
    ["poincare", "--rank", " 3", "--rank", "+10", "--family=G2"],
    ["action", "--spec", "x.json", "curve"],
    ["curve", "ideal", "--spec=", "--components", "2,3", "--max-degree", "3 "],
    ["principal", "--gkm", "g", "--spec", "s", "--table", "--table"],
    ["chern", "--spec", "s", "--bundle", "tangent", "--bundle=b.json", "--k", "0",
     "--test-membership", "--gkm", "g", "--max-degree", "7"],
]

REFUSED_LINES = [
    [], ["-h"], ["curve", "-h"], ["chern", "--help"], ["poincare", "--fam", "A"],
    ["curve", "ring", "--spec", "s", "--max", "2"], ["poincare", "--", "--rank", "2"],
    ["curve", "ring", "--spec", "s", "--max-degree", "-2"], ["poincare", "--degrees", "-"],
    ["curve", "ring"], ["curve", "--spec", "s"], ["curve", "ring", "ring", "--spec", "s"],
    ["poincare", "extra"], ["poincare", "--family", "E8"], ["poincare", "--rank", "2x"],
    ["poincare", "--table=1"], ["poincare", "--rank"], ["principal", "--spec", "s"],
    ["--table", "poincare"], ["bogus"],
    ["poincare", "--rank", " 3", "--rank", "1_0", "--family=G2"],
    ["curve", "ideal", "--spec=", "--components", "2,3", "--max-degree", "\u0663"],
]


@pytest.mark.parametrize("argv", PLAIN_LINES)
def test_quick_parser_takes_plain_lines(argv):
    args = _quick_parse(argv)
    assert args is not None
    assert vars(args) == parse_with_argparse(argv)


@pytest.mark.parametrize("argv", REFUSED_LINES)
def test_quick_parser_leaves_the_rest_to_argparse(argv):
    assert _quick_parse(argv) is None


NOISE = ["--", "-", "-h", "--help", "", "-2", " 3", "1_0", "\u0663", "x"]


def option_values(kind):
    """Mostly values the option takes, sometimes noise."""
    if kind is integer:
        plain = ["0", "2", "1001", " 3", "+3 ", "1_0", "\u0663", "\uff13", "2x"]
    elif isinstance(kind, tuple):
        plain = [*kind, "E8"]
    else:
        plain = ["x.json", "tangent", "1,2", ""]
    return st.sampled_from(plain * 3 + NOISE)


@st.composite
def command_lines(draw):
    """A subcommand (or noise), then options of that subcommand: repeated or
    missing, spelled `--name value`, `--name=value` or as a prefix, with its
    positional and noise mixed in."""
    command = draw(st.sampled_from([*GRAMMAR, "bogus", "-h"]))
    _, choices, options = GRAMMAR.get(command, (None, None, ()))
    pieces = []
    for name, _, kind, _, required, _ in _COMMON + options:
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2] if required else [0, 0, 1, 2]))):
            spelling = draw(st.sampled_from(["space", "equals"] * 3 + ["prefix"]))
            spelled = name[:-1] if spelling == "prefix" else name
            if kind is bool:
                pieces.append([spelled] if spelling == "space" else [f"{spelled}=1"])
            elif spelling == "equals":
                pieces.append([f"{spelled}={draw(option_values(kind))}"])
            else:
                pieces.append([spelled, draw(option_values(kind))])
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2])) if choices else 0):
        pieces.append([draw(st.sampled_from(choices))])
    pieces += [[draw(st.sampled_from(NOISE))] for _ in range(draw(st.sampled_from([0, 0, 1])))]
    pieces = draw(st.permutations(pieces))
    return [command] + [token for piece in pieces for token in piece]


@settings(max_examples=1000, deadline=None)
@given(command_lines())
def test_quick_parser_matches_argparse(argv):
    args = _quick_parse(argv)
    if args is not None:
        assert vars(args) == parse_with_argparse(argv)


# ---------------------------------------------------------------------------
# start-up cost: what a CLI process loads

EXPORTS = {
    "action": ["ActionModel", "CurveComponent", "big_cell_degrees", "check_fixed_point_return",
               "component_parametrization", "exp_e", "fixed_points", "model_from_json",
               "principal_model", "sl2_family_checks", "validate"],
    "chern": ["BundleData", "MatrixFibre", "SplitFibre", "bundle_from_json", "chern_membership",
              "chern_subalgebra_verdict", "chern_tuple", "elementary_symmetric",
              "exterior_trace", "make_bundle", "tangent_bundle"],
    "curve": ["CurveRing", "betti_numbers", "build_curve_ring", "default_degree_bound",
              "ideal_hilbert", "restrict"],
    "errors": ["InputError", "InternalError"],
    "exactalg": ["GradedSubalgebra"],
    "exponents": ["PoincarePoly", "poincare_from_degrees"],
    "gkm": ["GKMGraph", "GKMRing", "PrincipalityVerdict", "gkm_ordinary_betti",
            "principal_verdict"],
    "poly": ["Poly"],
    "rational": ["HomTuple", "format_fraction", "to_fraction"],
    "rootsystems": ["RootSystem", "WEYL_ENUMERATION_GUARD", "heights", "km_poincare",
                    "positive_roots", "weyl_length_genfun", "weyl_order"],
}


def loaded_by(code: str) -> list[str]:
    """Modules a fresh interpreter loads while running `code`, beyond its start-up.
    They are read in an atexit handler, so `code` may end the process itself;
    the probe loads no `json`, so a run that loads it shows it."""
    probe = ("import atexit, sys; _before = set(sys.modules)\n"
             "atexit.register(lambda: print(sorted(set(sys.modules) - _before), "
             "file=sys.__stdout__, flush=True))\n" + code)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    return ast.literal_eval(out.splitlines()[-1])


def loaded_by_run(argv) -> set[str]:
    """Modules a fresh interpreter loads while `main(argv)` runs (and succeeds)."""
    return set(loaded_by("import contextlib, io\nfrom borelcurve.cli import main\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         f"    assert main({[str(a) for a in argv]!r}) == 0"))


def write_plane_inputs(tmp_path) -> dict:
    paths = {}
    for name, blob in (("spec", PLANE_SPEC), ("graph", CURVES_GRAPH)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(blob))
    return paths


def test_importing_the_cli_loads_no_math_module():
    loaded = loaded_by("import borelcurve.cli")
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert [m for m in loaded if m.startswith("borelcurve")] == [
        "borelcurve", "borelcurve.cli", "borelcurve.errors"]


def test_scalar_exports_load_no_linear_algebra():
    loaded = loaded_by("import borelcurve\nborelcurve.HomTuple")
    assert "borelcurve.rational" in loaded and "borelcurve.exactalg" not in loaded


@pytest.mark.parametrize("name", EXPORTS["exponents"])
def test_poincare_exports_load_no_root_tables(name):
    loaded = loaded_by(f"import borelcurve\nborelcurve.{name}")
    assert "borelcurve.exponents" in loaded and "borelcurve.rootsystems" not in loaded


STARTUP_ONLY = {"argparse", "gettext", "locale"}


def plain_runs(tmp_path) -> list[list[str]]:
    """A well-formed command line of each subcommand, on the plane inputs."""
    paths = write_plane_inputs(tmp_path)
    spec, graph = str(paths["spec"]), str(paths["graph"])
    runs = [["poincare", "--family", "A", "--rank", "2"],
            ["action", "validate", "--spec", spec],
            ["curve", "ring", "--spec", spec, "--max-degree", "3"],
            ["principal", "--spec", spec, "--gkm", graph, "--table"],
            ["chern", "--spec", spec, "--bundle", "tangent", "--k=1", "--gkm", graph]]
    assert [argv[0] for argv in runs] == list(GRAMMAR)
    return runs


def cli_modules(loaded) -> set[str]:
    """The CLI's own modules among those loaded: cli, argparser and cmd_*."""
    return {m for m in loaded if m in ("borelcurve.cli", "borelcurve.argparser")
            or m.startswith("borelcurve.cmd_")}


def test_plain_runs_never_load_argparse(tmp_path):
    """argparse, and the gettext and locale it loads, are for help and
    errors; importing the CLI and a well-formed run of each subcommand take
    the quick parser, which loads the subcommand's own module, not another
    one nor the argparse builder."""
    assert not STARTUP_ONLY & set(loaded_by("import borelcurve.cli"))
    for argv in plain_runs(tmp_path):
        loaded = loaded_by_run(argv)
        assert not STARTUP_ONLY & loaded, argv
        assert cli_modules(loaded) == {"borelcurve.cli", f"borelcurve.cmd_{argv[0]}"}, argv


@pytest.mark.parametrize("argv", [["-h"], ["chern", "--help"]])
def test_help_falls_back_to_argparse(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: borelcurve {' '.join(argv[:-1])}".rstrip() + " [-h]")


def test_console_entry_reads_sys_argv_on_the_quick_path(capsys, monkeypatch):
    def no_argparse():
        raise AssertionError("a plain command line reached argparse")

    monkeypatch.setattr(argparser, "build_parser", no_argparse)
    monkeypatch.setattr(sys, "argv", ["borelcurve", "poincare", "--family", "A",
                                      "--rank", "2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["result"]["poly"] == [1, 2, 2, 1]


def test_poincare_run_loads_only_root_systems():
    """A run that reads no file writes its report, or its error line, with
    `jsonwrite` and loads no `json`."""
    for argv in (["poincare", "--family", "A", "--rank", "2"], ["poincare", "--degrees", "1,x"]):
        loaded = loaded_by("import contextlib, io\nfrom borelcurve.cli import main\n"
                           "with contextlib.redirect_stderr(io.StringIO()):\n"
                           f"    main({argv!r})")
        assert [m for m in loaded if m.startswith("borelcurve")] == [
            "borelcurve", "borelcurve.cli", "borelcurve.cmd_poincare", "borelcurve.errors",
            "borelcurve.exponents", "borelcurve.jsonwrite"], argv
        assert not {"fractions", "decimal", "hashlib", "json", "__future__"} & set(loaded), argv


def test_runs_that_read_a_file_never_load_the_writer(tmp_path):
    """`json` is loaded by the file read and writes the report and the error
    line; `jsonwrite` stays unloaded."""
    paths = write_plane_inputs(tmp_path)
    spec, graph = str(paths["spec"]), str(paths["graph"])
    for argv, code in ((["curve", "ring", "--spec", spec], 0),
                       (["principal", "--spec", spec, "--gkm", graph], 0),
                       (["curve", "ring", "--spec", spec, "--max-degree", "1001"], 2)):
        loaded = loaded_by("import contextlib, io\nfrom borelcurve.cli import main\n"
                           "with contextlib.redirect_stdout(io.StringIO()), "
                           "contextlib.redirect_stderr(io.StringIO()):\n"
                           f"    assert main({argv!r}) == {code}")
        assert "json" in loaded and "borelcurve.jsonwrite" not in loaded, argv


def test_module_runs_never_import_the_cli_by_name(tmp_path):
    """`python -m borelcurve.cli` runs cli.py as __main__; a module importing
    `borelcurve.cli` would compile and run it a second time.  The entry ends
    the process (with the run's code, which must be 0), so the modules are
    read at exit."""
    for argv in plain_runs(tmp_path):
        loaded = loaded_by("import contextlib, io, runpy, sys\n"
                           f"sys.argv = {['borelcurve', *argv]!r}\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    runpy.run_module('borelcurve.cli', run_name='__main__')")
        assert cli_modules(loaded) == {f"borelcurve.cmd_{argv[0]}"}, argv


def test_package_has_no_subpackages():
    """The acceptance no-float gate and the benchmark's `src_lines` count both
    read `src/borelcurve/*.py`, so a module in a subdirectory would escape both."""
    package = SRC / "borelcurve"
    assert [p for p in package.rglob("*.py") if p.parent != package] == []


@pytest.mark.parametrize("argv,code", [(["-h"], 0), (["chern", "--help"], 0),
                                       (["curve", "ring"], 2), (["poincare", "--rank", "2x"], 2),
                                       (["bogus"], 2)])
def test_help_and_malformed_lines_load_argparser(argv, code):
    loaded = loaded_by("import contextlib, io\nfrom borelcurve.cli import main\n"
                       "with contextlib.redirect_stdout(io.StringIO()), "
                       "contextlib.redirect_stderr(io.StringIO()):\n"
                       "    try:\n"
                       f"        code = main({argv!r})\n"
                       "    except SystemExit as exc:\n"
                       "        code = exc.code\n"
                       f"assert code == {code}, code")
    assert cli_modules(loaded) == {"borelcurve.cli", "borelcurve.argparser"}


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_without_a_traceback(unbuffered):
    """A reader that went away before the report is written: exit 141 (as a
    shell reports a writer killed by SIGPIPE), nothing on stderr, whether the
    report fails in print (unbuffered) or in the flush at the end."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "borelcurve.cli", "poincare", "--family",
                               "A", "--rank", "2"], stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_ambient_runs_load_no_linear_algebra(tmp_path):
    """action and curve runs read the curve ring in closed form: no exactalg,
    gkm or chern.  principal needs gkm, whose congruence ring is a component
    count, so it loads no exactalg either; only chern --gkm does.  The image
    of restriction has a closed-form Hilbert function that reads only the
    fixed-point count, so principal and chern --gkm load no curve; every
    curve run does."""
    paths = write_plane_inputs(tmp_path)
    spec, graph = str(paths["spec"]), str(paths["graph"])
    ambient = {"borelcurve.chern", "borelcurve.exactalg", "borelcurve.gkm"}
    runs = {("action", "curve", "--spec", spec): ambient,
            ("curve", "ideal", "--spec", spec, "--components", "2"): ambient,
            ("principal", "--spec", spec, "--gkm", graph):
                {"borelcurve.chern", "borelcurve.curve", "borelcurve.exactalg"},
            ("chern", "--spec", spec, "--bundle", "tangent", "--gkm", graph):
                {"borelcurve.curve"}}
    for argv, forbidden in runs.items():
        loaded = loaded_by_run(argv)
        assert not forbidden & loaded, (argv[0], forbidden & loaded)
    for what in (["ring"], ["betti"], ["restrict", "--components", "1,3"],
                 ["ideal", "--components", "2"]):
        assert "borelcurve.curve" in loaded_by_run(["curve", *what, "--spec", spec]), what


def test_chern_without_gkm_loads_no_congruence_ring(tmp_path):
    """Membership reads the closed-form curve ring; only --gkm needs the
    congruence ring and the generated subalgebra.  The tuples read only the
    fixed-point count, so a chern run loads curve only for membership."""
    paths = write_plane_inputs(tmp_path)
    argv = ["chern", "--spec", paths["spec"], "--bundle", "tangent"]
    loaded = loaded_by_run(argv + ["--test-membership"])
    assert {"borelcurve.chern", "borelcurve.curve"} <= loaded
    assert not {"borelcurve.exactalg", "borelcurve.gkm"} & loaded
    loaded = loaded_by_run(argv)
    assert "borelcurve.chern" in loaded
    assert not {"borelcurve.curve", "borelcurve.exactalg", "borelcurve.gkm"} & loaded


def test_only_parametrizations_load_the_polynomials(tmp_path):
    """The curve ring is read off the normal form, so curve, principal and
    chern runs load no `poly`; `action curve` prints parametrizations and does."""
    paths = write_plane_inputs(tmp_path)
    spec, graph = str(paths["spec"]), str(paths["graph"])
    runs = [["curve", "betti", "--spec", spec],
            ["curve", "ring", "--spec", spec],
            ["curve", "restrict", "--spec", spec, "--components", "1,3"],
            ["curve", "ideal", "--spec", spec, "--components", "2"],
            ["principal", "--spec", spec, "--gkm", graph],
            ["chern", "--spec", spec, "--bundle", "tangent", "--test-membership"],
            ["chern", "--spec", spec, "--bundle", "tangent", "--gkm", graph]]
    for argv in runs:
        assert "borelcurve.poly" not in loaded_by_run(argv), argv
    assert "borelcurve.poly" in loaded_by_run(["action", "curve", "--spec", spec])


BUILTIN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha256", "_sha2"))


def test_no_run_loads_the_oracles_or_openssl(tmp_path):
    """The oracles are for tests only, and the input digests come from the
    builtin sha256 module (when the interpreter has one), not through
    hashlib, which loads OpenSSL's _hashlib first."""
    paths = write_plane_inputs(tmp_path)
    spec, graph = str(paths["spec"]), str(paths["graph"])
    runs = [["poincare", "--family", "B", "--rank", "3"],
            ["action", "validate", "--spec", spec],
            ["action", "curve", "--spec", spec],
            ["curve", "ring", "--spec", spec],
            ["principal", "--spec", spec, "--gkm", graph],
            ["chern", "--spec", spec, "--bundle", "tangent", "--test-membership",
             "--gkm", graph]]
    for argv in runs:
        loaded = loaded_by_run(argv)
        assert "borelcurve.oracles" not in loaded, argv
        if BUILTIN_SHA256:
            assert not {"hashlib", "_hashlib"} & loaded, argv


@pytest.mark.parametrize("builtin", [True, False])
def test_input_digest_matches_hashlib(monkeypatch, builtin):
    """Both branches of cli._sha256 give hashlib's digest; hiding the builtin
    modules forces the hashlib fallback."""
    data = bytes(range(256)) * 33
    expected = hashlib.sha256(data).hexdigest()
    real, calls = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(1) or real(data))
    if not builtin:
        monkeypatch.setitem(sys.modules, "_sha256", None)
        monkeypatch.setitem(sys.modules, "_sha2", None)
    assert _sha256(data) == expected
    assert len(calls) == (0 if builtin and BUILTIN_SHA256 else 1)


def test_piped_spec_reports_the_digest_of_the_bytes_parsed():
    """A pipe can be read once: the digest is that of the bytes the run parsed."""
    data = json.dumps(PLANE_SPEC).encode()
    proc = subprocess.run([sys.executable, "-m", "borelcurve.cli", "curve", "betti",
                           "--spec", "/dev/stdin"], input=data, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["inputs"] == {
        "spec": {"path": "/dev/stdin", "sha256": hashlib.sha256(data).hexdigest()}}


def test_each_input_file_is_opened_once(capsys, specs, monkeypatch):
    """One read serves both the parse and the digest."""
    real, opened = builtins.open, []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, _, err = run(capsys, ["chern", "--spec", specs["plane"], "--bundle",
                                specs["bundle_a"], "--gkm", specs["graph"]])
    monkeypatch.undo()
    assert code == 0, err
    assert opened == [specs["plane"], specs["bundle_a"], specs["graph"]]


# the cases where decoding the bytes read could differ from a text-mode read
MALFORMED_FILES = {
    "missing": (None, "cannot read {path}: No such file or directory"),
    "directory": ("dir", "cannot read {path}: Is a directory"),
    "invalid UTF-8": (b'\xff{"n": 1}', "{path} is not valid JSON: 'utf-8' codec can't "
                      "decode byte 0xff in position 0: invalid start byte"),
    "UTF-8 BOM": (b'\xef\xbb\xbf{"n": 1}', "{path} is not valid JSON: Unexpected UTF-8 BOM "
                  "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    "CRLF": (b'{\r\n  "n": 1,\r\n  "h_weights": [1, -1]\r\n  "e_matrix": "principal"\r\n}\r\n',
             "{path} is not valid JSON: Expecting ',' delimiter: line 4 column 3 (char 37)"),
}


@pytest.mark.parametrize("case", MALFORMED_FILES)
def test_unreadable_input_file_exits_2_with_its_error(capsys, tmp_path, case):
    content, message = MALFORMED_FILES[case]
    path = tmp_path / "spec.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, ["action", "validate", "--spec", str(path)])
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": message.format(path=path)}) + "\n"


@pytest.mark.parametrize("top", ['"abc"', "5", "[1, 2]", "null", "true"])
@pytest.mark.parametrize("argv, what", [
    (["curve", "betti", "--spec", "{top}"], "action"),
    (["principal", "--spec", "{plane}", "--gkm", "{top}"], "graph"),
    (["chern", "--spec", "{plane}", "--bundle", "{top}"], "bundle"),
], ids=["spec", "gkm", "bundle"])
def test_spec_that_is_no_json_object_exits_2_with_fixed_text(capsys, specs, tmp_path, top,
                                                             argv, what):
    """A spec whose top level is a string, number, array, null or boolean is
    refused by one text, the same under every Python version."""
    (tmp_path / "top.json").write_text(top)
    paths = dict(specs, top=str(tmp_path / "top.json"))
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": f"bad {what} spec: expected a JSON object"}) + "\n"


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items()
                                         for n in names])
def test_exported_names_resolve_lazily(module, name):
    target = getattr(importlib.import_module(f"borelcurve.{module}"), name)
    assert getattr(borelcurve, name) is target
    namespace: dict = {}
    exec(f"from borelcurve import {name}", namespace)
    assert namespace[name] is target


def test_export_list_is_pinned():
    exported = {n for names in EXPORTS.values() for n in names}
    assert set(borelcurve.__all__) == exported | set(EXPORTS)
    assert exported <= set(dir(borelcurve))
    assert borelcurve.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        borelcurve.no_such_name


# ---------------------------------------------------------------------------
# the exit path: a process ends in cli.run, through os._exit; main touches no
# process-wide state


def test_main_leaves_the_collector_alone(capsys, specs):
    """Tests and the benchmark's tracer call main many times in one process."""
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(["curve", "ring", "--spec", specs["plane"]]) == 0
    assert main(["curve", "ring", "--spec", specs["plane"], "--max-degree", "-1"]) == 2
    assert main(["curve"]) == 2
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize("argv", [["poincare", "--family", "A", "--rank", "2"],
                                  ["poincare", "--family", "E8", "--rank", "8"], ["-h"]])
def test_module_entry_runs_atexit_and_keeps_the_output_and_exit_code(capsys, monkeypatch,
                                                                     argv):
    """A fresh `python -m` run, with buffered streams, gives main's exit code
    and bytes; an atexit handler registered before the entry still runs, and
    what it writes without a newline still reaches both streams.  A malformed
    line ends in the entry with code 2; help leaves through argparse's
    SystemExit and the interpreter's normal exit."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    expected = run_in_process(capsys, argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    code = ("import atexit, runpy, sys\n"
            "atexit.register(lambda: (sys.stdout.write('[atexit]'), "
            "sys.stderr.write('[atexit]')))\n"
            f"sys.argv = {['borelcurve', *argv]!r}\n"
            "runpy.run_module('borelcurve.cli', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        expected[0], expected[1] + "[atexit]", expected[2] + "[atexit]")


def entry_calls(source: str) -> list[str]:
    """Calls in source that enter the process entry: `cli.run`, a `run` imported
    from borelcurve.cli, or `runpy.run_module("borelcurve.cli", ...)`.  Code in
    a string, run by a fresh interpreter, is not a call here."""
    tree = ast.parse(source)
    entry = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "borelcurve.cli"
             for alias in node.names if alias.name == "run"}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        called = ast.unparse(node.func)
        first = node.args[0] if node.args else None
        if (called in entry or called.split(".")[-2:] == ["cli", "run"]
                or called.endswith("run_module") and isinstance(first, ast.Constant)
                and first.value == "borelcurve.cli"):
            found.append(ast.unparse(node))
    return found


def test_no_test_or_script_enters_the_process_entry():
    """`cli.run` ends its process with os._exit, so in a test it would end the
    whole pytest session with the CLI's exit code, which may be 0."""
    assert entry_calls("from borelcurve import cli\nfrom borelcurve.cli import run as go\n"
                       "import runpy\ncli.run()\ngo()\n"
                       "runpy.run_module('borelcurve.cli', run_name='__main__')\n"
                       "code = \"runpy.run_module('borelcurve.cli')\"\n") == [
        "cli.run()", "go()", "runpy.run_module('borelcurve.cli', run_name='__main__')"]
    for path in sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        assert entry_calls(path.read_text(encoding="utf-8")) == [], path


def test_console_entry_is_the_module_entry():
    """pyproject's console script and `python -m borelcurve.cli` run one function."""
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n")[1]
    name, _, target = scripts.splitlines()[0].partition(" = ")
    module, _, function = target.strip('"').partition(":")
    assert (name, module) == ("borelcurve", "borelcurve.cli")
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    blocks = [node.body for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(statement) for statement in body] for body in blocks] == [
        [f"{function}()"]]
    assert callable(getattr(cli, function))


def test_plane_demo_prints_the_parametrizations_as_text(capsys):
    """scripts/plane_demo.py renders its polynomials itself; Poly has no __str__."""
    runpy.run_path(str(ROOT / "scripts" / "plane_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("component over")]
    assert lines == ["component over fixed point 1: (w1, w2) = (0, 0)",
                     "component over fixed point 2: (w1, w2) = (v, 0)",
                     "component over fixed point 3: (w1, w2) = (2*v, 2*v^2)"]
    assert "Fraction(" not in out and "Poly(" not in out


def run_process(argv, flags=()) -> tuple:
    """A fresh process with buffered streams, so output lost at exit shows."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, *flags, "-m", "borelcurve.cli", *argv],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def run_in_process(capsys, argv, warning_filter=None) -> tuple:
    with warnings.catch_warnings():
        if warning_filter:
            warnings.simplefilter(warning_filter)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_process_output_is_the_in_process_output(capsys, monkeypatch, tmp_path):
    """stdout, stderr and exit code of a process equal main's, on one job of
    each kind the benchmark runs (seed 3), help, an argparse error and the
    disconnected-graph warning under -W error."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    jobs = load_bench_jobs()
    first = {}
    for workload in jobs.WORKLOADS:
        for job in jobs.build(workload, 3, tmp_path / workload):
            first.setdefault(job.kind, job.argv)
    assert len(first) == 13
    spec, graph = tmp_path / "plane.json", tmp_path / "graph.json"
    spec.write_text(json.dumps(PLANE_SPEC))
    graph.write_text(json.dumps({"vertices": [1, 2, 3], "edges": [[1, 2, 1]]}))
    cases = [(argv, (), None) for argv in first.values()] + [
        (["-h"], (), None),
        (["poincare", "--family", "E8", "--rank", "8"], (), None),
        (["principal", "--spec", str(spec), "--gkm", str(graph)], ("-W", "error"), "error")]
    codes = set()
    for argv, flags, warning_filter in cases:
        process = run_process(argv, flags)
        assert process == run_in_process(capsys, argv, warning_filter), argv
        codes.add(process[0])
    assert codes == {0, 2}


RESOURCE_RUNS = [
    ["poincare", "--degrees", "1,2,3"],
    ["action", "curve", "--spec", "{plane}"],
    ["curve", "ideal", "--spec", "{plane}", "--components", "2"],
    ["principal", "--spec", "{plane}", "--gkm", "{graph}"],
    ["chern", "--spec", "{plane}", "--bundle", "{bundle_a}", "--bundle", "tangent",
     "--test-membership", "--gkm", "{graph}"],
    ["chern", "--spec", "{plane}", "--bundle", "{missing}"],
    ["principal", "--spec", "{plane}", "--gkm", "{bad_json}"],
]


@pytest.mark.parametrize("argv", RESOURCE_RUNS, ids=lambda argv: argv[0])
def test_no_run_leaves_a_file_open(capsys, specs, tmp_path, argv):
    """A process ends through os._exit, which closes no file object a run
    leaves behind, so a run must close every file it opens; an unclosed one
    raises ResourceWarning."""
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{")
    paths = dict(specs, missing=str(tmp_path / "missing.json"), bad_json=str(bad_json))
    argv = [a.format(**paths) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        main(argv)
        gc.collect()
    capsys.readouterr()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
