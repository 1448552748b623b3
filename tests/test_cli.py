import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import borelcurve
from borelcurve import cli
from borelcurve.cli import _COMMON, GRAMMAR, _build_parser, _quick_parse, _sha256, main

SRC = Path(__file__).resolve().parent.parent / "src"

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
    code, _, err = run(capsys, ["poincare", "--family", "A", "--rank", "2",
                                "--degrees", "1,2"])
    assert code == 2
    assert "not both" in err


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
    verdict reads r without building the slice."""
    from borelcurve.exactalg import GradedSubalgebra
    spec, graph = tmp_path / "p8.json", tmp_path / "star.json"
    spec.write_text(json.dumps(P8_SPEC))
    graph.write_text(json.dumps({"vertices": list(range(1, 10)),
                                 "edges": [[1, j, 1] for j in range(2, 10)]}))
    asked = []
    original = GradedSubalgebra.graded_basis
    monkeypatch.setattr(GradedSubalgebra, "graded_basis",
                        lambda self, d: asked.append(d) or original(self, d))
    code, out, _ = run(capsys, ["chern", "--spec", str(spec), "--bundle", "tangent",
                                "--gkm", str(graph), "--max-degree", "1000"])
    assert code == 0
    image = json.loads(out)["result"]["subalgebra_verdict"]["image_hilbert"]
    assert len(image) == 1001
    full = image.index(9)
    assert image[full:] == [9] * (1001 - full)
    assert asked == list(range(full + 1))


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
    assert "multiplicity must be <= 1000" in err
    for argv in (["curve", "ideal", "--spec", specs["plane"], "--components", "2"],
                 ["principal", "--spec", specs["plane"], "--gkm", specs["graph"]],
                 ["chern", "--spec", specs["plane"], "--bundle", "tangent",
                  "--gkm", specs["graph"]]):
        code, _, err = run(capsys, argv + ["--max-degree", "1001"])
        assert code == 2
        assert "--max-degree must be <= 1000" in err
    code, out, _ = run(capsys, ["curve", "ring", "--spec", specs["plane"],
                                "--max-degree", "1000"])
    assert code == 0
    assert len(json.loads(out)["result"]["hilbert"]) == 1001


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
        assert code == 2 and "--max-degree must be <= 1000" in err


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


def test_table_renderer(capsys, specs):
    code, out, _ = run(capsys, ["curve", "betti", "--spec", specs["plane"], "--table"])
    assert code == 0
    assert "result.betti = 1 1 1" in out
    assert "exact_arithmetic = True" in out


def test_disconnected_graph_warns_with_one_json_line(tmp_path):
    """The warning is one JSON line on stderr, whatever the interpreter's
    warning filters, and stdout is the report alone."""
    spec, graph = tmp_path / "plane.json", tmp_path / "graph.json"
    spec.write_text(json.dumps(PLANE_SPEC))
    graph.write_text(json.dumps({"vertices": [1, 2, 3], "edges": [[1, 2, 1]]}))
    from borelcurve.gkm import GKMGraph, gkm_ordinary_betti
    with pytest.warns(UserWarning):
        betti = gkm_ordinary_betti(GKMGraph.from_json(json.loads(graph.read_text())))
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
    return vars(_build_parser().parse_args(argv))


PLAIN_LINES = [
    ["poincare", "--family", "A", "--rank", "2"],
    ["poincare", "--degrees=1,2,3", "--table"],
    ["poincare", "--rank", " 3", "--rank", "1_0", "--family=G2"],
    ["action", "--spec", "x.json", "curve"],
    ["curve", "ideal", "--spec=", "--components", "2,3", "--max-degree", "\u0663"],
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
    if kind is int:
        plain = ["0", "2", "1001", " 3", "1_0", "\u0663", "2x"]
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
    _, _, choices, options = GRAMMAR.get(command, (None, None, None, ()))
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
    "exactalg": ["GradedSubalgebra", "HomTuple", "Poly", "format_fraction", "to_fraction"],
    "gkm": ["GKMGraph", "GKMRing", "PrincipalityVerdict", "gkm_ordinary_betti",
            "principal_verdict"],
    "rootsystems": ["PoincarePoly", "RootSystem", "heights", "km_poincare",
                    "poincare_from_degrees", "positive_roots", "weyl_length_genfun",
                    "weyl_order"],
}


def loaded_by(code: str) -> list[str]:
    """Modules a fresh interpreter loads while running `code`, beyond its start-up."""
    probe = ("import json, sys; _before = set(sys.modules)\n" + code +
             "\nprint(json.dumps(sorted(set(sys.modules) - _before)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    return json.loads(out.splitlines()[-1])


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


STARTUP_ONLY = {"argparse", "gettext", "locale"}


def test_plain_runs_never_load_argparse(tmp_path):
    """argparse, and the gettext and locale it loads, are for help and
    errors; importing the CLI and a well-formed run of each subcommand take
    the quick parser."""
    assert not STARTUP_ONLY & set(loaded_by("import borelcurve.cli"))
    paths = write_plane_inputs(tmp_path)
    spec, graph = str(paths["spec"]), str(paths["graph"])
    for argv in (["poincare", "--family", "A", "--rank", "2"],
                 ["action", "validate", "--spec", spec],
                 ["curve", "ring", "--spec", spec, "--max-degree", "3"],
                 ["principal", "--spec", spec, "--gkm", graph, "--table"],
                 ["chern", "--spec", spec, "--bundle", "tangent", "--k=1", "--gkm", graph]):
        assert not STARTUP_ONLY & loaded_by_run(argv), argv


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

    monkeypatch.setattr(cli, "_build_parser", no_argparse)
    monkeypatch.setattr(sys, "argv", ["borelcurve", "poincare", "--family", "A",
                                      "--rank", "2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["result"]["poly"] == [1, 2, 2, 1]


def test_poincare_run_loads_only_root_systems():
    loaded = loaded_by("from borelcurve.cli import main\n"
                       "main(['poincare', '--family', 'A', '--rank', '2'])")
    assert [m for m in loaded if m.startswith("borelcurve")] == [
        "borelcurve", "borelcurve.cli", "borelcurve.errors", "borelcurve.record",
        "borelcurve.rootsystems"]
    assert not {"fractions", "decimal", "hashlib"} & set(loaded)


def test_ambient_runs_load_no_linear_algebra(tmp_path):
    """action and curve runs read the curve ring in closed form: no exactalg,
    gkm or chern.  principal needs gkm, whose congruence ring is a component
    count, so it loads no exactalg either; only chern --gkm does."""
    paths = write_plane_inputs(tmp_path)
    runs = {"action": ["action", "curve", "--spec", paths["spec"]],
            "curve": ["curve", "ideal", "--spec", paths["spec"], "--components", "2"],
            "principal": ["principal", "--spec", paths["spec"], "--gkm", paths["graph"]]}
    for subcommand, argv in runs.items():
        loaded = loaded_by_run(argv)
        forbidden = {"borelcurve.chern", "borelcurve.exactalg"}
        if subcommand != "principal":
            forbidden.add("borelcurve.gkm")
        assert not forbidden & loaded, (subcommand, forbidden & loaded)


def test_chern_without_gkm_loads_no_congruence_ring(tmp_path):
    """Membership reads the closed-form curve ring; only --gkm needs the
    congruence ring and the generated subalgebra."""
    paths = write_plane_inputs(tmp_path)
    loaded = loaded_by_run(["chern", "--spec", paths["spec"], "--bundle", "tangent",
                            "--test-membership"])
    assert "borelcurve.chern" in loaded
    assert not {"borelcurve.exactalg", "borelcurve.gkm"} & loaded


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
def test_input_digest_matches_hashlib(tmp_path, monkeypatch, builtin):
    """Both branches of cli._sha256 give hashlib's digest; hiding the builtin
    modules forces the hashlib fallback."""
    path = tmp_path / "input.json"
    path.write_bytes(bytes(range(256)) * 33)
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    real, calls = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(1) or real(data))
    if not builtin:
        monkeypatch.setitem(sys.modules, "_sha256", None)
        monkeypatch.setitem(sys.modules, "_sha2", None)
    assert _sha256(str(path)) == expected
    assert len(calls) == (0 if builtin and BUILTIN_SHA256 else 1)


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
