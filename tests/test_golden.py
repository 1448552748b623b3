"""Byte-identity corpus: exit code, stdout and stderr of fixed CLI runs.

tests/golden.json maps each case key to the exit code and the sha256 of the
stdout and of the stderr of one `borelcurve` command line, run in-process
through `cli.main`.  The cases are every job of bench/jobs.py at seeds 3 and
47, a few larger runs (`_larger`) and refused inputs whose error line is the
same on every supported Python (`_refused`).  Every input is written under a
relative directory of the working directory, and reports record input paths
as given, so the digests do not depend on where the checkout lives.  The same
pass checks that no stderr line is longer than STDERR_LINE_MAX characters
for each echoed value it cuts, and at least one.

A change that is meant to alter an output regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and names every changed key in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import tempfile
from pathlib import Path

from conftest import load_bench_jobs, run_cli

from borelcurve.errors import ECHO_MAX

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SEEDS = (3, 47)
# An error line echoes at most ECHO_MAX characters of each refused value
# (errors.clip), then "... (N characters)".  The longest fixed text around an
# echo in the corpus is 93 characters (the `refused/long_edge` line without its
# echo: the {"error": ...} wrapper, the message and the clip's "... (2390
# characters)"), so a line with at most one cut echo stays within
# ECHO_MAX + 100; the longest, that line, has 253, a margin of 7.  Two
# messages echo two values and cut each (make_bundle's label and rank, the
# `chern --gkm` mismatch's bundle name and label), so a line is bounded by
# its number of cut echoes: with k > 1 of them, k times STDERR_LINE_MAX.  A
# long echo left uncut carries no "... (N characters)", so it still fails.
STDERR_LINE_MAX = ECHO_MAX + 100
CUT_ECHO = re.compile(r"\.\.\. \(\d+ characters\)")


jobs = load_bench_jobs()


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _principal_spec(n: int) -> dict:
    return {"n": n, "h_weights": [n - 2 * i for i in range(n + 1)], "e_matrix": "principal"}


def _larger(out: Path) -> dict[str, list[str]]:
    """Runs past the bench sizes, each on a path the bench jobs do not reach."""
    out.mkdir(parents=True)
    p64 = _write(out / "p64.json", _principal_spec(64))
    star64 = _write(out / "star64.json", jobs.star_graph(65))
    cases = {
        "larger/curve_ring_p64": ["curve", "ring", "--spec", p64],
        "larger/principal_star_p64": ["principal", "--spec", p64, "--gkm", star64],
        "larger/chern_tangent_gkm_p64": ["chern", "--spec", p64, "--bundle", "tangent",
                                         "--k", "1", "--gkm", star64],
    }
    # plateau: three rank-3 split bundles constant on the label pairs {1,2},
    # {3,4}, ..., {33}, against a path whose odd edges have multiplicity 12
    rng = random.Random(32)
    p32 = _write(out / "p32.json", _principal_spec(32))
    path = {"vertices": list(range(1, 34)),
            "edges": [[i, i + 1, 12 if i % 2 else 1] for i in range(1, 33)]}
    argv = ["chern", "--spec", p32, "--gkm", _write(out / "plateau_path.json", path)]
    for b in range(3):
        weights = {p: [rng.randint(-20, 20) for _ in range(3)] for p in range(17)}
        bundle = {"rank": 3, "fibres": {str(j): {"weights": weights[(j - 1) // 2]}
                                        for j in range(1, 34)}}
        argv += ["--bundle", _write(out / f"plateau_bundle{b}.json", bundle)]
    cases["larger/chern_plateau_p32_m12"] = argv
    model = jobs.regular_model(random.Random(3), 12)
    cases["larger/chern_matrix_tangent_p12"] = [
        "chern", "--spec", _write(out / "p12.json", model),
        "--bundle", _write(out / "matrix_tangent_p12.json", jobs.matrix_tangent(model)),
        "--k", "1", "--test-membership"]
    # the complete graph on 41 labels, multiplicities drawn from 1..1000
    rng = random.Random(5)
    dense = {"vertices": list(range(1, 42)),
             "edges": [[i, j, rng.randint(1, 1000)] for i in range(1, 42)
                       for j in range(i + 1, 42)]}
    cases["larger/principal_dense_p40"] = [
        "principal", "--spec", _write(out / "p40.json", _principal_spec(40)),
        "--gkm", _write(out / "dense_p40.json", dense)]
    return cases


def _refused(out: Path) -> dict[str, list[str]]:
    """A JSON integer past int()'s digit limit, and values too long to echo whole."""
    out.mkdir(parents=True)
    spec = _principal_spec(2)
    p2 = _write(out / "p2.json", spec)
    digits = out / "digits.json"
    digits.write_text('{"n": ' + "9" * 5000 + "}", encoding="utf-8")
    big = 10 ** 3999  # a 4,000-digit label, within int()'s digit limit
    long_dir = str(out) + "/." * 100  # a long path of short names (pathlib drops the dots)

    def bundle(name: str, fibres: dict, rank: int = 1) -> str:
        return _write(out / name, {"rank": rank, "fibres": fibres})

    bundle("line.json", {"1": {"weights": [1]}})  # read below through long_dir

    return {
        "refused/json_int_5000_digits": ["curve", "betti", "--spec", str(digits)],
        "refused/long_h_weights": ["curve", "betti", "--spec", _write(
            out / "long_h.json", {**spec, "h_weights": "w" * 300})],
        "refused/long_matrix_entry": ["action", "validate", "--spec", _write(
            out / "long_entry.json", {**spec, "e_matrix": [["1/" + "x" * 300] * 3] * 3})],
        "refused/long_edge": ["principal", "--spec", p2, "--gkm",
                              _write(out / "long_edge.json", {"vertices": [1, 2, 3],
                                                              "edges": [list(range(500))]})],
        "refused/long_rank": ["poincare", "--family", "A", "--rank", "9" * 5000],
        "refused/long_degree_list": ["poincare", "--degrees", "x," * 1000],
        "refused/edge_to_long_unknown_vertex": [
            "principal", "--spec", p2, "--gkm",
            _write(out / "unknown_vertex.json", {"vertices": [1, 2], "edges": [[1, big]]})],
        "refused/long_fibre_key_without_weights": ["chern", "--spec", p2, "--bundle", bundle(
            "no_weights.json", {" " * 5000 + "1": {}})],
        # two long echoes on one line: the fibre label and the bundle rank
        "refused/long_fibre_label_and_rank": ["chern", "--spec", p2, "--bundle", bundle(
            "rank_mismatch.json", {str(big * 10): {"weights": [1]}}, rank=big)],
        "refused/long_fibre_label_off_commutation": ["chern", "--spec", p2, "--bundle", bundle(
            "commutation.json", {str(big * 10): {"rho_W": [[0]], "rho_V": [[1]]}})],
        "refused/long_generator_off_congruences": [
            "chern", "--spec", _write(out / "p60.json", _principal_spec(60)), "--bundle",
            "tangent", "--gkm", _write(out / "double_edge.json", {
                "vertices": list(range(1, 62)), "edges": [[1, 2, 2]]})],
        # two long echoes on one line: the bundle path and the first label off the graph
        "refused/long_bundle_path_off_graph": [
            "chern", "--spec", p2, "--bundle", f"{long_dir}/line.json", "--gkm",
            _write(out / "far_vertex.json", {"vertices": [1, big]})],
        "refused/long_missing_path": ["curve", "betti", "--spec", "missing/" * 125 + "p.json"],
        "refused/long_path_to_bad_json": ["curve", "betti", "--spec",
                                          f"{long_dir}/{digits.name}"],
    }


def cases(root: Path) -> dict[str, list[str]]:
    """Write every input under `root` and return each case's command line."""
    out: dict[str, list[str]] = {}
    for workload in jobs.WORKLOADS:
        for seed in SEEDS:
            for job in jobs.build(workload, seed, root / f"{workload}_{seed}"):
                key = f"{workload}/{seed}/{job.key}"
                assert key not in out, f"duplicate case key {key}"
                out[key] = list(job.argv)
    return {**out, **_larger(root / "larger"), **_refused(root / "refused")}


def digest(code: int, out: str, err: str) -> dict:
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return {"exit": code, "stdout": sha(out), "stderr": sha(err)}


def test_outputs_match_the_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = cases(Path("inputs"))
    assert sorted(runs) == sorted(golden)
    wrong, long = [], []
    for key, argv in runs.items():
        code, out, err = run_cli(argv)
        if digest(code, out, err) != golden[key]:
            wrong.append(f"{key}: borelcurve {' '.join(argv)}")
        long += [f"{key}: {len(line)} characters" for line in err.splitlines()
                 if len(line) > STDERR_LINE_MAX * max(1, len(CUT_ECHO.findall(line)))]
    assert not wrong, "output differs from tests/golden.json:\n" + "\n".join(wrong)
    assert not long, f"stderr lines past {STDERR_LINE_MAX} characters per cut echo:\n" + "\n".join(long)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        corpus = {key: digest(*run_cli(argv)) for key, argv in cases(Path("inputs")).items()}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {GOLDEN}")
