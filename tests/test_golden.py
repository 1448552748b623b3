"""Byte-identity corpus: exit code, stdout and stderr of fixed CLI runs.

tests/golden.json maps each case key to the exit code and the sha256 of the
stdout and of the stderr of one `borelcurve` command line, run in-process
through `cli.main`.  The cases are every job of bench/jobs.py at seeds 3 and
47, and a few larger runs (`_larger`).  Every input is written under a
relative directory of the working directory, and reports record input paths
as given, so the digests do not depend on where the checkout lives.

A change that is meant to alter an output regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and names every changed key in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from borelcurve import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SEEDS = (3, 47)


def _bench_jobs():
    """bench/jobs.py, imported by path under a name of its own."""
    spec = importlib.util.spec_from_file_location("golden_bench_jobs",
                                                  HERE.parent / "bench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


jobs = _bench_jobs()


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


def cases(root: Path) -> dict[str, list[str]]:
    """Write every input under `root` and return each case's command line."""
    out: dict[str, list[str]] = {}
    for workload in jobs.WORKLOADS:
        for seed in SEEDS:
            for job in jobs.build(workload, seed, root / f"{workload}_{seed}"):
                key = f"{workload}/{seed}/{job.key}"
                assert key not in out, f"duplicate case key {key}"
                out[key] = list(job.argv)
    return {**out, **_larger(root / "larger")}


def digest(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return {"exit": code, "stdout": sha(out.getvalue()), "stderr": sha(err.getvalue())}


def test_outputs_match_the_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = cases(Path("inputs"))
    assert sorted(runs) == sorted(golden)
    wrong = [f"{key}: borelcurve {' '.join(argv)}"
             for key, argv in runs.items() if digest(argv) != golden[key]]
    assert not wrong, "output differs from tests/golden.json:\n" + "\n".join(wrong)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        corpus = {key: digest(argv) for key, argv in cases(Path("inputs")).items()}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {GOLDEN}")
