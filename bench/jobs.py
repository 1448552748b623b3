"""Seeded inputs and job lists for the borelcurve benchmark.

`build(workload, seed, out_dir)` writes every input file the workload's jobs
read (action models, congruence graphs, split and matrix-fibre bundles and
malformed specs) into `out_dir` and returns the job list.  The same seed gives
the same bytes and the same jobs; the program under test receives only these
files and the command-line arguments.

Every model is a regular model, distinct from every other model of the seed:

- h is the step-2 weight progression n, n-2, ..., -n shifted by a seeded
  even integer, with the coordinates in a seeded order;
- e is the matching superdiagonal (a single Jordan block after sorting),
  whose nonzero entries are a seeded, randomly signed arrangement of a fixed
  pool of fractions p/q.  Fixing the pool keeps coefficient sizes, and with
  them the cost of a job, nearly the same from seed to seed.

Run as a script to write the inputs of one workload:

    python3 bench/jobs.py --workload small_jobs --seed 1 --out .bench_out/inputs
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("ring_scaling", "subvariety_verdicts", "small_jobs")

# Model sizes, small enough that one pass over either job list takes about
# 5 s at the seed commit on a 2-core machine, so that a run can time every
# job four or five times within the 36 s of a run (see run.py).
RING_SIZES = (4, 6, 8)
SUBVARIETY_SIZES = (4, 6)

ENTRY_POOL = ("1", "2", "1/2", "3", "2/3", "3/2", "1/3", "4/3", "5/2", "3/4", "2/5", "5/3")

# Every supported family; B, C and D stop at rank 6, because ranks 7 and 8
# take 0.3 to 1.4 s each and would be half the small_jobs pass.
POINCARE_SYSTEMS = ([("A", k) for k in range(1, 9)] + [("B", k) for k in range(1, 7)]
                    + [("C", k) for k in range(1, 7)] + [("D", k) for k in range(2, 7)]
                    + [("G2", 2), ("F4", 4)])


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its arguments (after `python -m borelcurve.cli`),
    the output check to apply, and the size class used to pick warm-up jobs."""

    key: str
    argv: tuple[str, ...]
    check: dict = field(hash=False)
    size: int = 0

    @property
    def kind(self) -> str:
        return self.check["kind"]


class _Writer:
    """Writes canonical JSON files and hands out distinct seeded models."""

    def __init__(self, seed: int, out_dir: Path):
        self.rng = random.Random(seed)
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.seen: set[str] = set()

    def write(self, name: str, data) -> str:
        path = self.out / name
        path.write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    def model(self, n: int) -> dict:
        while True:
            data = regular_model(self.rng, n)
            text = json.dumps(data, sort_keys=True)
            if text not in self.seen:
                self.seen.add(text)
                return data


def regular_model(rng: random.Random, n: int) -> dict:
    """A seeded regular model on P^n in the spec format of `action.model_from_json`."""
    r = n + 1
    order = list(range(r))
    rng.shuffle(order)
    shift = 2 * rng.randint(-4, 4)
    entries = [ENTRY_POOL[i % len(ENTRY_POOL)] for i in range(n)]
    rng.shuffle(entries)
    h = [0] * r
    e = [["0"] * r for _ in range(r)]
    for i in range(r):
        h[order[i]] = n - 2 * i + shift
    for i in range(n):
        sign = rng.choice(("", "-"))
        e[order[i]][order[i + 1]] = sign + entries[i]
    return {"n": n, "h_weights": h, "e_matrix": e}


def sorted_weights(model: dict) -> list[int]:
    """h-weights in the decreasing order that validation puts them in."""
    return sorted(model["h_weights"], reverse=True)


def tangent_weights(model: dict, label: int) -> list[int]:
    """Tangent weights h_j - h_i at the fixed point with the given 1-based label."""
    h = sorted_weights(model)
    j = label - 1
    return [h[j] - h[i] for i in range(len(h)) if i != j]


def split_tangent(model: dict) -> dict:
    r = model["n"] + 1
    return {"rank": model["n"],
            "fibres": {str(j): {"weights": tangent_weights(model, j)} for j in range(1, r + 1)}}


def matrix_tangent(model: dict) -> dict:
    """The tangent bundle in matrix-fibre form.

    rho_W is the diagonal of the sorted tangent weights and rho_V is 1 just
    above the diagonal where neighbouring weights differ by 2, so
    [rho_W, rho_V] = 2 rho_V and rho_V is nilpotent.
    """
    r = model["n"] + 1
    fibres = {}
    for j in range(1, r + 1):
        ws = sorted(tangent_weights(model, j), reverse=True)
        k = len(ws)
        rho_w = [[str(ws[a]) if a == b else "0" for b in range(k)] for a in range(k)]
        rho_v = [["1" if b == a + 1 and ws[a] - ws[b] == 2 else "0" for b in range(k)]
                 for a in range(k)]
        fibres[str(j)] = {"rho_W": rho_w, "rho_V": rho_v}
    return {"rank": model["n"], "fibres": fibres}


def star_graph(r: int) -> dict:
    """o joined to every other fixed point by an edge of multiplicity 1."""
    return {"vertices": list(range(1, r + 1)), "edges": [[1, j, 1] for j in range(2, r + 1)]}


def path_graph(k: int) -> dict:
    """The path 1-2-...-k whose i-th edge has multiplicity i."""
    return {"vertices": list(range(1, k + 1)), "edges": [[i, i + 1, i] for i in range(1, k)]}


def _csv(labels) -> str:
    return ",".join(str(x) for x in labels)


# ---------------------------------------------------------------------------
# workloads


def _ring_scaling(w: _Writer) -> list[Job]:
    jobs = []
    for n in RING_SIZES:
        for what in ("curve ring", "curve betti", "action curve"):
            model = w.model(n)
            name = f"{what.replace(' ', '_')}_p{n}"
            spec = w.write(f"{name}.json", model)
            kind = {"curve ring": "ring", "curve betti": "betti",
                    "action curve": "action_curve"}[what]
            jobs.append(Job(name, (*what.split(), "--spec", spec),
                            {"kind": kind, "model": model}, n))
    return jobs


def _subvariety_jobs(w: _Writer, n: int, table: bool = False) -> list[Job]:
    """principal, chern and curve restrict/ideal jobs on P^n models."""
    r, k = n + 1, n // 2 + 1
    extra = ("--table",) if table else ()
    jobs = []

    def spec(tag: str) -> tuple[str, dict]:
        model = w.model(n)
        return w.write(f"{tag}_p{n}.json", model), model

    path, model = spec("principal_star")
    graph = w.write(f"star_p{n}.json", star_graph(r))
    jobs.append(Job(f"principal_star_p{n}", ("principal", "--spec", path, "--gkm", graph, *extra),
                    {"kind": "principal", "model": model,
                     "status": "NotPrincipal" if r > 2 else "Principal",
                     "witness": 1 if r > 2 else None}, n))
    path, model = spec("principal_path")
    graph = w.write(f"path_p{n}.json", path_graph(k))
    jobs.append(Job(f"principal_path_p{n}", ("principal", "--spec", path, "--gkm", graph, *extra),
                    {"kind": "principal", "model": model, "status": "Principal",
                     "witness": None}, n))
    for form in ("split", "matrix"):
        path, model = spec(f"chern_{form}")
        bundle = split_tangent(model) if form == "split" else matrix_tangent(model)
        bpath = w.write(f"tangent_{form}_p{n}.json", bundle)
        jobs.append(Job(f"chern_{form}_p{n}", ("chern", "--spec", path, "--bundle", bpath,
                                              "--k", "1", "--test-membership", *extra),
                        {"kind": "chern", "model": model, "k": 1}, n))
    path, model = spec("curve_restrict")
    jobs.append(Job(f"curve_restrict_p{n}", ("curve", "restrict", "--spec", path,
                                             "--components", _csv(range(1, k + 1)), *extra),
                    {"kind": "restrict", "model": model, "size": k}, n))
    path, model = spec("curve_ideal")
    subset = sorted(w.rng.sample(range(1, r + 1), w.rng.randint(1, r - 1 if r > 1 else 1)))
    jobs.append(Job(f"curve_ideal_p{n}", ("curve", "ideal", "--spec", path,
                                          "--components", _csv(subset), *extra),
                    {"kind": "ideal", "model": model, "subset": subset}, n))
    return jobs


def _chern_gkm_job(w: _Writer, n: int, form: str) -> Job:
    r = n + 1
    model = w.model(n)
    path = w.write(f"chern_gkm_{form}_p{n}.json", model)
    graph = w.write(f"chern_star_{form}_p{n}.json", star_graph(r))
    if form == "split":
        bundle = ("tangent",)
    else:
        bundle = (w.write(f"tangent_gkm_matrix_p{n}.json", matrix_tangent(model)),)
    return Job(f"chern_gkm_{form}_p{n}", ("chern", "--spec", path, "--bundle", *bundle,
                                          "--gkm", graph),
               {"kind": "chern_gkm", "model": model,
                "status": "NotPrincipal" if r > 2 else "Principal",
                "witness": 1 if r > 2 else None}, n)


def _subvariety_verdicts(w: _Writer) -> list[Job]:
    jobs = []
    for n in SUBVARIETY_SIZES:
        jobs += _subvariety_jobs(w, n)
        jobs.append(_chern_gkm_job(w, n, "split"))
        if n == SUBVARIETY_SIZES[-1]:
            jobs.append(_chern_gkm_job(w, n, "matrix"))
    return jobs


def _malformed(w: _Writer) -> list[Job]:
    """One spec per input-boundary defect class; each must exit with code 2."""
    rng = w.rng
    jobs = []

    def bad(name: str, argv: tuple[str, ...], defect: str) -> None:
        jobs.append(Job(f"malformed_{name}", argv, {"kind": "malformed", "defect": defect}))

    model = w.model(2)
    model["n"] = 2 + rng.choice((0.5, 0.9, 0.25))
    bad("float_n", ("action", "validate", "--spec", w.write("bad_float_n.json", model)),
        "float n")
    model = w.model(2)
    frac = rng.choice((0.2, 0.4))  # away from zero, so truncation restores the weights
    model["h_weights"] = [x + frac if x > 0 else x - frac if x < 0 else x
                          for x in model["h_weights"]]
    bad("float_h", ("action", "validate", "--spec", w.write("bad_float_h.json", model)),
        "float h_weights")
    model = w.model(2)
    spec = w.write("bad_fibre_int.json", model)
    fibres = {str(j): rng.randint(1, 9) for j in range(1, 4)}
    bundle = w.write("bad_fibre_int_bundle.json", {"rank": 1, "fibres": fibres})
    bad("fibre_not_dict", ("chern", "--spec", spec, "--bundle", bundle), "non-dict fibre")
    model = w.model(2)
    spec = w.write("bad_fibre_list.json", model)
    fibres = [{"weights": [rng.randint(-4, 4)]} for _ in range(3)]
    bundle = w.write("bad_fibre_list_bundle.json", {"rank": 1, "fibres": fibres})
    bad("fibres_list", ("chern", "--spec", spec, "--bundle", bundle), "list fibres")
    model = w.model(2)
    spec = w.write("bad_fibre_key.json", model)
    fibres = {key: {"weights": [rng.randint(-4, 4)]} for key in ("1", "2", rng.choice("xyz"))}
    bundle = w.write("bad_fibre_key_bundle.json", {"rank": 1, "fibres": fibres})
    bad("fibre_key", ("chern", "--spec", spec, "--bundle", bundle), "non-integer fibre key")
    model = w.model(2)
    spec = w.write("bad_vertex.json", model)
    graph = star_graph(3)
    graph["vertices"][rng.randrange(1, 3)] += 0.5
    bad("float_vertex", ("principal", "--spec", spec, "--gkm", w.write("bad_vertex_graph.json",
                                                                      graph)),
        "float graph vertex")
    model = w.model(3)
    broken = rng.randrange(3)  # zero one superdiagonal entry: two Jordan blocks
    h = model["h_weights"]
    order = sorted(range(4), key=lambda i: -h[i])
    model["e_matrix"][order[broken]][order[broken + 1]] = "0"
    bad("non_regular_e", ("curve", "ring", "--spec", w.write("bad_non_regular.json", model)),
        "non-regular e")
    return jobs


def _small_jobs(w: _Writer) -> list[Job]:
    rng = w.rng
    jobs = []
    for family, rank in POINCARE_SYSTEMS:
        table = ("--table",) if rng.random() < 0.25 else ()
        jobs.append(Job(f"poincare_{family}{rank}", ("poincare", "--family", family, "--rank",
                                                     str(rank), *table),
                        {"kind": "poincare", "family": family, "rank": rank}))
    m = rng.randint(2, 8)
    degrees = list(range(1, m + 1))
    rng.shuffle(degrees)
    jobs.append(Job("poincare_degrees_line", ("poincare", "--degrees", _csv(degrees)),
                    {"kind": "poincare_degrees", "expected": [1] * (m + 1)}))
    rank = rng.randint(2, 5)
    heights = [h for h in range(1, rank + 1) for _ in range(rank + 1 - h)]
    rng.shuffle(heights)
    jobs.append(Job(f"poincare_degrees_A{rank}", ("poincare", "--degrees", _csv(heights),
                                                   "--table"),
                    {"kind": "poincare_degrees", "family": "A", "rank": rank}))
    for n in (1, 2, 3):
        forms = []  # each form once over P^1..P^3: forms n-1, n+2, ... run on P^n;
        # the inputs of the other forms are written but not run
        for what in ("validate", "fixed-points", "curve"):
            model = w.model(n)
            table = ("--table",) if rng.random() < 0.25 else ()
            spec = w.write(f"action_{what}_p{n}.json", model)
            kind = {"validate": "action_validate", "fixed-points": "fixed_points",
                    "curve": "action_curve"}[what]
            forms.append(Job(f"action_{what}_p{n}", ("action", what, "--spec", spec, *table),
                            {"kind": kind, "model": model}, n))
        for what in ("ring", "betti"):
            model = w.model(n)
            table = ("--table",) if rng.random() < 0.25 else ()
            spec = w.write(f"curve_{what}_p{n}.json", model)
            forms.append(Job(f"curve_{what}_p{n}", ("curve", what, "--spec", spec, *table),
                            {"kind": what, "model": model}, n))
        forms += _subvariety_jobs(w, n, table=rng.random() < 0.25)
        forms.append(_chern_gkm_job(w, n, "split"))
        jobs += forms[n - 1::3]
    return jobs + _malformed(w)


_BUILDERS = {"ring_scaling": _ring_scaling, "subvariety_verdicts": _subvariety_verdicts,
             "small_jobs": _small_jobs}


def build(workload: str, seed: int, out_dir) -> list[Job]:
    """Write the inputs of one workload for one seed and return its job list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _BUILDERS[workload](_Writer(seed, Path(out_dir)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    args = parser.parse_args()
    for job in build(args.workload, args.seed, args.out):
        print(job.key, " ".join(job.argv))


if __name__ == "__main__":
    main()
