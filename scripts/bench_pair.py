"""Benchmark a parent revision against the working tree; write one BENCH JSON file.

    python3 scripts/bench_pair.py --parent HEAD~1 --seed 5 --out BENCH_11.json \\
        --pairs small_jobs=10 ring_scaling=5 subvariety_verdicts=5

The parent is extracted with `git archive` into a temporary directory and the
change is a copy of the working tree's files (tracked, and untracked but not
ignored), so neither side carries a `__pycache__` or `.bench_out` left by
earlier runs; the script refuses a parent whose tracked files equal the
working tree's.  Each side runs its own unchanged `bench/run.py --trace 0`
for BENCHMARK.json's `run_seconds`, with the caller's environment: whether
jobs compile the package or read `.pyc` files therefore depends on the
caller's `PYTHONDONTWRITEBYTECODE`, which is recorded.  A pair runs both
sides once, and pairs alternate which side goes first.

Recorded, per workload and per end-to-end metric of BENCHMARK.json: each
pair's values, each side's median and quartiles, and the pairs the change
won (ties count for neither side).  Per side: the `src/` line count; the
source lines of the package a fresh `python -m borelcurve.cli` run of each
subcommand compiles (its module files plus cli.py, which runs as
`__main__`); and fresh-process times with a filled bytecode cache
(`PYTHONPYCACHEPREFIX` per side, one warm-up run, then alternating runs),
each bracketed by `bench/reference.py` processes and recorded raw and
adjusted to the reference as `bench/run.py` adjusts its timed jobs.  Those
times cover a poincare, a principal and a curve ring job on P^2 (WARM_RUNS
runs each) and the scaling probe (PROBE_RUNS runs per line, see
`probe_lines`): jobs from P^32 to P^256, where computing, not start-up,
decides the time, and the host floor, `python -S -c pass` and
`python -c pass`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
sys.path.insert(0, str(ROOT / "bench"))
import jobs  # noqa: E402  the benchmark's seeded input builders
from run import REF_SECONDS, REFERENCE  # noqa: E402  the benchmark's reference process

PLANE_SPEC = {"n": 2, "h_weights": [2, 0, -2], "e_matrix": "principal"}
STAR_GRAPH = {"vertices": [1, 2, 3], "edges": [[1, 2, 1], [1, 3, 1]]}
# command lines whose compiled source is counted; {spec} and {graph} are the files above
COMPILED = {
    "poincare": ["poincare", "--family", "A", "--rank", "2"],
    "action": ["action", "curve", "--spec", "{spec}"],
    "curve": ["curve", "ring", "--spec", "{spec}"],
    "principal": ["principal", "--spec", "{spec}", "--gkm", "{graph}"],
    "chern": ["chern", "--spec", "{spec}", "--bundle", "tangent", "--test-membership"],
    "chern --gkm": ["chern", "--spec", "{spec}", "--bundle", "tangent", "--gkm", "{graph}"],
}
WARM_JOBS = ("poincare", "principal", "curve")
WARM_RUNS = 40
# the scaling probe's sizes: P^n of the table rows, (n, m) of the plateau
# jobs, P^n of the dense principal job and of the matrix-fibre tangent; no
# plateau job at P^256, which takes minutes a run until ROADMAP U lands
PROBE_SIZES = {"table": (64, 128, 256),
               "plateau": ((32, 12), (32, 50), (32, 200), (64, 50), (128, 50)),
               "dense": (200,), "matrix": (32, 48)}
PROBE_RUNS = 3
HOST_FLOOR = {"python -S -c pass": ["-S", "-c", "pass"], "python -c pass": ["-c", "pass"]}

# Runs one command line as `python -m borelcurve.cli` does, then prints the
# package files it loaded.  cli.py runs as __main__, so it is not among them.
# The process ends inside the entry, so the list is printed at exit; the exit
# code is the run's, which `check=True` checks.
PROBE = """
import atexit, contextlib, io, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(
    m.__file__ for m in list(sys.modules.values())
    if getattr(m, "__file__", None) and m.__name__.startswith("borelcurve"))),
    file=sys.__stdout__, flush=True))
sys.argv = ["borelcurve", *ARGV]
with contextlib.redirect_stdout(io.StringIO()):
    runpy.run_module("borelcurve.cli", run_name="__main__")
"""


def extract_parent(rev: str, dest: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def copy_working_tree(dest: Path) -> None:
    names = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
                           check=True, capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def src_lines(side: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((side / "src").rglob("*.py")))


def compiled_lines(side: Path, inputs: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    cli = side / "src" / "borelcurve" / "cli.py"
    out = {}
    for name, argv in COMPILED.items():
        argv = [a.format(**inputs) for a in argv]
        proc = subprocess.run([sys.executable, "-c", PROBE.replace("ARGV", repr(argv))],
                              env=env, capture_output=True, text=True, check=True)
        files = [Path(f) for f in json.loads(proc.stdout.splitlines()[-1])] + [cli]
        out[name] = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    return out


def probe_lines(dest: Path, sizes: dict = PROBE_SIZES) -> dict[str, list[str]]:
    """Write the scaling probe's inputs under dest; return each line's command line.

    The table rows run on the `"principal"` shorthand spec of P^n, against the
    multiplicity-1 star graph from label 1.  A plateau job is
    tests/test_golden.py's: `chern --gkm` with three rank-3 split bundles
    constant on the label pairs {1,2}, {3,4}, ... (weights from
    random.Random(n)), against the path whose odd edges have multiplicity m.
    The dense job is `principal` against the complete graph on the n + 1
    labels, multiplicities 1..1000 from random.Random(5).  The matrix-fibre
    tangent is `jobs.matrix_tangent` of `jobs.regular_model` at seed 3.
    """
    def write(name: str, data) -> str:
        path = dest / name
        path.write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    def principal_spec(n: int) -> str:
        return write(f"p{n}.json", {"n": n, "h_weights": [n - 2 * i for i in range(n + 1)],
                                    "e_matrix": "principal"})

    lines = {}
    for n in sizes.get("table", ()):
        spec, star = principal_spec(n), write(f"star{n}.json", jobs.star_graph(n + 1))
        tangent = ["chern", "--spec", spec, "--bundle", "tangent", "--k", "1"]
        lines.update({f"curve betti P^{n}": ["curve", "betti", "--spec", spec],
                      f"curve ring P^{n}": ["curve", "ring", "--spec", spec],
                      f"principal P^{n}": ["principal", "--spec", spec, "--gkm", star],
                      f"chern tangent --gkm P^{n}": [*tangent, "--gkm", star],
                      f"chern tangent --test-membership P^{n}": [*tangent, "--test-membership"]})
    for n, m in sizes.get("plateau", ()):
        rng = random.Random(n)
        path = {"vertices": list(range(1, n + 2)),
                "edges": [[i, i + 1, m if i % 2 else 1] for i in range(1, n + 1)]}
        argv = ["chern", "--spec", principal_spec(n),
                "--gkm", write(f"plateau_p{n}_m{m}.json", path)]
        for b in range(3):
            weights = {p: [rng.randint(-20, 20) for _ in range(3)] for p in range(n // 2 + 1)}
            bundle = {"rank": 3, "fibres": {str(j): {"weights": weights[(j - 1) // 2]}
                                            for j in range(1, n + 2)}}
            argv += ["--bundle", write(f"plateau_p{n}_bundle{b}.json", bundle)]
        lines[f"plateau P^{n} m={m}"] = argv
    for n in sizes.get("dense", ()):
        rng = random.Random(5)
        dense = {"vertices": list(range(1, n + 2)),
                 "edges": [[i, j, rng.randint(1, 1000)] for i in range(1, n + 2)
                           for j in range(i + 1, n + 2)]}
        lines[f"principal dense P^{n}"] = ["principal", "--spec", principal_spec(n),
                                           "--gkm", write(f"dense{n}.json", dense)]
    for n in sizes.get("matrix", ()):
        model = jobs.regular_model(random.Random(3), n)
        lines[f"chern matrix tangent P^{n}"] = [
            "chern", "--spec", write(f"model{n}.json", model),
            "--bundle", write(f"matrix_tangent{n}.json", jobs.matrix_tangent(model)), "--k", "1"]
    return lines


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def run_bench(side: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {side}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def pair_order(index: int) -> tuple[str, str]:
    return SIDES if index % 2 == 0 else SIDES[::-1]


def workload_record(pairs: list[dict], e2e: list[dict]) -> dict:
    metrics = {}
    for spec in e2e:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            **{s: summary(values[s]) for s in SIDES},
            "change_won": sum(sign * (c - p) < 0 for p, c in zip(*values.values())),
            "pairs": len(pairs)}
    return {"first": [p["first"] for p in pairs],
            "failed": {s: [p[s]["failed"] for p in pairs] for s in SIDES},
            "attempted": {s: [p[s]["attempted"] for p in pairs] for s in SIDES},
            "correct": {s: [p[s]["correct"] for p in pairs] for s in SIDES},
            "metrics": metrics}


def fresh_process_times(dirs: dict, scratch: Path, lines: dict, runs: int) -> dict:
    """Fresh-process seconds of each line (interpreter arguments) on each side, with
    a filled bytecode cache, raw and adjusted: each run divided by the mean of the
    reference processes before and after it, times REF_SECONDS."""
    envs = {}
    for side, path in dirs.items():
        env = dict(os.environ, PYTHONPATH=str(path / "src"),
                   PYTHONPYCACHEPREFIX=str(scratch / f"pycache-{side}"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        envs[side] = env

    def timed(args, env):
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        return time.perf_counter() - start

    def reference():
        return timed([str(REFERENCE)], os.environ)

    for side in SIDES:  # the warm-up run fills the cache
        for args in lines.values():
            timed(args, envs[side])
    raw = {name: {side: [] for side in SIDES} for name in lines}
    adjusted = {name: {side: [] for side in SIDES} for name in lines}
    before = reference()
    for index in range(runs):
        for side in pair_order(index):
            for name, args in lines.items():
                seconds = timed(args, envs[side])
                after = reference()
                raw[name][side].append(seconds)
                adjusted[name][side].append(seconds / ((before + after) / 2) * REF_SECONDS)
                before = after
    return {name: {**{side: summary(adjusted[name][side]) for side in SIDES},
                   "change_won": sum(c < p for p, c in zip(*adjusted[name].values())),
                   "raw": {side: summary(raw[name][side]) for side in SIDES}}
            for name in lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", nargs="+", default=[], metavar="WORKLOAD=N")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if subprocess.run(["git", "diff", "--quiet", args.parent, "--"], cwd=ROOT).returncode == 0:
        parser.error(f"the working tree's tracked files equal {args.parent}: nothing to compare")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    pairs = {w: int(n) for w, _, n in (p.partition("=") for p in args.pairs)}
    record = {"host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                       "machine": platform.machine()},
              "environment": {k: os.environ.get(k) for k in (
                  "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED", "PYTHONPYCACHEPREFIX")},
              "seed": args.seed, "seconds": seconds}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        dirs = {side: scratch / side for side in SIDES}
        for path in dirs.values():
            path.mkdir()
        record["parent"] = extract_parent(args.parent, dirs["parent"])
        copy_working_tree(dirs["change"])
        inputs = {}
        for name, blob in (("spec", PLANE_SPEC), ("graph", STAR_GRAPH)):
            inputs[name] = str(scratch / f"{name}.json")
            Path(inputs[name]).write_text(json.dumps(blob), encoding="utf-8")
        record["src_lines"] = {side: src_lines(path) for side, path in dirs.items()}
        record["compiled_lines"] = {side: compiled_lines(path, inputs)
                                    for side, path in dirs.items()}
        warm = {job: ["-m", "borelcurve.cli", *(a.format(**inputs) for a in COMPILED[job])]
                for job in WARM_JOBS}
        record["warm_cache_s"] = {"runs": WARM_RUNS, "reference_s": REF_SECONDS, "jobs": {
            job: " ".join(COMPILED[job]) for job in WARM_JOBS},
            **fresh_process_times(dirs, scratch, warm, WARM_RUNS)}
        probe_dir = scratch / "probe"
        probe_dir.mkdir()
        probe = {name: ["-m", "borelcurve.cli", *argv]
                 for name, argv in probe_lines(probe_dir).items()}
        record["probe_s"] = {"runs": PROBE_RUNS, "reference_s": REF_SECONDS, "lines": {
            name: " ".join(args).replace(f"{probe_dir}{os.sep}", "")
            for name, args in {**probe, **HOST_FLOOR}.items()},
            **fresh_process_times(dirs, scratch, {**probe, **HOST_FLOOR}, PROBE_RUNS)}
        record["workloads"] = {}
        for workload, count in pairs.items():
            done = []
            for index in range(count):
                first = pair_order(index)
                pair = {"first": first[0]}
                for side in first:
                    pair[side] = run_bench(dirs[side], workload, args.seed, seconds)
                    print(f"{workload} pair {index + 1}/{count} {side}: " + " ".join(
                        f"{k}={m['value']:.4g}" for k, m in pair[side]["metrics"].items()),
                        file=sys.stderr, flush=True)
                done.append(pair)
                record["workloads"][workload] = workload_record(done, benchmark["end_to_end"])
                args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
