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
`__main__`); and fresh-process times of a poincare and a principal job with
a filled bytecode cache (`PYTHONPYCACHEPREFIX` per side, one warm-up run,
then WARM_RUNS alternating runs), each bracketed by `bench/reference.py`
processes and recorded raw and adjusted to the reference as `bench/run.py`
adjusts its timed jobs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
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
WARM_JOBS = ("poincare", "principal")
WARM_RUNS = 40

# Runs one command line as `python -m borelcurve.cli` does, then prints the
# package files it loaded.  cli.py runs as __main__, so it is not among them.
PROBE = """
import contextlib, io, json, runpy, sys
sys.argv = ["borelcurve", *ARGV]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("borelcurve.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(json.dumps(sorted(m.__file__ for m in list(sys.modules.values())
                        if getattr(m, "__file__", None) and m.__name__.startswith("borelcurve"))))
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


def warm_cache_times(dirs: dict, inputs: dict, scratch: Path) -> dict:
    """Fresh-process seconds of each WARM_JOBS line with a filled bytecode cache,
    raw and adjusted: each run divided by the mean of the reference processes
    before and after it, times REF_SECONDS."""
    envs = {}
    for side, path in dirs.items():
        env = dict(os.environ, PYTHONPATH=str(path / "src"),
                   PYTHONPYCACHEPREFIX=str(scratch / f"pycache-{side}"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        envs[side] = env
    lines = {job: [a.format(**inputs) for a in COMPILED[job]] for job in WARM_JOBS}

    def timed(args, env):
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        return time.perf_counter() - start

    def reference():
        return timed([str(REFERENCE)], os.environ)

    for side in SIDES:  # the warm-up run fills the cache
        for argv in lines.values():
            timed(["-m", "borelcurve.cli", *argv], envs[side])
    raw = {job: {side: [] for side in SIDES} for job in WARM_JOBS}
    adjusted = {job: {side: [] for side in SIDES} for job in WARM_JOBS}
    before = reference()
    for index in range(WARM_RUNS):
        for side in pair_order(index):
            for job, argv in lines.items():
                seconds = timed(["-m", "borelcurve.cli", *argv], envs[side])
                after = reference()
                raw[job][side].append(seconds)
                adjusted[job][side].append(seconds / ((before + after) / 2) * REF_SECONDS)
                before = after
    return {job: {**{side: summary(adjusted[job][side]) for side in SIDES},
                  "change_won": sum(c < p for p, c in zip(*adjusted[job].values())),
                  "raw": {side: summary(raw[job][side]) for side in SIDES}}
            for job in WARM_JOBS}


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
        record["warm_cache_s"] = {"runs": WARM_RUNS, "reference_s": REF_SECONDS, "jobs": {
            job: " ".join(COMPILED[job]) for job in WARM_JOBS},
            **warm_cache_times(dirs, inputs, scratch)}
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
