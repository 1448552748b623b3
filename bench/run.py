"""The borelcurve benchmark: real CLI invocations, checked, timed and traced.

    python3 bench/run.py --workload ring_scaling --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1

Run it from anywhere inside a checkout; it builds nothing (the package is pure
Python) and reads the package from the checkout's `src/`.  Inputs, outputs
and spans go to `.bench_out/` in the checkout.

`--seconds` is how long the passes over the workload's job list run: the
first pass always runs whole, later passes stop at the deadline.

With `--trace 0` every job is a fresh `python -m borelcurve.cli ...` process,
run strictly one at a time (a closed loop with one client).  A warm-up runs
the cheapest job of each kind, untimed, to fill the `.pyc` files and the file
cache.  Then the passes are timed, with a fixed reference process
(`reference.py`) before and after every timed process; each time is divided
by the mean of its two references and reported at the reference's nominal
time `REF_SECONDS`, so that the host's drifting speed cancels (`Bracketed`).
A job's latency is the median of its adjusted times; `setup_s` is the median
adjusted time of fresh interpreters that only import `borelcurve.cli`, spread
over the first pass.  The unadjusted times are printed and kept in
`result.json`.
Every output is checked after its pass, outside the timed interval; a job
fails on a wrong exit code, a failed check, or stdout bytes that differ from
an earlier run of the same input.

With `--trace 1` the same job list runs in this process through
`borelcurve.cli.main`, alternating an untraced and a traced pass for
`--seconds` (at least one of each), and the per-layer metrics of `tracing.py`
are reported.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  `correct` is false when any job on a well-formed input
fails; malformed specs that are not rejected with exit code 2 count as failed
jobs but leave `correct` true.  `attempted` and `failed` count distinct jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Nominal time of one reference process, within the 0.07 to 0.14 s it takes
# on the 2-core host the benchmark was tuned on; adjusted times are reported
# at this speed.
REF_SECONDS = 0.1
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
JOB_TIMEOUT_S = 150
P90_MIN_SAMPLES = 100  # at least ten samples above the 90th percentile

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    seconds: float
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0


class Tally:
    """Checks outcomes, remembers stdout per input, and counts failed jobs.

    Counts are of distinct jobs, each run once or more: a job fails when any
    of its runs fails.  The number of passes depends on the host's speed, so
    counting runs would make `failed` differ between runs of the same code.
    """

    def __init__(self):
        self.jobs: set[str] = set()
        self.failed_jobs: dict[str, bool] = {}  # key -> is the input well formed
        self.reasons: list[str] = []
        self.seen: dict[tuple, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return len(self.failed_jobs)

    @property
    def wrong(self) -> int:  # failed jobs on well-formed inputs
        return sum(self.failed_jobs.values())

    def record(self, job, outcome: Outcome) -> bool:
        from checks import check

        self.jobs.add(job.key)
        reason = check(job, outcome.code, outcome.stdout, outcome.stderr)
        earlier = self.seen.setdefault(job.argv, outcome.stdout)
        if reason is None and earlier != outcome.stdout:
            reason = "stdout differs from an earlier run of the same input"
        if reason is None:
            return True
        self.failed_jobs[job.key] = job.kind != "malformed"
        self.reasons.append(f"{job.key}: {reason}")
        return False


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], env: dict, scratch: Path) -> Outcome:
    """Run one interpreter to completion; time it from start to exit, with rusage."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(seconds, proc.returncode, out.read().decode("utf-8", "replace"),
                       err.read().decode("utf-8", "replace"), usage.ru_maxrss)


def warmup_jobs(jobs: list) -> list:
    """The cheapest job of each kind, in job-list order."""
    cheapest: dict[str, object] = {}
    for job in jobs:
        if job.kind not in cheapest or job.size < cheapest[job.kind].size:
            cheapest[job.kind] = job
    return [job for job in jobs if cheapest[job.kind] is job]


class Bracketed:
    """Runs processes with a reference process before and after each.

    The speed of a shared host drifts by up to 1.7x within minutes, for all
    CPU work alike.  A timed process divided by the mean of the two reference
    processes around it (`reference.py`, which reads nothing of the package)
    is its cost in units of the reference; times `REF_SECONDS` it is its time
    on a host that runs the reference in `REF_SECONDS`.
    """

    def __init__(self, env: dict, scratch: Path):
        import reference

        self.env, self.scratch = env, scratch
        self.expected = reference.expected()
        self.refs: list[float] = []
        self.before = self._reference()

    def _reference(self) -> float:
        outcome = spawn([str(REFERENCE)], self.env, self.scratch)
        if outcome.code != 0 or outcome.stdout.strip() != self.expected:
            raise SystemExit(f"the reference process failed: {outcome.stderr.strip()}")
        self.refs.append(outcome.seconds)
        return outcome.seconds

    def run(self, args: list[str]) -> tuple[Outcome, float]:
        """The outcome of one process, and its time adjusted to the reference."""
        outcome = spawn(args, self.env, self.scratch)
        after = self._reference()
        adjusted = outcome.seconds / ((self.before + after) / 2) * REF_SECONDS
        self.before = after
        return outcome, adjusted


def run_e2e(jobs: list, seconds: float, scratch: Path, tally: Tally) -> tuple[dict, dict, dict]:
    """Warm up, then run passes of fresh CLI processes over the job list for
    `seconds`: the first pass whole, the last cut at the deadline."""
    env = _env()
    cli = ["-m", "borelcurve.cli"]
    for job in warmup_jobs(jobs):
        tally.record(job, spawn([*cli, *job.argv], env, scratch))
    spawn([str(REFERENCE)], env, scratch)
    # import-only interpreters, spread over the first pass
    setup_before = [0] * len(jobs)
    for i in range(SETUP_SAMPLES):
        setup_before[i * len(jobs) // SETUP_SAMPLES] += 1
    setup: list[tuple[Outcome, float]] = []
    latencies: dict[str, list[float]] = {job.key: [] for job in jobs}
    adjusted: dict[str, list[float]] = {job.key: [] for job in jobs}
    peak_kb = 0
    bracketed = Bracketed(env, scratch)
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        outcomes = []
        for index, job in enumerate(jobs):
            if passes and time.perf_counter() >= deadline:
                break
            if passes == 0:
                setup.extend(bracketed.run(["-c", "import borelcurve.cli"])
                             for _ in range(setup_before[index]))
            outcomes.append(bracketed.run([*cli, *job.argv]))
        for job, (outcome, seconds_adjusted) in zip(jobs, outcomes):
            tally.record(job, outcome)
            latencies[job.key].append(outcome.seconds)
            adjusted[job.key].append(seconds_adjusted)
            peak_kb = max(peak_kb, outcome.maxrss_kb)
        passes += 1
    if any(outcome.code != 0 for outcome, _ in setup):
        raise SystemExit(f"importing borelcurve.cli failed: {setup[0][0].stderr.strip()}")
    # Each job's latency is the median of its adjusted times over the passes.
    typical = [statistics.median(xs) for xs in adjusted.values()]
    samples = [x for xs in adjusted.values() for x in xs]
    values = {"setup_s": statistics.median(s for _, s in setup),
              "wall_s": sum(typical),
              "job_p50_s": statistics.median(typical),
              "peak_rss_mb": peak_kb / 1024,
              "raw_setup_s": statistics.median(o.seconds for o, _ in setup),
              "raw_wall_s": sum(statistics.median(xs) for xs in latencies.values()),
              "reference_s": statistics.median(bracketed.refs)}
    if len(samples) >= P90_MIN_SAMPLES:
        values["job_p90_s"] = statistics.quantiles(samples, n=10)[-1]
    counts = {"setup_s": len(setup), "wall_s": passes, "job_p50_s": len(samples),
              "job_p90_s": len(samples), "peak_rss_mb": len(samples),
              "raw_setup_s": len(setup), "raw_wall_s": passes,
              "reference_s": len(bracketed.refs)}
    return values, counts, {"latencies": latencies, "adjusted": adjusted}


def run_traced(jobs: list, seconds: float, out_dir: Path, tally: Tally) -> tuple[dict, int]:
    """Alternate untraced and traced in-process passes for `seconds`, at least
    one of each; return the layer metrics and the number of traced passes."""
    import tracing

    for job in warmup_jobs(jobs):  # first calls pay one-time costs, such as lazy imports
        tally.record(job, Outcome(0.0, *tracing.run_in_process(job.argv)))
    tracer = tracing.Tracer()
    walls = {"untraced": 0.0, "traced": 0.0}
    deadline = time.perf_counter() + seconds
    passes, pair_s = 0, 0.0
    while passes == 0 or time.perf_counter() + pair_s < deadline:
        pair_start = time.perf_counter()
        for mode in walls:
            if mode == "traced":
                tracer.install()
            try:
                start = time.perf_counter()
                outcomes = []
                for index, job in enumerate(jobs):
                    tracer.job = index
                    outcomes.append(Outcome(0.0, *tracing.run_in_process(job.argv)))
                walls[mode] += time.perf_counter() - start
            finally:
                tracer.uninstall()
            for job, outcome in zip(jobs, outcomes):
                tally.record(job, outcome)
        passes += 1
        pair_s = time.perf_counter() - pair_start
    tracer.write(out_dir / "spans.tsv")
    return tracing.layer_metrics(tracer, passes, walls["traced"], walls["untraced"]), passes


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "borelcurve").glob("*.py")))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import jobs as joblib

    out_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    jobs = joblib.build(workload, seed, out_dir.relative_to(ROOT))
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "jobs_per_pass": len(jobs), "nproc": os.cpu_count(),
            "python": platform.python_version(), "src_lines": _src_lines()}
    print("# " + "  ".join(f"{k} {v}" for k, v in meta.items()))
    tally = Tally()
    if trace:
        from tracing import LAYER_METRICS

        metrics, meta["passes"] = run_traced(jobs, seconds, out_dir, tally)
        print(f"# traced passes {meta['passes']}")
        for name, m in metrics.items():
            workloads, targets = LAYER_METRICS[name][2]
            print(f"{name:38} {m['value']:<12.6g} {m['unit']:6} moves {targets} on {workloads}")
    else:
        values, counts, samples = run_e2e(jobs, seconds, out_dir, tally)
        meta.update(samples)
        meta["passes"], meta["unadjusted"] = counts["wall_s"], {
            name: values[name] for name in ("raw_setup_s", "raw_wall_s", "reference_s")}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        for name in ("setup_s", "wall_s", "job_p50_s", "job_p90_s", "peak_rss_mb",
                     "raw_setup_s", "raw_wall_s", "reference_s"):
            shown = f"{values[name]:.6g} {E2E_UNITS.get(name, 's')}" if name in values else "n/a"
            print(f"{name:12} {shown}  [{counts[name]} samples]")
    print(f"{'fail_ratio':12} {tally.failed / tally.attempted:.4g}  "
          f"[{tally.failed} failed of {tally.attempted} jobs; "
          f"{tally.wrong} on well-formed inputs]")
    for reason in tally.reasons[:20]:
        print(f"  FAIL {reason}", file=sys.stderr)
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (out_dir / "result.json").write_text(
        json.dumps({**meta, "reasons": tally.reasons, **result}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    import jobs as joblib

    parser = argparse.ArgumentParser(description="borelcurve CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*joblib.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "borelcurve" / "cli.py").is_file():
        print(f"no borelcurve package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # job arguments name input files relative to the checkout
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in joblib.WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{name}": m
                                    for name, m in result["metrics"].items()})
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
