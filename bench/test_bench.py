"""Self-tests for the benchmark: python3 -m pytest bench -q"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from borelcurve import action, curve  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = jobs.build(workload, 7, tmp_path / "a")
    again = jobs.build(workload, 7, tmp_path / "b")
    other = jobs.build(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [j.key for j in first] == [j.key for j in again]
    assert len({j.key for j in first}) == len(first), "job keys must be unique"
    assert [j.check for j in first] == [j.check for j in again]
    models = [json.dumps(j.check["model"]) for j in first if "model" in j.check]
    assert len(models) == len(set(models)), "two jobs share a model"
    for job in first:
        if "model" in job.check:  # every model is accepted by validate
            action.model_from_json(job.check["model"])


def _betti_job(tmp_path):
    job = next(j for j in jobs.build("ring_scaling", 3, tmp_path) if j.key == "curve_betti_p4")
    code, out, err = tracing.run_in_process(job.argv)
    assert code == 0 and checks.check(job, code, out, err) is None
    return job, out


def test_tampered_betti_is_counted_as_failure(tmp_path):
    job, out = _betti_job(tmp_path)
    report = json.loads(out)
    report["result"]["betti"][1] = 2
    tampered = json.dumps(report, indent=2, sort_keys=True)
    assert "betti" in checks.check(job, 0, tampered, "")
    tally = run.Tally()
    assert not tally.record(job, run.Outcome(0.1, 0, tampered, ""))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    assert not tally.record(job, run.Outcome(0.1, 0, out, ""))  # differs from the earlier run
    assert (tally.attempted, tally.failed, len(tally.reasons)) == (1, 1, 2)


def test_table_output_is_checked_like_json(tmp_path):
    job, _ = _betti_job(tmp_path)
    table_job = jobs.Job(job.key, (*job.argv, "--table"), job.check, job.size)
    code, out, err = tracing.run_in_process(table_job.argv)
    assert checks.check(table_job, code, out, err) is None
    assert checks.check(table_job, code, out.replace("betti = 1 1", "betti = 1 2"), err)


def test_malformed_specs_must_exit_2(tmp_path):
    small = jobs.build("small_jobs", 4, tmp_path)
    bad = [j for j in small if j.kind == "malformed"]
    assert 0.05 <= len(bad) / len(small) <= 0.15
    for job in bad:
        assert checks.check(job, 2, "", json.dumps({"error": "bad input"}) + "\n") is None
        assert checks.check(job, 0, "{}", "") is not None
        assert checks.check(job, 1, "", "Traceback (most recent call last):\n  boom\n")


def test_tracer_patches_every_import_site_and_restores():
    original = action.component_parametrization
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert curve.component_parametrization is action.component_parametrization
        assert curve.component_parametrization is not original
    finally:
        tracer.uninstall()
    assert curve.component_parametrization is original is action.component_parametrization


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == {name: (unit, better)
                      for name, (unit, better, _) in tracing.LAYER_METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def test_reference_reads_nothing_of_the_package():
    import subprocess

    code = "import runpy, sys; runpy.run_path(sys.argv[1]); print(any(" \
           "m.startswith('borelcurve') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code, str(run.REFERENCE)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


def test_times_are_adjusted_by_the_references_around_them(tmp_path, monkeypatch):
    import reference

    times = iter([0.2, 1.0, 0.1, 3.0, 0.3])  # ref, job, ref, job, ref

    def fake_spawn(args, env, scratch):
        stdout = reference.expected() + "\n" if args == [str(run.REFERENCE)] else ""
        return run.Outcome(next(times), 0, stdout, "")

    monkeypatch.setattr(run, "spawn", fake_spawn)
    bracketed = run.Bracketed({}, tmp_path)
    assert bracketed.run(["job"])[1] == pytest.approx(1.0 / 0.15 * run.REF_SECONDS)
    assert bracketed.run(["job"])[1] == pytest.approx(3.0 / 0.2 * run.REF_SECONDS)
    assert bracketed.refs == [0.2, 0.1, 0.3]
