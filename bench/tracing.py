"""In-process traced run: per-layer self times and counts.

The layers are the modules of `src/borelcurve/`.  `Tracer.install` wraps the
public functions listed in `SPANS` from outside the package, at every place
the package binds them (a module attribute, a name imported into another
module, a method, property or classmethod), so calls made through any import
path are seen.  Each call records a span (name, start, end, parent span, job
index) in memory; `Tracer.write` writes them out when the run ends.

A span's self time is its duration minus the durations of its direct child
spans, so the self times of all spans of a job add up to the job's time in
`cli.main`.  Each per-layer metric sums the self times (or call counts) of
its spans over a pass of the job list.  `LAYER_METRICS` also records the
end-to-end metric and workload each layer metric is expected to move.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
import traceback

import borelcurve
from borelcurve import action, chern, cli, curve, exactalg, gkm, rootsystems

MODULES = (borelcurve, action, chern, cli, curve, exactalg, gkm, rootsystems)

# (module, attribute path, metric its self time adds to)
SPANS = (
    (action, "model_from_json", "action.validate_s"),
    (action, "validate", "action.validate_s"),
    (action, "component_parametrization", "action.parametrize_s"),
    (action, "exp_e", "action.exp_e_s"),
    (exactalg, "GradedSubalgebra.hilbert_function", "exactalg.slice_s"),
    (exactalg, "GradedSubalgebra.member", "exactalg.slice_s"),
    (exactalg, "GradedSubalgebra.graded_basis", "exactalg.slice_s"),
    (exactalg, "GradedSubalgebra.coordinates", "exactalg.slice_s"),
    (exactalg, "GradedSubalgebra.quotient_by_v_dims", "exactalg.slice_s"),
    (exactalg, "RowSpace.add", "exactalg.rowspace_s"),
    (exactalg, "RowSpace.reduce", "exactalg.rowspace_s"),
    (exactalg, "GradedSubalgebra.kernel_basis", "exactalg.kernel_s"),
    (exactalg, "nullspace", "exactalg.kernel_s"),
    (exactalg, "rref", "exactalg.kernel_s"),
    (curve, "build_curve_ring", "curve.build_ring_s"),
    (curve, "betti_numbers", "curve.betti_s"),
    (curve, "restrict", "curve.restrict_s"),
    (curve, "ideal_hilbert", "curve.ideal_s"),
    (gkm, "principal_verdict", "gkm.verdict_s"),
    (gkm, "compare_hilberts", "gkm.verdict_s"),
    (gkm, "GKMRing.basis", "gkm.ring_s"),
    (gkm, "GKMRing.hilbert", "gkm.ring_s"),
    (gkm, "GKMRing.stabilization_degree", "gkm.ring_s"),
    (gkm, "gkm_ordinary_betti", "gkm.betti_s"),
    (gkm, "GKMGraph.from_json", "gkm.parse_s"),
    (chern, "chern_tuple", "chern.tuple_s"),
    (chern, "exterior_trace", "chern.exterior_trace_s"),
    (chern, "chern_membership", "chern.membership_s"),
    (chern, "chern_subalgebra_verdict", "chern.verdict_s"),
    (chern, "bundle_from_json", "chern.parse_s"),
    (chern, "make_bundle", "chern.parse_s"),
    (rootsystems, "positive_roots", "rootsystems.poincare_s"),
    (rootsystems, "km_poincare", "rootsystems.poincare_s"),
    (rootsystems, "poincare_from_degrees", "rootsystems.poincare_s"),
    (cli, "main", "cli.self_s"),
)

_RING = ("ring_scaling", "wall_s")
_SLICES = ("ring_scaling, subvariety_verdicts", "wall_s")
_SUB = ("subvariety_verdicts", "job_p50_s, wall_s")
_SMALL = ("small_jobs", "job_p50_s")

# name -> (unit, better, (workload, end-to-end metrics it should move))
LAYER_METRICS = {
    "action.validate_s": ("s", "lower", _SMALL),
    "action.parametrize_s": ("s", "lower", _RING),
    "action.parametrize_calls": ("count", "lower", _RING),
    "action.exp_e_s": ("s", "lower", _RING),
    "action.exp_e_calls": ("count", "lower", _RING),
    "exactalg.slice_s": ("s", "lower", _SLICES),
    "exactalg.rowspace_s": ("s", "lower", _SLICES),
    "exactalg.rowspace_add_calls": ("count", "lower", _SLICES),
    "exactalg.rowspace_add_useful_ratio": ("ratio", "higher", _SLICES),
    "exactalg.degrees_built": ("count", "lower", _SLICES),
    "exactalg.degrees_past_full_rank": ("count", "lower", _SLICES),
    "exactalg.kernel_s": ("s", "lower", ("subvariety_verdicts", "job_p50_s")),
    "curve.build_ring_s": ("s", "lower", ("ring_scaling, subvariety_verdicts", "wall_s")),
    "curve.betti_s": ("s", "lower", ("ring_scaling", "wall_s")),
    "curve.restrict_s": ("s", "lower", ("subvariety_verdicts", "wall_s")),
    "curve.ideal_s": ("s", "lower", ("subvariety_verdicts", "wall_s")),
    "gkm.verdict_s": ("s", "lower", ("subvariety_verdicts", "job_p50_s")),
    "gkm.ring_s": ("s", "lower", ("subvariety_verdicts", "job_p50_s")),
    "gkm.betti_s": ("s", "lower", ("subvariety_verdicts", "job_p50_s")),
    "gkm.parse_s": ("s", "lower", _SMALL),
    "chern.tuple_s": ("s", "lower", _SUB),
    "chern.exterior_trace_s": ("s", "lower", _SUB),
    "chern.membership_s": ("s", "lower", _SUB),
    "chern.verdict_s": ("s", "lower", _SUB),
    "chern.parse_s": ("s", "lower", _SMALL),
    "rootsystems.poincare_s": ("s", "lower", _SMALL),
    "cli.self_s": ("s", "lower", ("small_jobs", "job_p50_s, setup_s")),
    "cli.jobs": ("count", "higher", ("all", "none; the number of jobs traced per pass")),
    "trace.overhead_ratio": ("ratio", "lower", ("all", "none; tracing cost")),
}


def _resolve(module, path: str):
    """(owner, attribute name, raw attribute) for 'func' or 'Class.attr'."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class Tracer:
    """Records spans around the wrapped functions and sums them per metric."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = -1
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.add_useful = 0
        self.degrees_built = 0
        self.degrees_past_full_rank = 0
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def _on_result(self, name: str, result) -> None:
        if name == "RowSpace.add":
            self.add_useful += bool(result)
        elif name == "GradedSubalgebra.hilbert_function" and result:
            first_full = result.index(result[-1])
            self.degrees_built += len(result)
            self.degrees_past_full_rank += len(result) - 1 - first_full

    def _wrap(self, name: str, metric: str, fn):
        spans, stack = self.spans, self._stack
        self.self_s.setdefault(metric, 0.0)
        self.calls.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent, self.job)
                duration = end - start
                self.self_s[metric] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            self._on_result(name, result)
            return result

        return traced

    def install(self) -> None:
        for module, path, metric in SPANS:
            owner, attr, raw = _resolve(module, path)
            if isinstance(raw, property):
                new = property(self._wrap(path, metric, raw.fget))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(path, metric, raw.__func__))
            else:
                new = self._wrap(path, metric, raw)
            if owner is module:  # a function: rebind it wherever it was imported
                sites = [(m, a) for m in MODULES for a, v in vars(m).items() if v is raw]
            else:
                sites = [(owner, attr)]
            for site, name in sites:
                self._patched.append((site, name, raw))
                setattr(site, name, new)

    def uninstall(self) -> None:
        for site, name, raw in reversed(self._patched):
            setattr(site, name, raw)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart\tend\tparent\tjob\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


def run_in_process(argv) -> tuple[int, str, str]:
    """Run `borelcurve.cli.main` as the console script would: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error ends the CLI with a traceback and exit code 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def layer_metrics(tracer: Tracer, passes: int, traced_s: float, untraced_s: float) -> dict:
    """Per-pass layer metrics from a tracer that saw `passes` passes."""
    calls = tracer.calls
    adds = calls["RowSpace.add"]
    values = {metric: seconds / passes for metric, seconds in tracer.self_s.items()}
    values.update({
        "action.parametrize_calls": calls["component_parametrization"] / passes,
        "action.exp_e_calls": calls["exp_e"] / passes,
        "exactalg.rowspace_add_calls": adds / passes,
        "exactalg.rowspace_add_useful_ratio": tracer.add_useful / adds if adds else 0.0,
        "exactalg.degrees_built": tracer.degrees_built / passes,
        "exactalg.degrees_past_full_rank": tracer.degrees_past_full_rank / passes,
        "cli.jobs": calls["main"] / passes,
        "trace.overhead_ratio": traced_s / untraced_s,
    })
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _, _) in LAYER_METRICS.items()}
