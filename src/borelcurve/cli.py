"""Command-line front end: JSON specs in, deterministic JSON (or a flat table) out.

Every run emits a report with the command echo, sha256 digests of the file
inputs, the truncation degree used (when one applies) and the results; two
runs on identical inputs produce identical bytes.  Exit codes: 0 success,
2 invalid input, 3 internal invariant violation.
"""

from __future__ import annotations

import gc
import json
import sys
import warnings
from types import SimpleNamespace

from .errors import InputError, InternalError


def _sha256(path: str) -> str:
    # Only runs that read input files need it.  The builtin module costs a
    # tenth of `hashlib`, which loads OpenSSL's `_hashlib` first.
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python >= 3.12
        except ImportError:
            from hashlib import sha256
    with open(path, "rb") as handle:
        return sha256(handle.read()).hexdigest()


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # syntax, UTF-8, int digits, nesting depth
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _component_json(comp) -> dict:
    from .rational import format_fraction
    return {
        "index": comp.index,
        "degrees": list(comp.degrees),
        "chart_coords": [[format_fraction(c) for c in p.coeffs] for p in comp.chart_coords],
        "homogeneous_coords": [[format_fraction(c) for c in p.coeffs]
                               for p in comp.homog_coords],
    }


def _report(subcommand: str, options: dict, inputs: dict, result: dict,
            max_degree: int | None) -> dict:
    return {
        "command": subcommand,
        "options": options,
        "inputs": {name: {"path": path, "sha256": _sha256(path)}
                   for name, path in inputs.items()},
        "result": result,
        "max_degree": max_degree,
        "exact_arithmetic": True,
    }


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad {what} list {text!r}: expected comma-separated integers") from exc


def _max_degree(args) -> int | None:
    from .rational import MAX_DEGREE
    if args.max_degree is not None:
        if args.max_degree < 0:
            raise InputError("degree bound must be non-negative")
        if args.max_degree > MAX_DEGREE:
            raise InputError(f"--max-degree must be <= {MAX_DEGREE}")
    return args.max_degree


# ---------------------------------------------------------------------------
# subcommands: each imports the modules it uses, so a run loads only those


def cmd_poincare(args) -> dict:
    from . import rootsystems
    if args.degrees is not None and args.family is not None:
        raise InputError("choose either --family/--rank or --degrees, not both")
    if args.degrees is not None:
        degrees = _parse_int_list(args.degrees, "degree")
        poly = rootsystems.poincare_from_degrees(degrees)
        options = {"degrees": degrees}
        result = {"poly": list(poly.coeffs)}
    else:
        if args.family is None or args.rank is None:
            raise InputError("poincare needs --family and --rank, or --degrees")
        rs = rootsystems.positive_roots(args.family, args.rank)
        poly = rootsystems.km_poincare(rs)
        options = {"family": args.family, "rank": args.rank}
        result = {"poly": list(poly.coeffs),
                  "weyl_order": poly.value_at_one,
                  "heights": sorted(rootsystems.heights(rs))}
    return _report("poincare", options, {}, result, None)


def cmd_action(args) -> dict:
    from . import action
    model = action.model_from_json(_load_json(args.spec))
    inputs = {"spec": args.spec}
    options = {"what": args.what}
    if args.what == "validate":
        result = {"valid": True,
                  "model": action.model_to_json(model),
                  "big_cell_degrees": action.big_cell_degrees(model)}
    elif args.what == "fixed-points":
        result = {"fixed_points": [list(p) for p in action.fixed_points(model)]}
    else:  # curve
        comps = [action.component_parametrization(model, j)
                 for j in range(1, model.n + 2)]
        result = {"components": [_component_json(c) for c in comps]}
    return _report("action", options, inputs, result, None)


def cmd_curve(args) -> dict:
    from . import action, curve
    model = action.model_from_json(_load_json(args.spec))
    ring = curve.build_curve_ring(model)
    bound = _max_degree(args)
    if bound is None:
        bound = curve.default_degree_bound(ring)
    inputs = {"spec": args.spec}
    options = {"what": args.what, "components": args.components}
    if args.what == "ring":
        result = {
            "generators": [g.to_json() for g in ring.algebra.generators],
            "hilbert": ring.algebra.hilbert_function(bound),
            "betti": curve.betti_numbers(ring, bound),
            "truncation_degree": bound,
        }
    elif args.what == "betti":
        result = {"betti": curve.betti_numbers(ring, bound), "truncation_degree": bound}
    elif args.what == "restrict":
        if args.components is None:
            raise InputError("curve restrict needs --components")
        subset = _parse_int_list(args.components, "component")
        sub = curve.restrict(ring, subset)
        result = {
            "components": sorted(set(subset)),
            "generators": [g.to_json() for g in sub.generators],
            "hilbert": sub.hilbert_function(bound),
            "truncation_degree": bound,
        }
    else:  # ideal
        if args.components is None:
            raise InputError("curve ideal needs --components")
        subset = _parse_int_list(args.components, "component")
        dims = curve.ideal_hilbert(ring, subset, bound)
        result = {
            "components": sorted(set(subset)),
            "ideal_hilbert": dims,
            "stabilized_rank": ring.r - len(set(subset)),
            "truncation_degree": bound,
        }
    return _report("curve", options, inputs, result, bound)


def cmd_principal(args) -> dict:
    from . import action, curve, gkm
    model = action.model_from_json(_load_json(args.spec))
    ring = curve.build_curve_ring(model)
    graph = gkm.GKMGraph.from_json(_load_json(args.gkm))
    verdict = gkm.principal_verdict(ring, graph, _max_degree(args))
    with warnings.catch_warnings(record=True) as caught:  # reported as JSON lines
        warnings.simplefilter("always")
        betti = gkm.gkm_ordinary_betti(graph)
    for warning in caught:
        print(json.dumps({"warning": str(warning.message)}, sort_keys=True), file=sys.stderr)
    result = {"verdict": verdict.to_json(), "gkm_ordinary_betti": betti}
    return _report("principal", {"max_degree": args.max_degree},
                   {"spec": args.spec, "gkm": args.gkm}, result, verdict.bound)


def cmd_chern(args) -> dict:
    from . import action, chern, curve
    model = action.model_from_json(_load_json(args.spec))
    ring = curve.build_curve_ring(model)
    inputs = {"spec": args.spec}
    bundles = []
    for idx, spec in enumerate(args.bundle or []):
        if spec == "tangent":
            bundles.append(("tangent", chern.tangent_bundle(model)))
        else:
            bundles.append((spec, chern.bundle_from_json(_load_json(spec))))
            inputs[f"bundle{idx}"] = spec
    if not bundles:
        raise InputError("chern needs at least one --bundle (a JSON path or 'tangent')")
    max_degree = _max_degree(args)
    per_bundle, tuples = [], []  # tuples: c_0..c_rank of each bundle, computed once
    for name, bundle in bundles:
        tuples.append(chern.chern_tuples(bundle, ring))
        t = chern.chern_class(tuples[-1], args.k)
        entry = {"bundle": name, "k": args.k, "tuple": t.to_json()}
        if args.test_membership:
            entry["membership"] = chern.regular_on_curve(bundle, t, ring)
        per_bundle.append(entry)
    result: dict = {"bundles": per_bundle}
    bound = None
    if args.gkm is not None:
        from . import gkm
        graph = gkm.GKMGraph.from_json(_load_json(args.gkm))
        inputs["gkm"] = args.gkm
        generators = []
        for (name, bundle), classes in zip(bundles, tuples):
            if set(bundle.fibres) != set(graph.vertices):
                raise InputError(f"bundle {name} fixed points {sorted(bundle.fibres)} "
                                 f"do not match graph vertices {list(graph.vertices)}")
            generators.extend(classes[1:])
        verdict = chern.chern_subalgebra_verdict(generators, graph, max_degree)
        result["subalgebra_verdict"] = verdict.to_json()
        bound = verdict.bound
    return _report("chern", {"k": args.k, "test_membership": args.test_membership,
                             "max_degree": args.max_degree}, inputs, result, bound)


# ---------------------------------------------------------------------------
# rendering and entry point


def _flatten(prefix: str, obj, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], lines)
    elif isinstance(obj, list):
        if all(not isinstance(x, (dict, list)) for x in obj):
            lines.append(f"{prefix} = {' '.join(str(x) for x in obj)}")
        else:
            for i, item in enumerate(obj):
                _flatten(f"{prefix}[{i}]", item, lines)
    else:
        lines.append(f"{prefix} = {obj}")


def _render(report: dict, table: bool) -> str:
    if table:
        lines: list[str] = []
        _flatten("", report, lines)
        return "\n".join(lines)
    return json.dumps(report, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# the command line: one grammar, read by a quick parser and by argparse


def _option(name: str, kind, help: str | None = None, required: bool = False,
            default=None) -> tuple:
    """One option: kind is str, int, bool (a flag), list (repeatable str) or
    a tuple of choices."""
    if kind is bool:
        default = False
    return name, name[2:].replace("-", "_"), kind, help, required, default


# Every subcommand takes --table first, then its positional, then its options;
# argparse lists missing arguments in that order.
_COMMON = (_option("--table", bool, "flat key = value output instead of JSON"),)

# subcommand: (function, help, choices of its one positional or None, options)
GRAMMAR = {
    "poincare": (cmd_poincare, "Kostant-Macdonald Poincare polynomials", None, (
        _option("--family", ("A", "B", "C", "D", "G2", "F4")),
        _option("--rank", int),
        _option("--degrees", str, "comma-separated positive degrees, e.g. 1,2,3"),
    )),
    "action": (cmd_action, "validate a model and list fixed points / curve "
               "parametrizations", ("validate", "fixed-points", "curve"), (
        _option("--spec", str, "action spec JSON", required=True),
    )),
    "curve": (cmd_curve, "curve ring, Betti numbers, restrictions and ideals",
              ("ring", "betti", "restrict", "ideal"), (
        _option("--spec", str, required=True),
        _option("--components", str, "comma-separated fixed-point labels, e.g. 2,3"),
        _option("--max-degree", int),
    )),
    "principal": (cmd_principal, "decide surjectivity of the restriction map", None, (
        _option("--spec", str, required=True),
        _option("--gkm", str, "congruence graph JSON", required=True),
        _option("--max-degree", int),
    )),
    "chern": (cmd_chern, "equivariant Chern class tuples and generation tests", None, (
        _option("--spec", str, required=True),
        _option("--bundle", list, "bundle spec JSON, or 'tangent' (repeatable)"),
        _option("--k", int, default=1),
        _option("--test-membership", bool),
        _option("--gkm", str, "congruence graph JSON; compare the subalgebra "
                "generated by all Chern classes of the given bundles"),
        _option("--max-degree", int),
    )),
}


def _quick_parse(argv):
    """The namespace argparse would return for a plain command line, or None.

    Plain: the subcommand comes first; option names are spelled in full, as
    `--name value` or `--name=value`; no value starts with "-"; there is at
    most one positional and it is one of its choices; every int value parses;
    every required option is given.  Everything else (help, prefixes, "--",
    negative values, every malformed line) is left to argparse, the one
    source of help and error text.
    """
    if not argv or argv[0] not in GRAMMAR:
        return None
    func, _, choices, options = GRAMMAR[argv[0]]
    by_name = {option[0]: option for option in _COMMON + options}
    values = {dest: default for _, dest, _, _, _, default in by_name.values()}
    values.update(subcommand=argv[0], func=func)
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if choices is None or "what" in values or token not in choices:
                return None
            values["what"] = token
            continue
        name, eq, value = token.partition("=")
        if name not in by_name:
            return None
        _, dest, kind, _, _, _ = by_name[name]
        given.add(name)
        if kind is bool:
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                return None
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is list:
            value = (values[dest] or []) + [value]
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    if choices is not None and "what" not in values:
        return None
    if any(required and name not in given
           for name, _, _, _, required, _ in by_name.values()):
        return None
    return SimpleNamespace(**values)


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports a malformed command line like any other bad input: one JSON
        error line on stderr and exit code 2 (help still prints and exits 0)."""

        def error(self, message):
            raise InputError(message)

    parser = _Parser(
        prog="borelcurve",
        description="Exact equivariant cohomology of regular Borel actions on "
                    "projective space, via the fixed-point curve.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (func, summary, choices, options) in GRAMMAR.items():
        p = sub.add_parser(command, help=summary)
        _add_options(p, _COMMON)
        if choices is not None:
            p.add_argument("what", choices=choices)
        _add_options(p, options)
        p.set_defaults(func=func)
    return parser


def _add_options(parser, options) -> None:
    for name, _, kind, text, required, default in options:
        kwargs = {"help": text, "required": required, "default": default}
        if kind is bool:
            kwargs["action"] = "store_true"
        elif kind is list:
            kwargs["action"] = "append"
        elif isinstance(kind, tuple):
            kwargs["choices"] = kind
        else:
            kwargs["type"] = kind
        parser.add_argument(name, **kwargs)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _quick_parse(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        report = args.func(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2
    except InternalError as exc:
        print(json.dumps({"internal_error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 3
    print(_render(report, args.table))
    return 0


def run() -> None:
    """The process entry (console script and `python -m`): exit with main's code.

    Before it exits, `gc.freeze()` moves every object still alive (the loaded
    modules, classes and functions) into the permanent generation, which the
    interpreter's shutdown collections skip; streams are still flushed and
    atexit handlers still run.  `main` itself leaves the collector alone, as
    tests and the benchmark's tracer call it many times in one process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
