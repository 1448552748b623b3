"""Command-line front end: JSON specs in, deterministic JSON (or a flat table) out.

Every run emits a report with the command echo, sha256 digests of the file
inputs, the truncation degree used (when one applies) and the results; two runs
on identical inputs produce identical bytes.  Exit codes: 0 success, 2 invalid
input, 3 internal invariant violation, 141 closed stdout; a process ends in
`run`, by `os._exit` after atexit and a last flush.  `main` alone reads input
files and builds the report.  A subcommand's body is `run(args, load)` in
`cmd_<subcommand>` (a run compiles only its own), which returns (options,
result, truncation degree) and reads each file through the `load(name, path)`
it is given: no `cmd_*` module imports `borelcurve.cli`, which `python -m`
runs as `__main__`, so an import would run it a second time.  `json` is
imported by the first file read; a run that reads no file writes its report
and error line with `jsonwrite`, the same bytes without loading `json`.
"""

import atexit
import io
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import InputError, InternalError, ascii_int, clip


def _sha256(data: bytes) -> str:
    # Imported on use: the builtin (`_sha2` from 3.12) costs a tenth of `hashlib`+OpenSSL.
    for module in ("_sha256", "_sha2"):
        try:
            return import_module(module).sha256(data).hexdigest()
        except ImportError:
            continue
    return import_module("hashlib").sha256(data).hexdigest()


def _load_json(inputs: dict, name: str, path: str) -> dict:
    """Parse the JSON file at path, read once; inputs[name] records the path and the
    sha256 of the bytes parsed, which decode as a text-mode UTF-8 read decodes them."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {clip(path)}: {exc.strerror}") from exc
    inputs[name] = {"path": path, "sha256": _sha256(data)}
    import json  # once inputs is not empty, the report is written by json
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # syntax, UTF-8, int digits, nesting depth
        # only int() raises a plain ValueError here, past its digit limit, in
        # words that differ between Python versions; the words here do not
        detail = (f"an integer has more than {sys.get_int_max_str_digits()} digits"
                  if type(exc) is ValueError else exc)
        raise InputError(f"{clip(path)} is not valid JSON: {detail}") from exc


def _dumps(obj: dict, inputs: dict, indent: int | None = None) -> str:
    """json.dumps(obj, indent=indent, sort_keys=True), by `json` when a file was
    read (which loaded it) and by `jsonwrite` otherwise."""
    if inputs:
        import json
        return json.dumps(obj, indent=indent, sort_keys=True)
    from .jsonwrite import dumps
    return dumps(obj, indent)


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
    return _dumps(report, report["inputs"], 2)


# ---------------------------------------------------------------------------
# the command line: one grammar, read by a quick parser and by argparse


def integer(text: str) -> int:
    """The int options' reader: errors.ascii_int, under a name that reads well
    in argparse's message "invalid integer value: '1_0'"."""
    return ascii_int(text)


def _option(name: str, kind, help: str | None = None, required: bool = False,
            default=None) -> tuple:
    """One option: kind is a reader of its text (str or integer), bool (a
    flag), list (repeatable str) or a tuple of choices."""
    if kind is bool:
        default = False
    return name, name[2:].replace("-", "_"), kind, help, required, default


# Every subcommand takes --table first, then its positional, then its options;
# argparse lists missing arguments in that order.
_COMMON = (_option("--table", bool, "flat key = value output instead of JSON"),)

# subcommand: (help, choices of its one positional or None, options); its
# body is `run` in the module cmd_<subcommand>
GRAMMAR = {
    "poincare": ("Kostant-Macdonald Poincare polynomials", None, (
        _option("--family", ("A", "B", "C", "D", "G2", "F4")),
        _option("--rank", integer),
        _option("--degrees", str, "comma-separated positive degrees, e.g. 1,2,3"),
    )),
    "action": ("validate a model and list fixed points / curve "
               "parametrizations", ("validate", "fixed-points", "curve"), (
        _option("--spec", str, "action spec JSON", required=True),
    )),
    "curve": ("curve ring, Betti numbers, restrictions and ideals",
              ("ring", "betti", "restrict", "ideal"), (
        _option("--spec", str, required=True),
        _option("--components", str, "comma-separated fixed-point labels, e.g. 2,3"),
        _option("--max-degree", integer),
    )),
    "principal": ("decide surjectivity of the restriction map", None, (
        _option("--spec", str, required=True),
        _option("--gkm", str, "congruence graph JSON", required=True),
        _option("--max-degree", integer),
    )),
    "chern": ("equivariant Chern class tuples and generation tests", None, (
        _option("--spec", str, required=True),
        _option("--bundle", list, "bundle spec JSON, or 'tangent' (repeatable)"),
        _option("--k", integer, default=1),
        _option("--test-membership", bool),
        _option("--gkm", str, "congruence graph JSON; compare the subalgebra "
                "generated by all Chern classes of the given bundles"),
        _option("--max-degree", integer),
    )),
}


def _quick_parse(argv):
    """The namespace argparse would return for a plain command line, or None.

    Plain: the subcommand comes first; option names are spelled in full, as
    `--name value` or `--name=value`; no value starts with "-"; there is at
    most one positional and it is one of its choices; every value reads;
    every required option is given.  Everything else (help, prefixes, "--",
    negative values, every malformed line) is left to argparse, the one
    source of help and error text.
    """
    if not argv or argv[0] not in GRAMMAR:
        return None
    _, choices, options = GRAMMAR[argv[0]]
    by_name = {option[0]: option for option in _COMMON + options}
    values = {dest: default for _, dest, _, _, _, default in by_name.values()}
    values["subcommand"] = argv[0]
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
        if kind is list:
            value = (values[dest] or []) + [value]
        elif isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[dest] = value
    if choices is not None and "what" not in values:
        return None
    if any(required and name not in given
           for name, _, _, _, required, _ in by_name.values()):
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    inputs: dict = {}
    try:
        args = _quick_parse(argv)
        if args is None:
            from .argparser import build_parser
            args = build_parser(GRAMMAR, _COMMON).parse_args(argv)
        options, result, bound = import_module(f".cmd_{args.subcommand}", __package__).run(
            args, lambda name, path: _load_json(inputs, name, path))
    except InputError as exc:
        print(_dumps({"error": str(exc)}, inputs), file=sys.stderr)
        return 2
    except InternalError as exc:
        print(_dumps({"internal_error": str(exc)}, inputs), file=sys.stderr)
        return 3
    print(_render({"command": args.subcommand, "options": options, "inputs": inputs,
                   "result": result, "max_degree": bound, "exact_arithmetic": True}, args.table))
    return 0


def run() -> None:
    """The process entry (console script and `python -m`): exit with main's code.

    Once the report is flushed, atexit handlers run and both streams are
    flushed again; then `os._exit` ends the process without the interpreter's
    teardown.  `main` itself touches no process-wide state, as tests and the
    benchmark's tracer call it many times in one process.

    A closed stdout ends the process with 141 (a shell's status for a writer
    killed by SIGPIPE) and no traceback; fd 1 then points at the null device,
    so the flush at exit cannot fail again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
