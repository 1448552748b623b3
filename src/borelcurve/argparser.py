"""The argparse parser over `cli.GRAMMAR`: help and every command line the
quick parser leaves alone.  A plain run never loads it (nor `argparse`)."""

import argparse

from .errors import InputError, clip


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line like any other bad input: one JSON
    error line on stderr and exit code 2 (help still prints and exits 0); a
    message that echoes a long value is cut like any echoed value."""

    def error(self, message):
        raise InputError(clip(message))


def build_parser(grammar: dict, common: tuple) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="borelcurve",
        description="Exact equivariant cohomology of regular Borel actions on "
                    "projective space, via the fixed-point curve.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (summary, choices, options) in grammar.items():
        p = sub.add_parser(command, help=summary)
        _add_options(p, common)
        if choices is not None:
            p.add_argument("what", choices=choices)
        _add_options(p, options)
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
