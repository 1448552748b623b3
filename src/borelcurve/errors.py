"""Exception hierarchy shared by all modules, and the two integer rules.

The CLI maps InputError to exit code 2 and InternalError to exit code 3.
"""


class InputError(ValueError):
    """Invalid user-supplied data (bad model, bad graph, bad truncation degree)."""


class InternalError(RuntimeError):
    """An exact identity that must hold has failed; indicates a bug, not bad input."""


def to_int(x) -> int:
    """Accept a genuine int only; bools, floats and strings are rejected."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"expected an integer, got {x!r}")
    return x


def ascii_int(text: str) -> int:
    """int(text) for an optionally signed run of ASCII digits with surrounding
    whitespace; ValueError for the underscores and non-ASCII digits int() takes."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)
