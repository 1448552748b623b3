"""Exception hierarchy shared by all modules, and the integer and label rules.

The CLI maps InputError to exit code 2 and InternalError to exit code 3.
"""


class InputError(ValueError):
    """Invalid user-supplied data (bad model, bad graph, bad truncation degree)."""


class InternalError(RuntimeError):
    """An exact identity that must hold has failed; indicates a bug, not bad input."""


def to_int(x, low=None, high=None, name="") -> int:
    """Accept a genuine int only (bools, floats and strings are rejected), in
    low..high when low is given; without high, low is 0 or 1."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"expected an integer, got {x!r}")
    if low is not None and (x < low or high is not None and x > high):
        raise InputError(f"{name} must lie in {low}..{high}" if high is not None
                         else f"{name} must be {'positive' if low else 'non-negative'}")
    return x


def labels(subset, r: int, name: str) -> list[int]:
    """The sorted distinct labels of a nonempty subset of 1..r."""
    out = sorted(set(map(to_int, subset)))
    if not out or out[0] < 1 or out[-1] > r:
        raise InputError(f"{name} must lie in 1..{r}" if out else f"{name} must be nonempty")
    return out


def ascii_int(text: str) -> int:
    """int(text) for an optionally signed run of ASCII digits with surrounding
    whitespace; ValueError for the underscores and non-ASCII digits int() takes."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def int_list(text: str, what: str) -> list[int]:
    """The integers of a comma-separated option value; empty items are skipped."""
    try:
        return [ascii_int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad {what} list {text!r}: expected comma-separated integers") from exc
