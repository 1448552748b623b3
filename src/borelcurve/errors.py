"""The building blocks every other module shares: the exception hierarchy,
the integer and label rules, the cut of echoed values, and Record, the base
of the value classes.

The CLI maps InputError to exit code 2 and InternalError to exit code 3.
This module imports nothing, so a module needing only these (exponents, on
the `poincare` path) loads no `fractions`.
"""


class InputError(ValueError):
    """Invalid user-supplied data (bad model, bad graph, bad truncation degree)."""


class InternalError(RuntimeError):
    """An exact identity that must hold has failed; indicates a bug, not bad input."""


ECHO_MAX = 160  # characters of an echoed value an error message shows


def clip(text: str) -> str:
    """An echoed value's text (a repr, or argparse's message) for an error
    line: past ECHO_MAX characters, its first ECHO_MAX and its full length."""
    if len(text) <= ECHO_MAX:
        return text
    return f"{text[:ECHO_MAX]}... ({len(text)} characters)"


def to_int(x, low=None, high=None, name="") -> int:
    """Accept a genuine int only (bools, floats and strings are rejected), in
    low..high when low is given; without high, low is 0 or 1."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"expected an integer, got {clip(repr(x))}")
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
        raise InputError(f"bad {what} list {clip(repr(text))}: "
                         "expected comma-separated integers") from exc


def _json_value(x):
    if isinstance(x, tuple):
        return [_json_value(y) for y in x]
    return x if x is None or isinstance(x, (int, str)) else str(x)


class Record:
    """Base of the package's value classes, in place of frozen dataclasses.

    A subclass's annotated names are its fields, in order; a class attribute
    of the same name is a default.  Instances are built positionally or by
    keyword, then `__post_init__` may normalize fields via object.__setattr__.
    They equal same-class instances with equal fields, hash by their fields
    and refuse assignment.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)  # its own, from Python 3.10

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            cls = type(self)
            given = {**dict(zip(fields, args)), **kwargs}
            if (len(given) < len(args) + len(kwargs) or not given.keys() <= set(fields)
                    or not all(f in given or hasattr(cls, f) for f in fields)):
                raise TypeError(f"{cls.__name__}() takes the fields {fields}")
            args = [given[f] if f in given else getattr(cls, f) for f in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map(repr, self._values()))})"

    def to_json(self) -> dict:
        return {f: _json_value(getattr(self, f)) for f in self._fields}
