"""The scalar layer: exact rationals and homogeneous tuples of the tuple ring
Q[v] + ... + Q[v] (r copies, componentwise operations).

A homogeneous element of degree d is a tuple (c_1 v^d, ..., c_r v^d), stored
as the pair (d, (c_1, ..., c_r)); products are taken on coefficient rows, by
`_hadamard` (componentwise, degrees adding) in exactalg's slices.  The
exact-matrix helpers that action, chern and the oracles share (`_as_matrix`
reads a square matrix of rationals, `_mat_mul` multiplies two) live here too.
Kept apart from the linear algebra in exactalg, so that a run that needs only
values (action, curve) does not load or compile it, and from the polynomials
in `poly`, which only parametrizations and oracles use.

No floating point exists anywhere in this package: coefficients are
fractions.Fraction throughout and float inputs are rejected.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import InputError, Record, to_int

Vec = tuple[Fraction, ...]
Matrix = tuple[Vec, ...]

# Largest degree accepted from input (edge multiplicities, degree_bound).
# Answers stop changing at degree n (curve) or the largest multiplicity.
MAX_DEGREE = 1000


def _digits(text: str) -> bool:
    """Whether text is a nonempty run of ASCII digits."""
    return text.isascii() and text.isdigit()


def to_fraction(x) -> Fraction:
    """Coerce an int, Fraction or 'p' / 'p/q' string to an exact rational.

    Floats are rejected outright: the whole library promises exact results.
    Strings must be an optionally signed ASCII integer, or one over a
    positive ASCII integer, with optional surrounding whitespace; decimal points,
    exponents and underscores are refused, so '1e999999999' is never expanded.
    """
    if isinstance(x, bool):
        raise InputError(f"cannot interpret {x!r} as a rational number")
    if isinstance(x, float):
        raise InputError("floating point values are not accepted; pass ints or 'p/q' strings")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        p, slash, q = x.strip().partition("/")
        if _digits(p[1:] if p.startswith(("+", "-")) else p) and (not slash or _digits(q)):
            try:
                return Fraction(int(p), int(q or 1))
            except (ValueError, ZeroDivisionError):  # past the int digit limit, or p/0
                pass
        raise InputError(f"cannot parse rational {x!r}")
    raise InputError(f"cannot interpret {x!r} as a rational number")


def degree_bound(max_degree, default: int | None) -> int | None:
    """The degree bound a caller gives, an int in 0..MAX_DEGREE; None gives
    `default`, which the cap does not bind (a ring on more than 1,001 nodes
    has a default bound n above it)."""
    if max_degree is None:
        return default
    if to_int(max_degree, 0, name="degree bound") > MAX_DEGREE:
        raise InputError(f"degree bound must be <= {MAX_DEGREE}")
    return max_degree


def _cleared(m: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, D m) over int: D is the lcm of the entry denominators (1 if none)."""
    d = 1
    for q in {x.denominator for row in m for x in row}:
        d *= Fraction(d, q).denominator  # q / gcd(d, q): d becomes lcm(d, q)
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m)


def _as_list(x):
    if not isinstance(x, (list, tuple)):
        raise InputError(f"expected a list, got {x!r}")
    return x


def _as_matrix(rows, size: int) -> Matrix:
    m = tuple(tuple(map(to_fraction, _as_list(row))) for row in _as_list(rows))
    if len(m) != size or any(len(row) != size for row in m):
        raise InputError(f"expected a {size}x{size} matrix")
    return m


def _mat_mul(a, b):
    """The exact product a b of two int or Fraction matrices."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def format_fraction(q: Fraction) -> str:
    """Render as 'p' or 'p/q' (the serialization used in all JSON output)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# homogeneous tuples


def _hadamard(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x * y for x, y in zip(a, b))


class HomTuple(Record):
    """Homogeneous element (c_1 v^degree, ..., c_r v^degree) of a tuple ring; no operators."""

    degree: int
    coeffs: Vec

    def __post_init__(self):
        to_int(self.degree, 0, name="tuple degree")
        if isinstance(self.coeffs, str):
            raise InputError(f"tuple coeffs must be a list, not the string {self.coeffs!r}")
        object.__setattr__(self, "coeffs", tuple(to_fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise InputError("tuple needs at least one component")

    @classmethod
    def ones(cls, r: int, degree: int) -> "HomTuple":
        return cls(degree, (Fraction(1),) * r)

    @property
    def r(self) -> int:
        return len(self.coeffs)

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [format_fraction(c) for c in self.coeffs]}
