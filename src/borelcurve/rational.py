"""The scalar layer: exact rationals, univariate polynomials over Q and
homogeneous tuples of the tuple ring Q[v] + ... + Q[v] (r copies,
componentwise operations).

A homogeneous element of degree d is a tuple (c_1 v^d, ..., c_r v^d) and is
stored as the pair (d, (c_1, ..., c_r)); the product of homogeneous elements
multiplies coefficient vectors componentwise (Hadamard product) and adds
degrees.  Kept apart from the linear algebra in exactalg, so that a run that
needs only values (action, curve) does not load or compile it.

No floating point exists anywhere in this package: coefficients are
fractions.Fraction throughout and float inputs are rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .record import Record

Vec = tuple[Fraction, ...]
_ZERO = Fraction(0)

# Largest degree accepted from input (edge multiplicities, --max-degree).
# Answers stop changing at degree n (curve) or the largest multiplicity.
MAX_DEGREE = 1000

# The accepted string forms: an integer or p/q, optional sign, ASCII digits.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


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
        match = _RATIONAL.fullmatch(x.strip())
        if match is not None:
            try:
                return Fraction(int(match[1]), int(match[2] or 1))
            except (ValueError, ZeroDivisionError):  # past the int digit limit, or p/0
                pass
        raise InputError(f"cannot parse rational {x!r}")
    raise InputError(f"cannot interpret {x!r} as a rational number")


def to_int(x) -> int:
    """Accept a genuine int only; bools, floats and strings are rejected."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"expected an integer, got {x!r}")
    return x


def format_fraction(q: Fraction) -> str:
    """Render as 'p' or 'p/q' (the serialization used in all JSON output)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# univariate polynomials over Q


class Poly(Record):
    """Dense univariate polynomial over Q in the variable v.

    coeffs[k] is the coefficient of v**k.  Trailing zeros are stripped on
    construction, so the zero polynomial has empty coeffs and degree -1
    (the sentinel value for "degree of zero").
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        cs = [to_fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((to_fraction(c),))

    @classmethod
    def variable(cls) -> "Poly":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def monomial(cls, c, k: int) -> "Poly":
        if k < 0:
            raise InputError("monomial power must be non-negative")
        c = to_fraction(c)
        mono = object.__new__(cls)  # already normalized: skip __post_init__
        object.__setattr__(mono, "coeffs", (_ZERO,) * k + (c,) if c else ())
        return mono

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient; None for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def as_monomial(self) -> tuple[Fraction, int] | None:
        """(coefficient, power) if self is a single nonzero term, else None."""
        nz = [(c, i) for i, c in enumerate(self.coeffs) if c != 0]
        if len(nz) != 1:
            return None
        c, i = nz[0]
        return c, i

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, str)):
            return Poly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(tuple(self.coeff(k) + o.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative polynomial power")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dn = len(rem) - 1, o.degree
        lead = o.coeffs[-1]
        quo = [Fraction(0)] * max(dd - dn + 1, 0)
        for k in range(dd - dn, -1, -1):
            c = rem[k + dn] / lead
            if c != 0:
                quo[k] = c
                for j, b in enumerate(o.coeffs):
                    rem[k + j] -= c * b
        return Poly(tuple(quo)), Poly(tuple(rem))

    def __call__(self, x):
        x = to_fraction(x) if not isinstance(x, Fraction) else x
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(format_fraction(c))
            elif i == 1:
                parts.append(f"{format_fraction(c)}*v" if c != 1 else "v")
            else:
                parts.append(f"{format_fraction(c)}*v^{i}" if c != 1 else f"v^{i}")
        return " + ".join(parts)




# ---------------------------------------------------------------------------
# homogeneous tuples


def _hadamard(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x * y for x, y in zip(a, b))


class HomTuple(Record):
    """Homogeneous element (c_1 v^degree, ..., c_r v^degree) of a tuple ring."""

    degree: int
    coeffs: Vec

    def __post_init__(self):
        if not isinstance(self.degree, int) or self.degree < 0:
            raise InputError("tuple degree must be a non-negative integer")
        object.__setattr__(self, "coeffs", tuple(to_fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise InputError("tuple needs at least one component")

    @classmethod
    def ones(cls, r: int, degree: int = 0) -> "HomTuple":
        return cls(degree, (Fraction(1),) * r)

    @property
    def r(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, HomTuple):
            if other.r != self.r:
                raise InputError("component-count mismatch")
            return HomTuple(self.degree + other.degree, _hadamard(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction, str)):
            c = to_fraction(other)
            return HomTuple(self.degree, tuple(c * x for x in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, HomTuple):
            return NotImplemented
        if other.r != self.r:
            raise InputError("component-count mismatch")
        if other.degree != self.degree:
            raise InputError("cannot add tuples of different degrees")
        return HomTuple(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, HomTuple):
            return NotImplemented
        return self + (-1) * other

    def project(self, positions: Sequence[int]) -> "HomTuple":
        """Restrict to the given 0-based component positions."""
        return HomTuple(self.degree, tuple(self.coeffs[p] for p in positions))

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [format_fraction(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "HomTuple":
        try:
            return cls(to_int(data["degree"]), tuple(to_fraction(c) for c in data["coeffs"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad tuple serialization: {data!r}") from exc
