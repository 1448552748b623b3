"""Dense univariate polynomials over Q in the variable v.

Only the exact parametrizations (`action.component_parametrization`,
`action.exp_e` on a polynomial parameter) and the test oracles use them, so a
run that never builds a parametrization (curve, principal, chern) does not
load or compile this module.  `exactalg` re-exports Poly on first access.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Record, to_int
from .rational import to_fraction

_ZERO = Fraction(0)


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
        to_int(k, 0, name="monomial power")
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
        to_int(n, 0, name="polynomial power")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        x = to_fraction(x) if not isinstance(x, Fraction) else x
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc
