"""Dense univariate polynomials over Q in the variable v.

Only the exact parametrizations (`action.component_parametrization`) build
them, so a run that never builds a parametrization (curve, principal, chern)
does not load or compile this module.  A Poly is constructed, multiplied,
raised to a power and evaluated, and nothing else: the checks that compare
polynomials do it over Q at as many points as the degree needs.  `exactalg`
re-exports Poly on first access.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Record, to_int
from .rational import to_fraction

_ZERO = Fraction(0)


class Poly(Record):
    """Dense univariate polynomial over Q in the variable v.

    coeffs[k] is the coefficient of v**k.  Trailing zeros are stripped on
    construction, so the zero polynomial has empty coeffs.
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

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- products and evaluation --------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
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
