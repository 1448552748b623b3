"""Poincare polynomials of flag varieties from the exponents of the root system.

Kostant's height-exponent duality: the number of positive roots of height k
equals the number of exponents m_i >= k.  So the Kostant-Macdonald product
over root heights telescopes to

    prod_{a > 0} (1 - t^(ht(a)+1)) / (1 - t^(ht(a))) = prod_i [m_i + 1]_t,

where [m]_t = 1 + t + ... + t^(m-1), and |W| = prod_i (m_i + 1).  A table of
exponents therefore gives the heights, the polynomial and the Weyl group
order; `rootsystems` keeps the root tables and the height pairing as the
independent oracle for this table.  Everything here is integer arithmetic.
"""

from itertools import accumulate

from .errors import InputError, InternalError, Record, clip, to_int

MAX_RANK = 8

# Largest total degree sum(d) accepted by poincare_from_degrees.  The product
# formula works on lists of sum(d + 1) integers in O(len(d) * sum(d)) steps,
# so the cap bounds both before anything is allocated; the root systems up to
# MAX_RANK need at most 372 (B8, C8).
MAX_DEGREE_SUM = 1000

# family: (lowest rank, highest rank, the exponents at rank n)
EXPONENTS = {
    "A": (1, MAX_RANK, lambda n: list(range(1, n + 1))),
    "B": (1, MAX_RANK, lambda n: list(range(1, 2 * n, 2))),
    "C": (1, MAX_RANK, lambda n: list(range(1, 2 * n, 2))),
    "D": (2, MAX_RANK, lambda n: list(range(1, 2 * n - 2, 2)) + [n - 1]),
    "G2": (2, 2, lambda n: [1, 5]),
    "F4": (4, 4, lambda n: [1, 5, 7, 11]),
}


class PoincarePoly(Record):
    """Polynomial with non-negative integer coefficients, palindromic, constant term 1."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs)
        if not cs or cs[0] != 1:
            raise InternalError("Poincare polynomial must have constant term 1")
        if any(c < 0 for c in cs):
            raise InternalError("Poincare polynomial has a negative coefficient")
        if cs != cs[::-1]:
            raise InternalError("Poincare polynomial is not palindromic")

    @property
    def value_at_one(self) -> int:
        return sum(self.coeffs)


def exponents(family: str, rank: int) -> list[int]:
    """The exponents of a supported family at a rank it has; InputError otherwise."""
    row = EXPONENTS.get(family) if isinstance(family, str) else None
    if row is None:
        raise InputError(f"unsupported family {family!r} (expected A, B, C, D, G2 or F4)")
    low, high, at_rank = row
    if not low <= to_int(rank) <= high:
        raise InputError(f"{family} has rank {low}" if low == high
                         else f"{family}-family rank must be {low}..{high}")
    return at_rank(rank)


def poincare(family: str, rank: int) -> tuple[PoincarePoly, list[int]]:
    """prod_i [m_i + 1]_t and the sorted positive-root heights (#{i : m_i >= k}
    roots of height k); the same InputError as `exponents` otherwise."""
    ms = exponents(family, rank)
    coeffs, order = [1], 1
    for m in ms:  # times 1 + t + ... + t^m: a sliding window over prefix sums
        sums = [0, *accumulate(coeffs + [0] * m)]
        coeffs = [sums[k + 1] - sums[max(k - m, 0)] for k in range(len(sums) - 1)]
        order *= m + 1
    poly = PoincarePoly(tuple(coeffs))
    if poly.value_at_one != order:
        raise InternalError("product formula does not sum to the Weyl group order")
    return poly, [k for k in range(1, max(ms) + 1) for m in ms if m >= k]


def _product_formula(degrees: list[int]) -> list[int]:
    """Expand prod_i (1 - t^(d_i+1)) / (1 - t^(d_i)); ArithmeticError on remainder.

    The full numerator is multiplied out first; when the total quotient is a
    polynomial every intermediate division below is then exact as well.
    Dividing by 1 - t^d is the integer recurrence q[k] = num[k] + q[k-d],
    exact when the last d terms of q vanish.
    """
    num = [1]
    for d in degrees:
        num = num + [0] * (d + 1)
        for k in range(len(num) - 1, d, -1):
            num[k] -= num[k - d - 1]
    for d in degrees:
        for k in range(d, len(num)):
            num[k] += num[k - d]
        if any(num[-d:]):
            raise ArithmeticError("product formula has a nonzero remainder")
        del num[-d:]
    return num


def poincare_from_degrees(degrees) -> PoincarePoly:
    """Poincare polynomial of a model with the given positive weight degrees.

    Degrees are the half-weights of the attracting-cell coordinates (deg v = 1
    convention).  Not every degree list yields a polynomial; a remainder means
    the degrees do not come from a regular projective model.  The degrees may
    sum to at most MAX_DEGREE_SUM.
    """
    ds = [to_int(d, 1, name="degrees") for d in degrees]
    if sum(ds) > MAX_DEGREE_SUM:
        raise InputError(f"degrees must sum to at most {MAX_DEGREE_SUM}")
    try:
        coeffs = _product_formula(ds)
    except ArithmeticError as exc:
        raise InputError(f"degrees {clip(str(ds))} do not come from a regular action: "
                         f"{exc}") from exc
    if any(c < 0 for c in coeffs):
        raise InputError(f"degrees {clip(str(ds))} do not come from a regular action: "
                         "negative coefficient in the expanded product")
    return PoincarePoly(tuple(coeffs))
