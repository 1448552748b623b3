"""Root-system tables and Poincare-polynomial product formulas.

Positive roots are kept as integer vectors in a standard orthogonal
realization (F4 is scaled by 2 to stay integral; scaling does not change
reflections or simple-root coefficients).  The height of a root is the sum of
its coefficients over the simple roots.  Every positive root is reached from a
simple root by adding simple roots one at a time with every partial sum a
root, so a breadth-first walk over the table that carries integer coefficient
vectors along finds every height without solving a linear system.

km_poincare evaluates the Kostant-Macdonald product over positive-root
heights,

    prod_{a > 0} (1 - t^(ht(a)+1)) / (1 - t^(ht(a))),

with exact polynomial division.  weyl_length_genfun recomputes the same
polynomial by breadth-first enumeration of the Weyl group acting on a regular
vector, and serves as an independent oracle; it lives in `oracles` and is
re-exported here on first access (PEP 562).  Everything here is integer
arithmetic.
"""

from __future__ import annotations

from math import factorial

from .errors import InputError, InternalError
from .record import Record

MAX_RANK = 8

# Largest total degree sum(d) accepted by poincare_from_degrees.  The product
# formula works on lists of sum(d + 1) integers in O(len(d) * sum(d)) steps,
# so the cap bounds both before anything is allocated; the root systems up to
# MAX_RANK need at most 372 (B8, C8).
MAX_DEGREE_SUM = 1000


class RootSystem(Record):
    family: str
    rank: int
    simple_roots: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]


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

    def __iter__(self):
        return iter(self.coeffs)


def _unit(dim: int, i: int, sign: int = 1) -> list[int]:
    v = [0] * dim
    v[i] = sign
    return v


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _family_tables(family: str, rank: int):
    if family == "A":
        if not 1 <= rank <= MAX_RANK:
            raise InputError(f"A-family rank must be 1..{MAX_RANK}")
        dim = rank + 1
        simple = [_sub(_unit(dim, i), _unit(dim, i + 1)) for i in range(rank)]
        pos = [_sub(_unit(dim, i), _unit(dim, j)) for i in range(dim) for j in range(i + 1, dim)]
        return simple, pos
    if family == "B":
        if not 1 <= rank <= MAX_RANK:
            raise InputError(f"B-family rank must be 1..{MAX_RANK}")
        dim = rank
        simple = [_sub(_unit(dim, i), _unit(dim, i + 1)) for i in range(rank - 1)]
        simple.append(tuple(_unit(dim, rank - 1)))
        pos = [tuple(_unit(dim, i)) for i in range(rank)]
        for i in range(rank):
            for j in range(i + 1, rank):
                pos.append(_sub(_unit(dim, i), _unit(dim, j)))
                pos.append(_add(_unit(dim, i), _unit(dim, j)))
        return simple, pos
    if family == "C":
        if not 1 <= rank <= MAX_RANK:
            raise InputError(f"C-family rank must be 1..{MAX_RANK}")
        dim = rank
        simple = [_sub(_unit(dim, i), _unit(dim, i + 1)) for i in range(rank - 1)]
        simple.append(tuple(_unit(dim, rank - 1, 2)))
        pos = [tuple(_unit(dim, i, 2)) for i in range(rank)]
        for i in range(rank):
            for j in range(i + 1, rank):
                pos.append(_sub(_unit(dim, i), _unit(dim, j)))
                pos.append(_add(_unit(dim, i), _unit(dim, j)))
        return simple, pos
    if family == "D":
        if not 2 <= rank <= MAX_RANK:
            raise InputError(f"D-family rank must be 2..{MAX_RANK}")
        dim = rank
        simple = [_sub(_unit(dim, i), _unit(dim, i + 1)) for i in range(rank - 1)]
        simple.append(_add(_unit(dim, rank - 2), _unit(dim, rank - 1)))
        pos = []
        for i in range(rank):
            for j in range(i + 1, rank):
                pos.append(_sub(_unit(dim, i), _unit(dim, j)))
                pos.append(_add(_unit(dim, i), _unit(dim, j)))
        return simple, pos
    if family == "G2":
        if rank != 2:
            raise InputError("G2 has rank 2")
        a, b = (1, -1, 0), (-2, 1, 1)
        simple = [a, b]
        pos = [a, b, _add(a, b), _add(_add(a, a), b), _add(_add(a, _add(a, a)), b),
               _add(_add(a, _add(a, a)), _add(b, b))]
        return simple, pos
    if family == "F4":
        if rank != 4:
            raise InputError("F4 has rank 4")
        # realization scaled by 2 so the half-sum roots stay integral
        simple = [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
        pos = [tuple(_unit(4, i, 2)) for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                pos.append(_sub(_unit(4, i, 2), _unit(4, j, 2)))
                pos.append(_add(_unit(4, i, 2), _unit(4, j, 2)))
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    pos.append((1, s1, s2, s3))
        return simple, pos
    raise InputError(f"unsupported family {family!r} (expected A, B, C, D, G2 or F4)")


_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G2": lambda n: 6,
    "F4": lambda n: 24,
}


def positive_roots(family: str, rank: int) -> RootSystem:
    """Complete positive-root list in the standard integer realization."""
    simple, pos = _family_tables(family, int(rank))
    rs = RootSystem(family, int(rank), tuple(simple), tuple(pos))
    if len(rs.positive_roots) != _POSITIVE_COUNT[family](rs.rank):
        raise InternalError("positive root count does not match the classical value")
    return rs


def heights(rs: RootSystem) -> list[int]:
    """Height of each positive root: sum of its simple-root coefficients.

    Breadth-first from the simple roots (unit coefficient vectors): adding
    simple root k to a reached root that sums to a listed root reaches that
    root with coefficient k raised by one.  A root never reached, or reached
    with two different expansions, breaks the table.
    """
    simple = rs.simple_roots
    listed = set(rs.positive_roots)
    expansion = {root: tuple(int(i == k) for i in range(len(simple)))
                 for k, root in enumerate(simple)}
    frontier = list(expansion)
    while frontier:
        reached = []
        for root in frontier:
            coeffs = expansion[root]
            for k, s in enumerate(simple):
                total = _add(root, s)
                if total not in listed:
                    continue
                raised = coeffs[:k] + (coeffs[k] + 1,) + coeffs[k + 1:]
                known = expansion.get(total)
                if known is None:
                    expansion[total] = raised
                    reached.append(total)
                elif known != raised:
                    raise InternalError(f"root {total} has two simple-root expansions "
                                        f"{known} and {raised}")
        frontier = reached
    out = []
    for root in rs.positive_roots:
        if root not in expansion:
            raise InternalError(f"root {root} is not a non-negative integer "
                                "combination of simple roots")
        out.append(sum(expansion[root]))
    return out


def weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2**rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    if family == "G2":
        return 12
    if family == "F4":
        return 1152
    raise InputError(f"unsupported family {family!r}")


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


def km_poincare(rs: RootSystem) -> PoincarePoly:
    """Kostant-Macdonald product over the heights of the positive roots.

    The coefficient of t^k equals the number of Weyl group elements of
    length k; a division remainder here means the root tables are wrong.
    """
    try:
        coeffs = _product_formula(heights(rs))
    except ArithmeticError as exc:
        raise InternalError(f"height product is not a polynomial for {rs.family}{rs.rank}: "
                            f"{exc}") from exc
    poly = PoincarePoly(tuple(coeffs))
    if poly.value_at_one != weyl_order(rs.family, rs.rank):
        raise InternalError("product formula does not sum to the Weyl group order")
    return poly


def poincare_from_degrees(degrees) -> PoincarePoly:
    """Poincare polynomial of a model with the given positive weight degrees.

    Degrees are the half-weights of the attracting-cell coordinates (deg v = 1
    convention).  Not every degree list yields a polynomial; a remainder means
    the degrees do not come from a regular projective model.  The degrees may
    sum to at most MAX_DEGREE_SUM.
    """
    ds = []
    for d in degrees:
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise InputError("degrees must be positive integers")
        ds.append(d)
    if sum(ds) > MAX_DEGREE_SUM:
        raise InputError(f"degrees must sum to at most {MAX_DEGREE_SUM}")
    try:
        coeffs = _product_formula(ds)
    except ArithmeticError as exc:
        raise InputError(f"degrees {ds} do not come from a regular action: {exc}") from exc
    if any(c < 0 for c in coeffs):
        raise InputError(f"degrees {ds} do not come from a regular action: "
                         "negative coefficient in the expanded product")
    return PoincarePoly(tuple(coeffs))


_ORACLES = ("WEYL_ENUMERATION_GUARD", "weyl_length_genfun")


def __getattr__(name):
    if name in _ORACLES:  # loaded on first use, so no CLI run compiles them
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
