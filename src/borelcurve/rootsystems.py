"""Root-system tables and Poincare-polynomial product formulas.

Positive roots are kept as integer vectors in a standard orthogonal
realization (F4 is scaled by 2 to stay integral; scaling does not change
reflections or simple-root coefficients).  The height of a root is the sum of
its coefficients over the simple roots; it is read off Kostant's principal
h = 2 rho^v, which pairs to 2 with every simple root, as the integer pairing
ht(a) = a(h)/2 = sum_{b > 0} (a, b)/(b, b), without solving a linear system.

km_poincare evaluates the Kostant-Macdonald product over positive-root
heights,

    prod_{a > 0} (1 - t^(ht(a)+1)) / (1 - t^(ht(a))),

with exact polynomial division.  The rank check, `PoincarePoly`, the product
formula and `poincare_from_degrees` live in `exponents` and are imported back
here.  The CLI reads its answers off the exponent table there; these root
tables, the height pairing and the classical root counts and Weyl group
orders are the independent oracle for it.  weyl_length_genfun recounts the
same polynomial by walking the Weyl group on the Cartan integers of a
regular weight.  Everything here is integer arithmetic.
"""

from __future__ import annotations

from math import factorial
from operator import mul

from .errors import InputError, InternalError, Record
from .exponents import MAX_DEGREE_SUM, MAX_RANK, poincare_from_degrees  # noqa: F401
from .exponents import PoincarePoly, _product_formula, exponents


class RootSystem(Record):
    family: str
    rank: int
    simple_roots: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]


def _unit(dim: int, i: int, scale: int = 1) -> tuple[int, ...]:
    return tuple(scale * (k == i) for k in range(dim))


def _pairs(dim: int, signs=(-1, 1), scale: int = 1) -> list[tuple[int, ...]]:
    """scale * (e_i + s e_j) for i < j, each sign s in turn."""
    return [tuple(scale * ((k == i) + s * (k == j)) for k in range(dim))
            for i in range(dim) for j in range(i + 1, dim) for s in signs]


def _chain(dim: int, count: int) -> list[tuple[int, ...]]:
    """The simple roots e_i - e_{i+1} for i < count."""
    return [tuple((k == i) - (k == i + 1) for k in range(dim)) for i in range(count)]


# Each builder maps the rank n to (simple roots, positive roots).


def _type_a(n):
    return _chain(n + 1, n), _pairs(n + 1, (-1,))


def _type_b(n):
    return _chain(n, n - 1) + [_unit(n, n - 1)], [_unit(n, i) for i in range(n)] + _pairs(n)


def _type_c(n):
    return (_chain(n, n - 1) + [_unit(n, n - 1, 2)],
            [_unit(n, i, 2) for i in range(n)] + _pairs(n))


def _type_d(n):
    pos = _pairs(n)
    return _chain(n, n - 1) + [pos[-1]], pos  # pos[-1] = e_{n-2} + e_{n-1}


def _type_g2(n):
    a, b = (1, -1, 0), (-2, 1, 1)
    return [a, b], [tuple(i * x + j * y for x, y in zip(a, b))
                    for i, j in ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))]


def _type_f4(n):
    # realization scaled by 2 so the half-sum roots stay integral
    simple = [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    halves = [(1, s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    return simple, [_unit(4, i, 2) for i in range(4)] + _pairs(4, scale=2) + halves


# family: (positive-root count, Weyl group order, builder); the count and the
# order are the classical functions of the rank, independent of the exponents
_FAMILIES = {
    "A": (lambda n: n * (n + 1) // 2, lambda n: factorial(n + 1), _type_a),
    "B": (lambda n: n * n, lambda n: 2**n * factorial(n), _type_b),
    "C": (lambda n: n * n, lambda n: 2**n * factorial(n), _type_c),
    "D": (lambda n: n * (n - 1), lambda n: 2 ** (n - 1) * factorial(n), _type_d),
    "G2": (lambda n: 6, lambda n: 12, _type_g2),
    "F4": (lambda n: 24, lambda n: 1152, _type_f4),
}


def _family(family: str, rank: int):
    """The table row of a supported family at a rank it has; the InputError of
    `exponents.exponents` otherwise."""
    exponents(family, rank)
    return _FAMILIES[family]


def positive_roots(family: str, rank: int) -> RootSystem:
    """Complete positive-root list in the standard integer realization."""
    count, _, build = _family(family, rank)
    simple, pos = build(rank)
    if len(pos) != count(rank):
        raise InternalError("positive root count does not match the classical value")
    return RootSystem(family, rank, tuple(simple), tuple(pos))


def weyl_order(family: str, rank: int) -> int:
    """Order of the Weyl group; the same InputError as positive_roots otherwise."""
    return _family(family, rank)[1](rank)


def heights(rs: RootSystem) -> list[int]:
    """Height of each positive root: sum of its simple-root coefficients.

    Kostant's principal h = 2 rho^v pairs to 2 with every simple root, so
    ht(a) = a(h)/2 = sum_{b > 0} (a, b)/(b, b) = (a, p)/L over int, with L
    the largest (b, b), which every (b, b) divides, and p = sum_b (L/(b, b)) b.
    A length that does not divide L, a height that is not a positive integer,
    or a simple root not at height 1 breaks the table.
    """
    norms = [sum(map(mul, b, b)) for b in rs.positive_roots]
    longest = max(norms)
    for b, n in zip(rs.positive_roots, norms):
        if longest % n:
            raise InternalError(f"squared length {n} of root {b} does not divide {longest}")
    p = [sum(longest // n * x for n, x in zip(norms, col)) for col in zip(*rs.positive_roots)]

    def height(a):
        h, rem = divmod(sum(map(mul, a, p)), longest)
        if rem or h < 1:
            raise InternalError(f"root {a} has height {h * longest + rem}/{longest}, "
                                "not a positive integer")
        return h

    for a in rs.simple_roots:
        if height(a) != 1:
            raise InternalError(f"simple root {a} is not at height 1")
    return [height(a) for a in rs.positive_roots]


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


# Weyl-group enumeration, the oracle for the Kostant-Macdonald product

WEYL_ENUMERATION_GUARD = 10**6


def weyl_length_genfun(family: str, rank: int) -> PoincarePoly:
    """Length generating function of the Weyl group by enumeration.

    An element w is kept as the integers p_k = <w rho, a_k^v> over the simple
    coroots: they start at (1, ..., 1), and s_k subtracts p_k times row k of
    the Cartan matrix, <a_k, a_j^v> = 2(a_k, a_j)/(a_j, a_j).  s_k w is one
    step longer than w exactly when p_k > 0.  Every w != 1 has a negative
    entry, and is reached once, from its parent s_k w with k its first
    negative entry, so the walk keeps no record of elements already seen.
    """
    rs = positive_roots(family, rank)
    order = weyl_order(family, rank)
    if order > WEYL_ENUMERATION_GUARD:
        raise InputError(f"Weyl group of order {order} exceeds the enumeration "
                         f"guard {WEYL_ENUMERATION_GUARD}")
    cartan = []
    for a in rs.simple_roots:
        row = []
        for b in rs.simple_roots:
            c, rem = divmod(2 * sum(map(mul, a, b)), sum(map(mul, b, b)))
            if rem:
                raise InternalError(f"2(a, b)/(b, b) is not an integer for a = {a}, b = {b}")
            row.append(c)
        cartan.append(row)
    counts = [0] * (len(rs.positive_roots) + 1)
    stack = [((1,) * len(cartan), 0)]
    while stack:
        p, length = stack.pop()
        counts[length] += 1
        for k, (pk, row) in enumerate(zip(p, cartan)):
            if pk > 0:  # s_k w is one step longer
                q = tuple([x - pk * c for x, c in zip(p, row)])
                if k == 0 or min(q[:k]) > 0:  # k is the first negative entry of q
                    stack.append((q, length + 1))
    if sum(counts) != order:
        raise InternalError("Weyl enumeration produced the wrong group order")
    return PoincarePoly(tuple(counts))
