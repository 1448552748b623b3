"""Exact checks kept as oracles for the closed forms; no CLI run imports them.

check_fixed_point_return tests points of the curve against the unipotent
flow, and sl2_family_checks verifies the 2x2 identities behind the family of
conjugated tori.  Both stay importable from `borelcurve.action`, which
re-exports them on first access (PEP 562).  weyl_length_genfun enumerates
the Weyl group to recount the Kostant-Macdonald polynomial; it and its guard
stay importable from `borelcurve.rootsystems` the same way.
"""

from __future__ import annotations

from fractions import Fraction

from .action import ActionModel, component_parametrization
from .errors import InputError, InternalError
from .rational import Poly, to_fraction
from .rootsystems import PoincarePoly, positive_roots, weyl_order

WEYL_ENUMERATION_GUARD = 10**6


def _mat_vec(a, x):
    return tuple(sum((row[j] * x[j] for j in range(len(x))), start=Fraction(0)) for row in a)


def check_fixed_point_return(model: ActionModel, j: int, v0) -> bool:
    """Whether phi(-1/v0) sends the component-j point at parameter v0 to zeta_j.

    This is the defining membership test for points of the curve at nonzero
    parameters: the inverse unipotent flow must land exactly on a torus-fixed
    coordinate point.  The flow is applied to the one point as the finite
    series sum_k (s e)^k / k! . x with s = -1/v0, without building exp(s e).
    """
    v0 = to_fraction(v0)
    if v0 == 0:
        raise InputError("parameter must be nonzero")
    comp = component_parametrization(model, j)
    term = tuple(p(v0) for p in comp.homog_coords)
    image = list(term)
    s = Fraction(-1) / v0
    for k in range(1, model.n + 1):
        term = tuple(s / k * x for x in _mat_vec(model.e_matrix, term))
        image = [a + b for a, b in zip(image, term)]
    nonzero = [i for i, val in enumerate(image) if val != 0]
    return len(nonzero) == 1 and nonzero[0] == j - 1


# ---------------------------------------------------------------------------
# symbolic 2x2 checks for the family of conjugated tori


class _Laurent:
    """Laurent polynomials over Q in two commuting symbols (dict-backed).

    Just enough ring structure to verify 2x2 matrix identities exactly; the
    allowed inverses of the symbols make conjugation by phi(1/v) and diagonal
    tori representable without any division.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        for key, val in (terms or {}).items():
            f = to_fraction(val)
            if f != 0:
                data[(int(key[0]), int(key[1]))] = f
        self.terms = data

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def sym(cls, which: int, power: int = 1):
        key = (power, 0) if which == 0 else (0, power)
        return cls({key: 1})

    def _lift(self, other):
        if isinstance(other, _Laurent):
            return other
        if isinstance(other, (int, Fraction)):
            return _Laurent.const(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in o.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return _Laurent(out)

    __radd__ = __add__

    def __neg__(self):
        return _Laurent({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = {}
        for (a1, b1), v1 in self.terms.items():
            for (a2, b2), v2 in o.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return _Laurent(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __repr__(self):
        return f"_Laurent({self.terms!r})"


def _mul2(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _limit_at_zero(num: Poly, den: Poly) -> Fraction:
    """Exact limit of num(v)/den(v) as v -> 0, cancelling the common power of v."""
    if den.is_zero():
        raise InternalError("limit of division by the zero polynomial")
    dv = den.valuation()
    if num.is_zero():
        return Fraction(0)
    nv = num.valuation()
    if nv < dv:
        raise InternalError("pole at v = 0; limit does not exist")
    num2 = Poly(num.coeffs[dv:])
    den2 = Poly(den.coeffs[dv:])
    return num2(0) / den2(0)


def sl2_family_checks() -> dict[str, str]:
    """Verify the exact 2x2 identities behind the family of conjugated tori.

    (i)   phi(1/v) diag(a, 1/a) phi(-1/v) equals the upper-triangular matrix
          with off-diagonal entry (1 - a^2)/(a v), symbolically in a and v;
    (ii)  phi(u) W phi(-u) = W - 2u N for W = diag(1,-1), N the nilpotent
          generator, hence s(v) = v * Ad(phi(1/v)) W = v W - 2 N spans the
          Lie algebra of the conjugated torus for v != 0;
    (iii) along a = +-(1 + eps v) the matrices of (i) converge, as v -> 0, to
          unipotent upper-triangular limits up to sign (sampled eps values),
          and s(0) = -2N lies in the Lie algebra of the unipotent group.

    Raises InternalError on any failure; these are exact identities.
    """
    report: dict[str, str] = {}
    L = _Laurent
    one, zero, two = L.const(1), L.const(0), L.const(2)
    a, a_inv = L.sym(0), L.sym(0, -1)
    v, v_inv = L.sym(1), L.sym(1, -1)

    def phi(entry):
        return ((one, entry), (zero, one))

    w_mat = ((one, zero), (zero, -one))
    n_mat = ((zero, one), (zero, zero))

    torus = ((a, zero), (zero, a_inv))
    lhs = _mul2(_mul2(phi(v_inv), torus), phi(-v_inv))
    rhs = ((a, (one - a * a) * a_inv * v_inv), (zero, a_inv))
    if lhs != rhs:
        raise InternalError("torus conjugation identity failed")
    report["torus_conjugation_identity"] = "ok"

    u = L.sym(0)
    lhs2 = _mul2(_mul2(phi(u), w_mat), phi(-u))
    rhs2 = ((one, -(two * u)), (zero, -one))
    if lhs2 != rhs2:
        raise InternalError("phi(u) W phi(-u) != W - 2u N")
    conj = _mul2(_mul2(phi(v_inv), w_mat), phi(-v_inv))
    s_v = tuple(tuple(v * entry for entry in row) for row in conj)
    expected = ((v, L.const(-2)), (zero, -v))
    if s_v != expected:
        raise InternalError("v * Ad(phi(1/v)) W != v W - 2 N")
    report["trace_section_identity"] = "ok"

    for eps in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 5)):
        for sign in (1, -1):
            a_of_v = Poly((Fraction(sign), sign * eps))  # sign * (1 + eps v)
            num = Poly.const(1) - a_of_v * a_of_v
            den = a_of_v * Poly.variable()
            lim = _limit_at_zero(num, den)
            if lim != Fraction(-2) * eps / sign:
                raise InternalError("family limit has the wrong off-diagonal entry")
            # the limit matrix [[sign, lim], [0, sign]] is sign * unipotent
            if sign * lim != Fraction(-2) * eps:
                raise InternalError("family limit is not unipotent up to sign")
    report["family_limits_unipotent_up_to_sign"] = "ok"

    s_zero = tuple(tuple(entry(0) if isinstance(entry, Poly) else entry for entry in row)
                   for row in ((Poly.variable(), Poly.const(-2)),
                               (Poly(), -Poly.variable())))
    if s_zero != ((Fraction(0), Fraction(-2)), (Fraction(0), Fraction(0))):
        raise InternalError("s(0) != -2N")
    report["s_at_zero_in_unipotent_lie_algebra"] = "ok"
    return report


# ---------------------------------------------------------------------------
# Weyl-group enumeration, the oracle for the Kostant-Macdonald product


def weyl_length_genfun(family: str, rank: int) -> PoincarePoly:
    """Length generating function of the Weyl group by brute-force enumeration.

    The group is generated by the simple reflections acting on the realization;
    elements are identified with their image of the (regular) sum of positive
    roots, and breadth-first levels count elements by length.
    """
    rs = positive_roots(family, rank)
    order = weyl_order(family, rank)
    if order > WEYL_ENUMERATION_GUARD:
        raise InputError(f"Weyl group of order {order} exceeds the enumeration "
                         f"guard {WEYL_ENUMERATION_GUARD}")
    simples = rs.simple_roots
    norms = [sum(c * c for c in s) for s in simples]
    start = tuple(sum(root[i] for root in rs.positive_roots) for i in range(len(simples[0])))
    seen = {start}
    frontier = [start]
    counts = [1]
    while frontier:
        nxt = []
        for x in frontier:
            for s, ns in zip(simples, norms):
                c, rem = divmod(2 * sum(a * b for a, b in zip(x, s)), ns)
                if rem:
                    raise InternalError(f"2(x, s)/(s, s) is not an integer for x = {x}, "
                                        f"s = {s}")
                y = tuple(a - c * b for a, b in zip(x, s))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if nxt:
            counts.append(len(nxt))
        frontier = nxt
    if len(seen) != order:
        raise InternalError("Weyl enumeration produced the wrong group order")
    return PoincarePoly(tuple(counts))
