"""Exact checks kept as oracles for the closed forms; no CLI run imports them.

check_fixed_point_return tests points of the curve against the unipotent
flow, and sl2_family_checks verifies the 2x2 identities behind the family of
conjugated tori.  Both stay importable from `borelcurve.action`, which
re-exports them on first access (PEP 562).
"""

from __future__ import annotations

from fractions import Fraction

from .action import ActionModel, _mat_mul, component_parametrization
from .errors import InputError, InternalError
from .poly import Poly
from .rational import to_fraction


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
        term = tuple(s / k * x for (x,) in _mat_mul(model.e_matrix, tuple(zip(term))))
        image = [a + b for a, b in zip(image, term)]
    nonzero = [i for i, val in enumerate(image) if val != 0]
    return len(nonzero) == 1 and nonzero[0] == j - 1


def _limit_at_zero(num: Poly, den: Poly) -> Fraction:
    """Exact limit of num(v)/den(v) as v -> 0, cancelling the common power of v."""
    if den.is_zero():
        raise InternalError("limit of division by the zero polynomial")
    dv = den.valuation()
    if any(num.coeffs[:dv]):
        raise InternalError("pole at v = 0; limit does not exist")
    return num.coeff(dv) / den.coeffs[dv]


def sl2_family_checks() -> dict[str, str]:
    """Verify the exact 2x2 identities behind the family of conjugated tori.

    (i)   phi(1/v) diag(a, 1/a) phi(-1/v) equals the upper-triangular matrix
          with off-diagonal entry (1 - a^2)/(a v), for all nonzero a and v;
    (ii)  phi(u) W phi(-u) = W - 2u N for W = diag(1,-1), N the nilpotent
          generator, hence s(v) = v * Ad(phi(1/v)) W = v W - 2 N spans the
          Lie algebra of the conjugated torus for v != 0;
    (iii) along a = +-(1 + eps v) the matrices of (i) converge, as v -> 0, to
          unipotent upper-triangular limits up to sign (sampled eps values),
          and s(0) = -2N lies in the Lie algebra of the unipotent group.

    (i) and (ii) are checked over Q at three nonzero values of each variable,
    which proves them exactly.  The entries of phi(+-1/v) lie in {0, 1, +-1/v}
    and those of diag(a, 1/a) in {0, a, 1/a}, so a v^2 times either side of
    (i) is a polynomial of degree <= 2 in a and in v.  Either side of
    phi(u) W phi(-u) = W - 2u N, and u times either side of
    u Ad(phi(1/u)) W = u W - 2 N, has degree <= 2 in u.  A polynomial of
    degree <= 2 in one variable with three roots is zero; applied one
    variable at a time, the grid leaves every difference zero.

    Raises InternalError on any failure; these are exact identities.
    """
    report: dict[str, str] = {}
    grid = (Fraction(1), Fraction(2), Fraction(3))
    w_mat = ((1, 0), (0, -1))

    def phi(entry):
        return ((1, entry), (0, 1))

    for a in grid:
        for v in grid:
            lhs = _mat_mul(_mat_mul(phi(1 / v), ((a, 0), (0, 1 / a))), phi(-1 / v))
            if lhs != ((a, (1 - a * a) / (a * v)), (0, 1 / a)):
                raise InternalError("torus conjugation identity failed")
    report["torus_conjugation_identity"] = "ok"

    for u in grid:
        if _mat_mul(_mat_mul(phi(u), w_mat), phi(-u)) != ((1, -2 * u), (0, -1)):
            raise InternalError("phi(u) W phi(-u) != W - 2u N")
        conj = _mat_mul(_mat_mul(phi(1 / u), w_mat), phi(-1 / u))
        if tuple(tuple(u * entry for entry in row) for row in conj) != ((u, -2), (0, -u)):
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
            # so the limit matrix [[sign, lim], [0, sign]] is sign * unipotent
    report["family_limits_unipotent_up_to_sign"] = "ok"

    s_zero = tuple(tuple(entry(0) for entry in row)
                   for row in ((Poly.variable(), Poly.const(-2)),
                               (Poly(), -Poly.variable())))
    if s_zero != ((Fraction(0), Fraction(-2)), (Fraction(0), Fraction(0))):
        raise InternalError("s(0) != -2N")
    report["s_at_zero_in_unipotent_lie_algebra"] = "ok"
    return report
