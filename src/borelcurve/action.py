"""Regular Borel actions on projective space and exact curve parametrizations.

A model on P^n is a pair (h, e): an integer diagonal h (so the torus acts by
lambda(t) = diag(t^h_0, ..., t^h_n)) and a nilpotent matrix e with [h, e] = 2e
and a single Jordan block.  The unipotent one-parameter group is
phi(s) = exp(s e).  Single-block e is exactly regularity: the unipotent group
fixes only the first coordinate point o, and the torus fixes the n+1
coordinate points.  Models are normalized so h is strictly decreasing, which
makes o the attracting point of lambda(t) as t -> infinity and chart
coordinates quasi-homogeneous of positive degrees d_i = (h_0 - h_i)/2.
`validate` alone reads a spec: each entry of an explicit e once, before the
weights, and the "principal" shorthand only once n and the weights pass.

Normal form.  With the weights sorted and distinct, [h, e] = 2e lets e_ij be
nonzero only where h_j = h_i - 2, so each row and each column of e holds at
most one nonzero entry and rank e is the number of nonzero entries.  Rank n
needs a partner for every row but the last; the partner map i -> j is
injective and order-preserving with j > i, hence j = i + 1.  So every
validated model has weights h_0, h_0 - 2, ..., h_0 - 2n and e is the
superdiagonal with nonzero entries a_0, ..., a_{n-1} (a_t = e[t][t+1]).

The fixed-point curve has one component per fixed point: the closure of
v |-> phi(1/v) . zeta_j.  In the normal form exp(s e)_{iJ} =
s^{J-i} a_i...a_{J-1} / (J-i)! for i <= J, so after clearing v^J the J-th
column (J = j - 1) has homogeneous coordinates (a_i...a_{J-1} / (J-i)!) v^i,
exact monomials, and its chart coordinates (ratios against the constant
o-coordinate) are c_ij v^{d_i} with d_i = i.  exp_e computes the flow
directly and is kept as the independent oracle for this closed form; the
other oracles live in `oracles` and are re-exported here on first access.
The curve ring needs no parametrization: it reads the a_t off the normal
form (curve.build_curve_ring).  So only component_parametrization loads the
polynomials of `poly`, when it runs; exp_e works over Q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import InputError, InternalError, Record, to_int
from .rational import (Matrix, _as_list, _as_matrix, _as_object, _mat_mul, format_fraction,
                       to_fraction)

if TYPE_CHECKING:  # loaded by component_parametrization, when it runs
    from .poly import Poly

_ZERO, _ONE = Fraction(0), Fraction(1)


class ActionModel(Record):
    """Raw model data (e_matrix may be "principal"); validate() checks and normalizes it."""

    n: int
    h_weights: tuple[int, ...]
    e_matrix: Matrix

    @property
    def r(self) -> int:  # the number of torus-fixed points
        return self.n + 1


class CurveComponent(Record):
    """Exact parametrization of one component of the fixed-point curve.

    chart_coords[i-1] is the i-th big-cell coordinate of phi(1/v) . zeta_index,
    always a monomial c * v^{degrees[i-1]} (zero for the component over o).
    homog_coords is the projective lift with constant o-coordinate.
    """

    index: int
    chart_coords: tuple[Poly, ...]
    degrees: tuple[int, ...]
    homog_coords: tuple[Poly, ...]

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "degrees": list(self.degrees),
            "chart_coords": [[format_fraction(c) for c in p.coeffs] for p in self.chart_coords],
            "homogeneous_coords": [[format_fraction(c) for c in p.coeffs]
                                   for p in self.homog_coords],
        }


def validate(model: ActionModel) -> ActionModel:
    """Check regularity and normalize coordinate order.

    Verifies [h, e] = 2e and dim ker e = 1 (single Jordan block), and reorders
    coordinates so h is strictly decreasing.  Idempotent.  Once the
    commutation check passes, e has at most one nonzero entry per row and per
    column, so its rank is its number of nonzero entries.
    """
    n = to_int(model.n, 0, name="dimension n")
    r = n + 1
    principal = model.e_matrix == "principal"
    e = model.e_matrix if principal else _as_matrix(model.e_matrix, r)
    h = [to_int(w) for w in _as_list(model.h_weights)]
    if len(h) != r:
        raise InputError(f"h_weights must have length n+1 = {r}")
    if len(set(h)) != r:
        raise InputError("repeated h-weights: torus fixed points are not isolated")
    if principal:  # row i: the window of `line` with its 1 at column i + 1
        line = (_ZERO,) * r + (_ONE,) + (_ZERO,) * r
        e = tuple(line[r - 1 - i:2 * r - 1 - i] for i in range(r))

    order = sorted(range(r), key=lambda i: -h[i])
    h_sorted = tuple(h[i] for i in order)
    e_sorted = tuple(tuple(map(e[i].__getitem__, order)) for i in order)

    # row i may be nonzero only in the column of weight h_i - 2, if there is one
    column = {w: j for j, w in enumerate(h_sorted)}
    rank = 0
    for w, row in zip(h_sorted, e_sorted):
        nonzero = r - row.count(_ZERO)  # identity first: the shared zero costs no __eq__
        j = column.get(w - 2)
        if nonzero > 1 or nonzero and (j is None or row[j] == 0):
            raise InputError("commutation failure: [h, e] != 2e")
        rank += nonzero
    if rank != n:
        raise InputError(f"not regular: dim ker e = {r - rank}, expected 1")
    return ActionModel(n, h_sorted, e_sorted)


def principal_model(n: int) -> ActionModel:
    """The standard model on P^n: h = (n, n-2, ..., -n), e the Jordan block."""
    return model_from_json({"n": n, "h_weights": [n - 2 * i for i in range(n + 1)],
                            "e_matrix": "principal"})


def model_from_json(data: dict) -> ActionModel:
    """Parse {"n":, "h_weights":, "e_matrix":} (e_matrix may be "principal")."""
    data = _as_object(data, "action")
    try:
        model = ActionModel(to_int(data["n"]), data["h_weights"], data["e_matrix"])
    except (KeyError, ValueError) as exc:
        raise InputError(f"bad action spec: {exc}") from exc
    return validate(model)


def exp_e(model: ActionModel, s) -> Matrix:
    """exp(s * e) at a rational s, as an exact matrix; a finite sum since e is nilpotent."""
    s = to_fraction(s)
    r = model.n + 1
    term = tuple(tuple(_ONE if i == j else _ZERO for j in range(r)) for i in range(r))
    out = term
    for k in range(1, r):  # term = (s e)^k / k!
        term = tuple(tuple(x * s / k for x in row) for row in _mat_mul(term, model.e_matrix))
        out = tuple(tuple(a + b for a, b in zip(p, q)) for p, q in zip(out, term))
    return out


def fixed_points(model: ActionModel) -> list[tuple[int, ...]]:
    """The n+1 torus-fixed coordinate points, ordered by decreasing h-weight."""
    r = model.n + 1
    return [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]


def big_cell_degrees(model: ActionModel) -> list[int]:
    """Quasi-homogeneous degrees d_i = (h_0 - h_i)/2 of the chart coordinates."""
    h = model.h_weights
    out = []
    for i in range(1, model.n + 1):
        diff = h[0] - h[i]
        if diff <= 0 or diff % 2 != 0:
            raise InternalError("h-weight parity violation; model was not validated")
        out.append(diff // 2)
    return out


def component_parametrization(model: ActionModel, j: int) -> CurveComponent:
    """Exact parametrization of the curve component over the j-th fixed point.

    phi(1/v) . zeta_j is the j-th column of exp(e/v).  In the normal form of a
    validated model (module docstring) that column, cleared by v^J with
    J = j - 1, is homog_i = (a_i...a_{J-1} / (J-i)!) v^i for i <= J and 0
    for i > J.  The o-coordinate homog_0 = a_0...a_{J-1} / J! is a nonzero
    constant, so the component lies in the big cell for v != 0, and each chart
    coordinate homog_i / homog_0 is a monomial of degree d_i = i.
    """
    from .poly import Poly
    r = model.n + 1
    J = to_int(j, 1, r, "component index") - 1
    e = model.e_matrix
    coeffs = [Fraction(0)] * r
    coeffs[J] = Fraction(1)
    for i in range(J - 1, -1, -1):  # coeffs[i] = a_i...a_{J-1} / (J-i)!
        coeffs[i] = coeffs[i + 1] * e[i][i + 1] / (J - i)
    homog = tuple(Poly.monomial(coeffs[i], i) for i in range(r))
    charts = tuple(Poly.monomial(coeffs[i] / coeffs[0], i) for i in range(1, r))
    return CurveComponent(j, charts, tuple(big_cell_degrees(model)), homog)


_ORACLES = ("check_fixed_point_return", "sl2_family_checks")


def __getattr__(name):
    if name in _ORACLES:  # loaded on first use, so no CLI run compiles them
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
