"""Regular Borel actions on projective space and exact curve parametrizations.

A model on P^n is a pair (h, e): an integer diagonal h (so the torus acts by
lambda(t) = diag(t^h_0, ..., t^h_n)) and a nilpotent matrix e with [h, e] = 2e
and a single Jordan block.  The unipotent one-parameter group is
phi(s) = exp(s e).  Single-block e is exactly regularity: the unipotent group
fixes only the first coordinate point o, and the torus fixes the n+1
coordinate points.  Models are normalized so h is strictly decreasing, which
makes o the attracting point of lambda(t) as t -> infinity and chart
coordinates quasi-homogeneous of positive degrees d_i = (h_0 - h_i)/2.

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
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, InternalError
from .rational import Poly, format_fraction, to_fraction, to_int
from .record import Record

Matrix = tuple[tuple[Fraction, ...], ...]


class ActionModel(Record):
    """Raw model data; run validate() to check regularity and normalize."""

    n: int
    h_weights: tuple[int, ...]
    e_matrix: Matrix


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


def _mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(k)), start=Fraction(0))
                       for j in range(m)) for i in range(n))


def _as_list(x):
    if not isinstance(x, (list, tuple)):
        raise InputError(f"expected a list, got {x!r}")
    return x


def _as_matrix(rows, size: int) -> Matrix:
    m = tuple(tuple(to_fraction(x) for x in _as_list(row)) for row in _as_list(rows))
    if len(m) != size or any(len(row) != size for row in m):
        raise InputError(f"expected a {size}x{size} matrix")
    return m


def validate(model: ActionModel) -> ActionModel:
    """Check regularity and normalize coordinate order.

    Verifies [h, e] = 2e and dim ker e = 1 (single Jordan block), and reorders
    coordinates so h is strictly decreasing.  Idempotent.  Once the
    commutation check passes, e has at most one nonzero entry per row and per
    column, so its rank is its number of nonzero entries.
    """
    n = to_int(model.n)
    if n < 0:
        raise InputError("dimension n must be non-negative")
    r = n + 1
    h = [to_int(w) for w in model.h_weights]
    if len(h) != r:
        raise InputError(f"h_weights must have length n+1 = {r}")
    if len(set(h)) != r:
        raise InputError("repeated h-weights: torus fixed points are not isolated")
    e = _as_matrix(model.e_matrix, r)

    order = sorted(range(r), key=lambda i: -h[i])
    h_sorted = tuple(h[i] for i in order)
    e_sorted = tuple(tuple(e[order[i]][order[j]] for j in range(r)) for i in range(r))

    for i in range(r):
        for j in range(r):
            if e_sorted[i][j] != 0 and h_sorted[i] - h_sorted[j] != 2:
                raise InputError("commutation failure: [h, e] != 2e")
    rank = sum(1 for row in e_sorted for x in row if x != 0)
    if rank != n:
        raise InputError(f"not regular: dim ker e = {r - rank}, expected 1")
    return ActionModel(n, h_sorted, e_sorted)


def principal_model(n: int) -> ActionModel:
    """The standard model on P^n: h = (n, n-2, ..., -n), e the Jordan block."""
    if n < 0:
        raise InputError("dimension n must be non-negative")
    h = tuple(n - 2 * i for i in range(n + 1))
    e = tuple(tuple(Fraction(1) if j == i + 1 else Fraction(0) for j in range(n + 1))
              for i in range(n + 1))
    return validate(ActionModel(n, h, e))


def model_from_json(data: dict) -> ActionModel:
    """Parse {"n":, "h_weights":, "e_matrix":} (e_matrix may be "principal")."""
    try:
        n = to_int(data["n"])
        h = tuple(data["h_weights"])
        e_spec = data["e_matrix"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad action spec: {exc}") from exc
    if e_spec == "principal":  # sized by h, so a huge n cannot allocate
        e = tuple(tuple(Fraction(1) if j == i + 1 else Fraction(0) for j in range(len(h)))
                  for i in range(len(h)))
    else:
        e = _as_matrix(e_spec, n + 1)
    return validate(ActionModel(n, h, e))


def model_to_json(model: ActionModel) -> dict:
    return {
        "n": model.n,
        "h_weights": list(model.h_weights),
        "e_matrix": [[format_fraction(x) for x in row] for row in model.e_matrix],
    }


def exp_e(model: ActionModel, s):
    """exp(s * e) as an exact matrix; a finite sum since e is nilpotent.

    s may be a rational scalar or a Poly, and the entries come back in the
    same ring.
    """
    r = model.n + 1
    if isinstance(s, Poly):
        one, zero = Poly.const(1), Poly()
    else:
        s = to_fraction(s)
        one, zero = Fraction(1), Fraction(0)
    out = [[one if i == j else zero for j in range(r)] for i in range(r)]
    power = tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(r))
                  for i in range(r))  # e^k / k!
    s_pow = one
    for k in range(1, r):
        power = tuple(tuple(entry * Fraction(1, k) for entry in row)
                      for row in _mat_mul(power, model.e_matrix))
        s_pow = s_pow * s
        for i in range(r):
            for j in range(r):
                if power[i][j] != 0:
                    out[i][j] = out[i][j] + s_pow * power[i][j]
    return tuple(tuple(row) for row in out)


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
    r = model.n + 1
    if not 1 <= j <= r:
        raise InputError(f"component index must lie in 1..{r}")
    J = j - 1
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
