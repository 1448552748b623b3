"""The coordinate ring of the fixed-point curve, realized as a graded
subalgebra of the tuple ring.

Restriction to the r components identifies the ring with the subalgebra of
(+) Q[v] generated by the all-ones degree-1 tuple (the image of v, from the
Q[v]-module structure given by the projection to the parameter line) together
with one degree-d_i tuple per chart coordinate, whose j-th entry is the
monomial coefficient of that coordinate on component j.

A torus-invariant subvariety enters only through its fixed-point subset S:
all the quantities computed here depend on the subvariety only through the
sub-curve over S.
"""

from __future__ import annotations

from typing import Iterable

from .action import ActionModel, CurveComponent, big_cell_degrees, component_parametrization
from .errors import InputError, InternalError
from .exactalg import GradedSubalgebra, HomTuple
from .record import Record


class CurveRing(Record, frozen=False):
    model: ActionModel
    components: tuple[CurveComponent, ...]
    algebra: GradedSubalgebra

    @property
    def r(self) -> int:
        return self.model.n + 1


def default_degree_bound(cr: CurveRing) -> int:
    """First degree D with V_D = Q^r; degrees 0..D decide every answer.

    v is a generator, so the slices form a chain and stay full from D on.  A
    generic linear form in the charts separates the r curve points at v = 1,
    so its powers span Q^r by degree (r - 1) * max d_i (Vandermonde), where
    the scan stops.  For every validated model D = n.
    """
    cap = (cr.r - 1) * max(g.degree for g in cr.algebra.generators)
    for d in range(cap + 1):
        if cr.algebra.hilbert_function(d)[-1] == cr.r:
            return d
    raise InternalError(f"curve ring did not reach full rank by degree {cap}")


def build_curve_ring(model: ActionModel) -> CurveRing:
    """Assemble the curve ring of a validated model from its parametrizations."""
    r = model.n + 1
    comps = tuple(component_parametrization(model, j) for j in range(1, r + 1))
    degrees = big_cell_degrees(model)
    gens = [HomTuple.ones(r, 1)]
    for i, d in enumerate(degrees):
        gens.append(HomTuple(d, tuple(comp.chart_coords[i].coeff(d) for comp in comps)))
    cr = CurveRing(model, comps, GradedSubalgebra(r, gens))
    default_degree_bound(cr)  # raises InternalError if full rank is never reached
    return cr


def betti_numbers(cr: CurveRing, max_degree: int | None = None) -> list[int]:
    """Betti numbers via the quotient by (v): entry d is dim H^{2d}.

    The quotient dimensions are successive differences of the Hilbert
    function; trailing zeros are stripped once the algebra has stabilized, and
    the entries always sum to the number of fixed points.
    """
    bound = default_degree_bound(cr) if max_degree is None else int(max_degree)
    hil = cr.algebra.hilbert_function(bound)
    if hil[-1] != cr.r:
        raise InputError(f"truncation degree {bound} too small: Hilbert function has "
                         "not stabilized at the fixed-point count")
    dims = cr.algebra.quotient_by_v_dims(bound)
    while dims and dims[-1] == 0:
        dims.pop()
    if sum(dims) != cr.r:
        raise InternalError("Betti numbers do not sum to the fixed-point count")
    return dims


def _positions(cr: CurveRing, subset: Iterable[int]) -> list[int]:
    labels = sorted(set(int(s) for s in subset))
    if not labels:
        raise InputError("fixed-point subset must be nonempty")
    if labels[0] < 1 or labels[-1] > cr.r:
        raise InputError(f"fixed-point labels must lie in 1..{cr.r}")
    return labels


def restrict(cr: CurveRing, subset: Iterable[int]) -> GradedSubalgebra:
    """Coordinate ring of the sub-curve over the given fixed-point labels.

    Projecting the generators of the ambient ring generates the whole
    restricted ring, because the sub-curve is closed in the ambient chart.
    """
    labels = _positions(cr, subset)
    pos = [lab - 1 for lab in labels]
    gens = [g.project(pos) for g in cr.algebra.generators]
    return GradedSubalgebra(len(labels), gens)


def ideal_hilbert(cr: CurveRing, subset: Iterable[int],
                  max_degree: int | None = None) -> list[int]:
    """Dimensions of the ideal of the sub-curve over the subset, per degree.

    The dimensions are non-decreasing and stabilize at r - |subset|, the rank
    of the ideal over Q[v], by the default degree, where V_d = Q^r.
    """
    labels = _positions(cr, subset)
    bound = default_degree_bound(cr) if max_degree is None else int(max_degree)
    return [len(cr.algebra.kernel_basis(labels, d)) for d in range(bound + 1)]
