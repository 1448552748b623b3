"""The coordinate ring of the fixed-point curve, realized as a graded
subalgebra of the tuple ring.

Restriction to the r components identifies the ring with the subalgebra of
(+) Q[v] generated by the all-ones degree-1 tuple (the image of v, from the
Q[v]-module structure given by the projection to the parameter line) together
with one degree-d_i tuple per chart coordinate, whose j-th entry is the
monomial coefficient of that coordinate on component j.  The normal form of
a validated action makes this ring the polynomials in one variable on the
nodes 0..n, so every slice question has a closed-form answer (NodeAlgebra),
and its generators are read off the superdiagonal of e, with no
parametrization built.

A torus-invariant subvariety enters only through its fixed-point subset S:
all the quantities computed here depend on the subvariety only through the
sub-curve over S.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .action import ActionModel, big_cell_degrees
from .action import component_parametrization  # noqa: F401  bench/test_bench.py patches it here
from .errors import InputError, InternalError, Record, labels, to_int
from .rational import HomTuple, degree_bound


class NodeAlgebra:
    """The curve ring in closed form: polynomials in one variable on integer nodes.

    For a validated model the degree-1 chart generator is x = c (0, 1, ..., n)
    with c != 0, and the chart generator of degree i is a polynomial of degree
    i in x (action module docstring: its entry at node J is the falling
    factorial J (J-1) ... (J-i+1) over a_0 ... a_(i-1)).  With v = (1, ..., 1)
    the degree-d slice V_d is therefore the space of polynomials of degree
    <= d evaluated at the nodes, here the 0-based positions of the components,
    and the restriction to a subset S is the same space on the nodes of S.
    So dim V_d = min(d + 1, r), the canonical RREF rows of V_d are the
    Lagrange basis polynomials on the first d + 1 nodes (on the nodes 0..n
    the integers delta_ij for j <= d and (-1)^(d-i) C(j, i) C(j-i-1, d-i) for
    j > d), and a tuple lies in V_d exactly when its divided differences of
    order > d vanish.  No slice is ever built.

    Its slice methods are those of GradedSubalgebra, which stays the oracle;
    betti_numbers and ideal_hilbert read the quotient and kernels off dim V_d.
    The generators, v and the chart generator of degree i with scale
    scales[i-1] = 1 / (a_0 ... a_(i-1)), are built once, on first read: O(r n)
    products, the size of what `curve ring` prints.
    """

    def __init__(self, nodes: Iterable[int], scales: Iterable[Fraction]):
        self.nodes = tuple(nodes)
        self.r = len(self.nodes)
        self.scales = tuple(scales)

    @cached_property
    def generators(self) -> tuple[HomTuple, ...]:
        """v, then J (J-1) ... (J-i+1) * scales[i-1] at each node J, for i = 1..n."""
        gens = [HomTuple.ones(self.r, 1)]
        falling = [1] * self.r
        for i, scale in enumerate(self.scales, 1):
            falling = [f * (J - i + 1) for J, f in zip(self.nodes, falling)]
            gens.append(HomTuple(i, [f * scale for f in falling]))
        return tuple(gens)

    def hilbert_function(self, max_degree: int) -> list[int]:
        """[dim V_0, ..., dim V_max_degree]."""
        to_int(max_degree, 0, name="degree bound")
        return [min(d + 1, self.r) for d in range(max_degree + 1)]

    def graded_basis(self, d: int) -> list[HomTuple]:
        """Canonical row-reduced basis of V_d: the Lagrange rows on nodes[:d+1]."""
        pivots = self.nodes[:to_int(d, 0, name="degree") + 1]

        def lagrange(s, x):  # the Lagrange polynomial of pivot node s, at x
            num = den = 1
            for t in pivots:
                if t != s:
                    num, den = num * (x - t), den * (s - t)
            return Fraction(num, den)

        return [HomTuple(d, [lagrange(s, x) for x in self.nodes]) for s in pivots]

    def _newton(self, coeffs, order: int) -> list[Fraction]:
        """The divided differences of the given order, one per window of
        order + 1 consecutive nodes."""
        nodes, table = self.nodes, list(coeffs)
        for k in range(1, order + 1):
            for j in range(self.r - 1, k - 1, -1):
                table[j] = (table[j] - table[j - 1]) / (nodes[j] - nodes[j - k])
        return table[order:]

    def member(self, t: HomTuple) -> bool:
        """Exact membership: the divided differences of order deg t + 1 vanish on
        every window.  Each window's interpolant then has degree <= deg t, and
        neighbouring windows share deg t + 1 nodes, so they share one interpolant."""
        if t.r != self.r:
            raise InputError("component-count mismatch")
        return t.degree + 1 >= self.r or not any(self._newton(t.coeffs, t.degree + 1))

    def coordinates(self, t: HomTuple) -> list[Fraction] | None:
        """Coefficients of t over graded_basis(t.degree), or None if not a member:
        its entries at the pivot nodes."""
        return list(t.coeffs[:t.degree + 1]) if self.member(t) else None


class CurveRing(Record):
    model: ActionModel
    algebra: NodeAlgebra

    @property
    def r(self) -> int:
        return self.model.r


def default_degree_bound(cr: CurveRing) -> int:
    """First degree D with V_D = Q^r; degrees 0..D decide every answer.

    v is in the ring, so the slices form a chain and stay full from D on;
    dim V_d = min(d + 1, r) (NodeAlgebra), so D = n.
    """
    return cr.r - 1


def build_curve_ring(model: ActionModel) -> CurveRing:
    """Assemble the curve ring of a validated model from its normal form.

    The degree-i generator is J (J-1) ... (J-i+1) / (a_0 ... a_(i-1)) at node
    J (NodeAlgebra), so the ring needs only the superdiagonal a_t = e[t][t+1]
    and no parametrization.  Checks in O(r) that the chart degrees are 1..n.
    """
    r = model.r
    degrees = big_cell_degrees(model)
    if degrees != list(range(1, r)):
        raise InternalError(f"chart degrees {degrees} are not 1..{r - 1}")
    scales, scale = [], Fraction(1)
    for t in range(r - 1):
        scale /= model.e_matrix[t][t + 1]
        scales.append(scale)
    return CurveRing(model, NodeAlgebra(range(r), scales))


def betti_numbers(cr: CurveRing, max_degree: int | None = None) -> list[int]:
    """Betti numbers, dim H^{2d} = dim V_d - dim V_(d-1) = 1 for d = 0..n (NodeAlgebra)."""
    n = default_degree_bound(cr)
    bound = degree_bound(max_degree, n)
    if bound < n:
        raise InputError(f"truncation degree {bound} too small: Hilbert function has "
                         "not stabilized at the fixed-point count")
    return [1] * cr.r


def restrict(cr: CurveRing, subset: Iterable[int]) -> NodeAlgebra:
    """Coordinate ring of the sub-curve over the given fixed-point labels.

    Projecting the generators of the ambient ring generates the whole
    restricted ring, because the sub-curve is closed in the ambient chart:
    the polynomials on the nodes of the subset, with the same scales.
    """
    subset = labels(subset, cr.r, "fixed-point labels")
    return NodeAlgebra((cr.algebra.nodes[lab - 1] for lab in subset), cr.algebra.scales)


def ideal_hilbert(cr: CurveRing, subset: Iterable[int],
                  max_degree: int | None = None) -> list[int]:
    """Dimensions of the ideal of the sub-curve over the subset, per degree.

    Restriction maps V_d onto the slice of the sub-curve, so the ideal has
    dimension min(d + 1, r) - min(d + 1, |subset|): non-decreasing, and
    r - |subset|, the rank of the ideal over Q[v], from the default degree on.
    """
    size = len(labels(subset, cr.r, "fixed-point labels"))
    bound = degree_bound(max_degree, default_degree_bound(cr))
    return [dim - min(d + 1, size) for d, dim in enumerate(cr.algebra.hilbert_function(bound))]
