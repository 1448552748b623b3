"""Congruence rings on fixed-point graphs and the principality decision.

A graph has the fixed-point labels of an invariant subvariety as vertices and
one edge per invariant curve, with a multiplicity m >= 1: the edge imposes
f_i = f_j mod v^m on tuples of polynomials.  On a homogeneous tuple
(c_i v^d) the congruence is active exactly when d < m, so the degree-d slice
of the congruence ring is the tuples constant on each connected component of
the graph on the edges of multiplicity > d: the component indicators are a
basis, and the dimension is a component count.  For the ordinary
multiplicity-1 case the degree-0 slice is the locally constant vectors and
every higher slice is everything.

One pass over the edges by decreasing multiplicity keeps those that join two
components, a maximum spanning forest (Kruskal).  Each kept edge removes one
component, and once the pass has seen every edge with m > d it has seen that
graph, so dim(d) is r minus the forest edges with m > d.

The congruence ring is the user's model of the equivariant cohomology of the
subvariety (valid when odd cohomology vanishes); the restriction image of the
ambient ring is the ring of the sub-curve over the vertices, in closed form.
Comparing the two Hilbert functions decides whether restriction is onto ("principal").
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

from .errors import InputError, Record, clip, labels, to_int
from .rational import MAX_DEGREE, HomTuple, _as_list, _as_object, degree_bound

if TYPE_CHECKING:  # principal_verdict reads only the fixed-point count r of either
    from .action import ActionModel
    from .curve import CurveRing

PRINCIPAL = "Principal"
NOT_PRINCIPAL = "NotPrincipal"
INCONCLUSIVE = "InconclusiveAtBound"


def _find(parent: dict[int, int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class GKMGraph(Record):
    """Vertices are 1-based fixed-point labels; edges are (i, j, multiplicity)."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        vset = {to_int(x, 1, name="vertex labels") for x in self.vertices}
        if not vset:
            raise InputError("graph needs at least one vertex")
        edges = []
        for edge in self.edges:
            if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
                raise InputError(f"edge {clip(repr(edge))} is not [i, j] or [i, j, multiplicity]")
            i, j, m = (to_int(x) for x in (*edge, 1)[:3])
            if i == j:
                raise InputError("self-loops are not allowed")
            if i not in vset or j not in vset:
                raise InputError(f"edge {clip(f'({i},{j})')} mentions an unknown vertex")
            edges.append((min(i, j), max(i, j), to_int(m, 1, MAX_DEGREE, "edge multiplicity")))
        object.__setattr__(self, "vertices", tuple(sorted(vset)))
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    def connected_components(self, threshold: int = 0) -> list[tuple[int, ...]]:
        """Sorted components of the graph on the edges of multiplicity > threshold."""
        threshold = to_int(threshold)
        parent = {v: v for v in self.vertices}
        for i, j, m in self.edges:
            if m > threshold:
                parent[_find(parent, i)] = _find(parent, j)
        groups: dict[int, list[int]] = {}
        for v in self.vertices:
            groups.setdefault(_find(parent, v), []).append(v)
        return sorted(tuple(sorted(g)) for g in groups.values())

    @classmethod
    def from_json(cls, data: dict) -> "GKMGraph":
        data = _as_object(data, "graph")
        try:
            return cls(_as_list(data["vertices"]), _as_list(data.get("edges", [])))
        except (KeyError, ValueError) as exc:
            raise InputError(f"bad graph spec: {exc}") from exc


class GKMRing:
    """Graded space of tuples over the graph vertices obeying the congruences."""

    def __init__(self, graph: GKMGraph):
        self.graph = graph
        self.r = len(graph.vertices)
        self._pos = {v: i for i, v in enumerate(graph.vertices)}
        parent = {v: v for v in graph.vertices}
        joins = []  # the forest's multiplicities (module docstring), decreasing
        for i, j, m in sorted(graph.edges, key=lambda e: -e[2]):
            if (a := _find(parent, i)) != (b := _find(parent, j)):
                parent[a] = b
                joins.append(m)
        self._joins = joins[::-1]

    def basis(self, d: int) -> list[HomTuple]:
        """Indicators of the components at degree d, in the order of their last vertex
        (HomTuple rejects d < 0)."""
        comps = sorted(self.graph.connected_components(d), key=lambda c: c[-1])
        return [HomTuple(d, [int(v in comp) for v in self.graph.vertices]) for comp in comps]

    def dim(self, d: int) -> int:
        """r minus the forest edges with m > d (module docstring)."""
        return self.r - len(self._joins) + bisect_right(self._joins, to_int(d, 0, name="degree"))

    def hilbert(self, max_degree: int) -> list[int]:
        return [self.dim(d) for d in range(to_int(max_degree, 0, name="degree bound") + 1)]

    def contains(self, t: HomTuple) -> bool:
        """Direct congruence check (no linear algebra needed)."""
        if t.r != self.r:
            raise InputError("component-count mismatch with the graph vertices")
        return all(t.degree >= m or t.coeffs[self._pos[i]] == t.coeffs[self._pos[j]]
                   for i, j, m in self.graph.edges)

    @property
    def stabilization_degree(self) -> int:
        """Smallest degree from which the slices are all of Q^r: the largest
        multiplicity, which the first edge of the forest pass carries."""
        return self._joins[-1] if self._joins else 0


def gkm_ordinary_betti(graph: GKMGraph) -> list[int]:
    """Ordinary Betti numbers of the modeled subvariety (successive differences).

    Assumes vanishing odd cohomology.  dim(d) - dim(d - 1) counts the forest
    edges of multiplicity d (module docstring): the list is the component
    count, then that histogram over 1..s + 1 (s > 0 the stabilization degree).
    Entry 0 above 1 means a disconnected graph, whose bookkeeping applies per
    component; the caller reads that off the list (the CLI reports it).
    """
    ring = GKMRing(graph)
    s = ring.stabilization_degree
    h = ring.hilbert(s + 1 if s else 0)
    return [h[0]] + [h[d] - h[d - 1] for d in range(1, len(h))]


class PrincipalityVerdict(Record):
    """Outcome of comparing the restriction image against the congruence ring.

    NotPrincipal carries a witness degree where the image is strictly
    smaller.  The default bound, the congruence ring's stabilization degree
    s, certifies the verdict: the ring is all of Q^k from s on and the image,
    containing v, only grows.  InconclusiveAtBound then means inconsistent
    congruence data; under a user bound below s it may instead name that
    cap, which raising can resolve but never flip Principal and NotPrincipal.
    """

    status: str
    witness: int | None
    bound: int
    image_hilbert: tuple[int, ...]
    gkm_hilbert: tuple[int, ...]
    notes: tuple[str, ...] = ()


def compare_hilberts(image: list[int], gkm: list[int], target_rank: int,
                     bound: int, notes: tuple[str, ...] = ()) -> PrincipalityVerdict:
    """Degree-by-degree comparison with the stated stabilization requirement."""
    notes = tuple(notes)
    witness = next((d for d in range(len(image)) if image[d] < gkm[d]), None)
    if witness is not None:
        status = NOT_PRINCIPAL
    elif any(image[d] > gkm[d] for d in range(len(image))):
        status = INCONCLUSIVE
        notes += ("restriction image exceeds the modeled ring in some degree; "
                  "the congruence data is inconsistent with the curve",)
    else:  # no degree differs, so image == gkm
        status = PRINCIPAL if image[-1] == target_rank else INCONCLUSIVE
    return PrincipalityVerdict(status, witness, bound, tuple(image), tuple(gkm), notes)


def decide(image_hilbert, ring: GKMRing, max_degree: int | None,
           notes: tuple[str, ...]) -> PrincipalityVerdict:
    """Compare `image_hilbert(bound)`, the Hilbert function of an algebra over
    the ring's vertices containing v, with the congruence ring's, by default up
    to the stabilization degree, which certifies the verdict (PrincipalityVerdict)."""
    bound = degree_bound(max_degree, ring.stabilization_degree)
    return compare_hilberts(image_hilbert(bound), ring.hilbert(bound), ring.r, bound, notes)


def principal_verdict(cr: ActionModel | CurveRing, graph: GKMGraph,
                      max_degree: int | None = None) -> PrincipalityVerdict:
    """Decide whether the subvariety modeled by the graph is principal.

    The restriction image of the ambient ring equals the Chern-class
    subalgebra of the subvariety, so restriction is surjective exactly when
    that image already fills the modeled congruence ring.  It is the ring of
    the sub-curve over the vertices S, whose degree-d slice has dimension
    min(d + 1, |S|) (curve.NodeAlgebra), so only the fixed-point count r is read.
    """
    size = len(labels(graph.vertices, cr.r, "graph vertices"))
    notes = () if 1 in graph.vertices else (
        "label 1 (the unipotent fixed point o) is not among the vertices; a nonempty "
        "invariant subvariety always contains o, so this subset is geometrically dubious",)
    return decide(lambda bound: [min(d + 1, size) for d in range(bound + 1)], GKMRing(graph),
                  max_degree, notes)
