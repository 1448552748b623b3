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

The congruence ring is the user's model of the equivariant cohomology of the
subvariety (valid when odd cohomology vanishes); the restriction image of the
ambient ring is computed exactly from the curve.  Comparing the two Hilbert
functions decides whether restriction is surjective ("principal").
"""

from __future__ import annotations

import warnings

from .curve import CurveRing, restrict
from .errors import InputError
from .rational import MAX_DEGREE, HomTuple, to_int
from .record import Record

PRINCIPAL = "Principal"
NOT_PRINCIPAL = "NotPrincipal"
INCONCLUSIVE = "InconclusiveAtBound"


class GKMGraph(Record):
    """Vertices are 1-based fixed-point labels; edges are (i, j, multiplicity)."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        verts = sorted(set(to_int(x) for x in self.vertices))
        if not verts:
            raise InputError("graph needs at least one vertex")
        if verts[0] < 1:
            raise InputError("vertex labels must be positive integers")
        vset = set(verts)
        edges = []
        for edge in self.edges:
            if len(edge) == 2:
                i, j, m = to_int(edge[0]), to_int(edge[1]), 1
            else:
                i, j, m = (to_int(x) for x in edge)
            if i == j:
                raise InputError("self-loops are not allowed")
            if i not in vset or j not in vset:
                raise InputError(f"edge ({i},{j}) mentions an unknown vertex")
            if m < 1:
                raise InputError("edge multiplicity must be >= 1")
            if m > MAX_DEGREE:
                raise InputError(f"edge multiplicity must be <= {MAX_DEGREE}")
            edges.append((min(i, j), max(i, j), m))
        object.__setattr__(self, "vertices", tuple(verts))
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    def connected_components(self, threshold: int = 0) -> list[tuple[int, ...]]:
        """Sorted components of the graph on the edges of multiplicity > threshold."""
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, m in self.edges:
            if m > threshold:
                parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for v in self.vertices:
            groups.setdefault(find(v), []).append(v)
        return sorted(tuple(sorted(g)) for g in groups.values())

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    @property
    def max_multiplicity(self) -> int:
        return max((m for _, _, m in self.edges), default=0)

    @classmethod
    def from_json(cls, data: dict) -> "GKMGraph":
        try:
            return cls(tuple(data["vertices"]), tuple(tuple(e) for e in data.get("edges", [])))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad graph spec: {exc}") from exc

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}


class GKMRing:
    """Graded space of tuples over the graph vertices obeying the congruences."""

    def __init__(self, graph: GKMGraph):
        self.graph = graph
        self.r = len(graph.vertices)
        self._pos = {v: i for i, v in enumerate(graph.vertices)}

    def basis(self, d: int) -> list[HomTuple]:
        """Indicators of the components at degree d, in the order of their last vertex
        (HomTuple rejects d < 0)."""
        comps = sorted(self.graph.connected_components(d), key=lambda c: c[-1])
        return [HomTuple(d, [int(v in comp) for v in self.graph.vertices]) for comp in comps]

    def dim(self, d: int) -> int:
        if d < 0:
            raise InputError("degree must be non-negative")
        return len(self.graph.connected_components(d))

    def hilbert(self, max_degree: int) -> list[int]:
        """dim(0..max_degree): the count changes only at the edge multiplicities,
        so one count per multiplicity fills the run of degrees up to the next."""
        cuts = sorted({0, *(m for _, _, m in self.graph.edges)})
        out: list[int] = []
        for start, stop in zip(cuts, cuts[1:] + [max_degree + 1]):
            if start > max_degree:
                break
            out += [self.dim(start)] * (min(stop, max_degree + 1) - start)
        return out

    def contains(self, t: HomTuple) -> bool:
        """Direct congruence check (no linear algebra needed)."""
        if t.r != self.r:
            raise InputError("component-count mismatch with the graph vertices")
        for i, j, m in self.graph.edges:
            if t.degree < m and t.coeffs[self._pos[i]] != t.coeffs[self._pos[j]]:
                return False
        return True

    @property
    def stabilization_degree(self) -> int:
        """Smallest degree from which the slices are all of Q^r: the largest
        multiplicity, since every edge active at degree d cuts the slice."""
        return self.graph.max_multiplicity


def gkm_ordinary_betti(graph: GKMGraph, max_degree: int | None = None) -> list[int]:
    """Ordinary Betti numbers of the modeled subvariety (successive differences).

    Assumes vanishing odd cohomology; for a disconnected graph the bookkeeping
    applies per component and a warning is emitted.  None is negative: a
    higher degree drops edges, so components only split.
    """
    ring = GKMRing(graph)
    if not graph.is_connected():
        warnings.warn("graph is disconnected; Betti bookkeeping applies per connected "
                      "component", stacklevel=2)
    if max_degree is None:
        stab = ring.stabilization_degree
        bound = stab + 1 if stab > 0 else 0
    else:
        bound = int(max_degree)
    h = ring.hilbert(bound)
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

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness,
            "bound": self.bound,
            "image_hilbert": list(self.image_hilbert),
            "gkm_hilbert": list(self.gkm_hilbert),
            "notes": list(self.notes),
        }


def compare_hilberts(image: list[int], gkm: list[int], target_rank: int,
                     bound: int, notes: tuple[str, ...] = ()) -> PrincipalityVerdict:
    """Degree-by-degree comparison with the stated stabilization requirement."""
    notes = tuple(notes)
    witness = next((d for d in range(len(image)) if image[d] < gkm[d]), None)
    if witness is not None:
        return PrincipalityVerdict(NOT_PRINCIPAL, witness, bound,
                                   tuple(image), tuple(gkm), notes)
    if any(image[d] > gkm[d] for d in range(len(image))):
        notes = notes + ("restriction image exceeds the modeled ring in some degree; "
                         "the congruence data is inconsistent with the curve",)
        return PrincipalityVerdict(INCONCLUSIVE, None, bound,
                                   tuple(image), tuple(gkm), notes)
    if image == gkm and image[-1] == target_rank:
        return PrincipalityVerdict(PRINCIPAL, None, bound,
                                   tuple(image), tuple(gkm), notes)
    return PrincipalityVerdict(INCONCLUSIVE, None, bound,
                               tuple(image), tuple(gkm), notes)


def principal_verdict(cr: CurveRing, graph: GKMGraph,
                      max_degree: int | None = None) -> PrincipalityVerdict:
    """Decide whether the subvariety modeled by the graph is principal.

    The restriction image of the ambient ring equals the Chern-class
    subalgebra of the subvariety, so restriction is surjective exactly when
    that image already fills the modeled congruence ring.
    """
    r = cr.r
    if graph.vertices[0] < 1 or graph.vertices[-1] > r:
        raise InputError(f"vertex set mismatch: graph vertices must be fixed-point "
                         f"labels in 1..{r}")
    restricted = restrict(cr, graph.vertices)
    ring = GKMRing(graph)
    bound = ring.stabilization_degree if max_degree is None else int(max_degree)
    notes: tuple[str, ...] = ()
    if 1 not in graph.vertices:
        notes = ("label 1 (the unipotent fixed point o) is not among the vertices; a "
                 "nonempty invariant subvariety always contains o, so this subset is "
                 "geometrically dubious",)
    image = restricted.hilbert_function(bound)
    model_side = ring.hilbert(bound)
    return compare_hilberts(image, model_side, len(graph.vertices), bound, notes)
