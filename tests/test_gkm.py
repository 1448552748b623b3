import itertools
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelcurve.curve import build_curve_ring, restrict
from borelcurve.errors import InputError
from borelcurve.exactalg import GradedSubalgebra, HomTuple, nullspace
from borelcurve.gkm import (GKMGraph, GKMRing, compare_hilberts, gkm_ordinary_betti,
                            principal_verdict)

from test_action import regular_models


def test_graph_validation():
    with pytest.raises(InputError):
        GKMGraph((1, 2), ((1, 1, 1),))  # self loop
    with pytest.raises(InputError):
        GKMGraph((1, 2), ((1, 3, 1),))  # unknown vertex
    with pytest.raises(InputError):
        GKMGraph((1, 2), ((1, 2, 0),))  # multiplicity < 1
    g = GKMGraph((3, 1, 2), ((2, 1),))  # two-entry edges default to m = 1
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 2, 1),)


@pytest.mark.parametrize("edge", [(1, 2, 1, 5), [1], (), 5, "12", {"i": 1, "j": 2}],
                         ids=repr)
def test_edge_is_a_pair_or_a_triple(edge):
    """Anything else names the edge; it used to fail on unpacking, with a bare
    ValueError or TypeError, or read a string's characters as labels."""
    message = rf"^edge {re.escape(repr(edge))} is not \[i, j\] or \[i, j, multiplicity\]$"
    with pytest.raises(InputError, match=message):
        GKMGraph((1, 2), (edge,))
    with pytest.raises(InputError, match="^bad graph spec: " + message[1:]):
        GKMGraph.from_json({"vertices": [1, 2], "edges": [edge]})


def test_connectivity(curves_union_graph):
    assert len(curves_union_graph.connected_components()) == 1
    g = GKMGraph((1, 2, 3), ((1, 2, 1),))
    assert g.connected_components() == [(1, 2), (3,)]


def test_gkm_ring_hilbert_examples(curves_union_graph):
    ring = GKMRing(curves_union_graph)
    assert ring.hilbert(3) == [1, 3, 3, 3]
    single = GKMRing(GKMGraph((1,)))
    assert single.hilbert(3) == [1, 1, 1, 1]
    two_isolated = GKMRing(GKMGraph((1, 2)))
    assert two_isolated.dim(0) == 2


def test_gkm_ring_higher_multiplicity():
    ring = GKMRing(GKMGraph((1, 2), ((1, 2, 2),)))
    assert ring.hilbert(3) == [1, 1, 2, 2]
    assert ring.stabilization_degree == 2


def test_gkm_ring_contains(curves_union_graph):
    ring = GKMRing(curves_union_graph)
    assert ring.contains(HomTuple(1, (1, -1, -1)))
    assert ring.contains(HomTuple(0, (2, 2, 2)))
    assert not ring.contains(HomTuple(0, (1, 0, 0)))
    with pytest.raises(InputError):
        ring.contains(HomTuple(0, (1, 1)))


def test_gkm_dims_monotone_and_stabilize(curves_union_graph):
    ring = GKMRing(curves_union_graph)
    dims = ring.hilbert(5)
    assert dims == sorted(dims)
    assert all(d == 3 for d in dims[ring.stabilization_degree:])


def test_gkm_ordinary_betti(curves_union_graph):
    assert gkm_ordinary_betti(curves_union_graph) == [1, 2, 0]
    assert gkm_ordinary_betti(GKMGraph((1,))) == [1]
    path4 = GKMGraph((1, 2, 3, 4), ((1, 2, 1), (2, 3, 1), (3, 4, 1)))
    assert gkm_ordinary_betti(path4) == [1, 3, 0]


def test_gkm_ordinary_betti_counts_components_on_disconnected():
    """Entry 0 is the component count; the library warns of nothing."""
    g = GKMGraph((1, 2, 3), ((1, 2, 1),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gkm_ordinary_betti(g)[0] == 2


def test_principal_verdict_not_principal(plane_ring, curves_union_graph):
    verdict = principal_verdict(plane_ring, curves_union_graph)
    assert verdict.status == "NotPrincipal"
    assert verdict.witness == 1
    assert verdict.image_hilbert[1] == 2 and verdict.gkm_hilbert[1] == 3


def test_principal_verdict_point(plane_ring):
    verdict = principal_verdict(plane_ring, GKMGraph((1,)))
    assert verdict.status == "Principal"
    assert verdict.witness is None


def test_principal_verdict_whole_line(line_model):
    cr = build_curve_ring(line_model)
    verdict = principal_verdict(cr, GKMGraph((1, 2), ((1, 2, 1),)))
    assert verdict.status == "Principal"


def test_principal_verdict_inconclusive_at_tiny_bound(plane_ring, curves_union_graph):
    graph = GKMGraph((2, 3), ((2, 3, 1),))
    verdict = principal_verdict(plane_ring, graph, max_degree=0)
    assert verdict.status == "InconclusiveAtBound"
    assert any("o" in note for note in verdict.notes)


def test_principal_verdict_vertex_mismatch(plane_ring):
    with pytest.raises(InputError, match=r"^graph vertices must lie in 1\.\.3$"):
        principal_verdict(plane_ring, GKMGraph((1, 2, 7)))


def test_verdict_stability_under_larger_bounds(plane_ring, curves_union_graph):
    statuses = set()
    for bound in (2, 5, 9, 20):
        v = principal_verdict(plane_ring, curves_union_graph, bound)
        statuses.add((v.status, v.witness))
    assert statuses == {("NotPrincipal", 1)}


def test_image_bounded_by_gkm_for_curve_consistent_graphs(plane_ring, curves_union_graph):
    """The restriction image satisfies the equal-constant-term congruence, so its
    Hilbert function never exceeds the congruence ring's for multiplicity-1 data."""
    ring = GKMRing(curves_union_graph)
    restricted = restrict(plane_ring, curves_union_graph.vertices)
    image = restricted.hilbert_function(8)
    model_side = ring.hilbert(8)
    assert all(a <= b for a, b in zip(image, model_side))
    for d in range(4):
        for t in restricted.graded_basis(d):
            assert ring.contains(t)


@st.composite
def models_and_graphs(draw):
    """A regular model with n <= 4 and a random congruence graph on a subset
    of its fixed points, multiplicities 1..4."""
    model = draw(regular_models(max_n=4))
    vertices = draw(st.lists(st.integers(1, model.n + 1), min_size=1, unique=True))
    pairs = [(i, j) for i in vertices for j in vertices if i < j]
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 4)),
                          unique_by=lambda e: e[0])) if pairs else []
    return model, GKMGraph(tuple(vertices), tuple((i, j, m) for (i, j), m in edges))


@given(models_and_graphs())
@settings(max_examples=100, deadline=None)
def test_default_verdict_matches_former_truncation(case):
    """Oracle: stopping at the stabilization degree s decides the same verdict
    as the former default bound max(2 n k, s + 1)."""
    model, graph = case
    cr = build_curve_ring(model)
    s = GKMRing(graph).stabilization_degree
    default = principal_verdict(cr, graph)
    far = principal_verdict(cr, graph, max(2 * model.n * len(graph.vertices), s + 1))
    assert default.bound == s
    assert (default.status, default.witness) == (far.status, far.witness)
    assert default.image_hilbert == far.image_hilbert[:s + 1]


@given(models_and_graphs())
@settings(max_examples=100, deadline=None)
def test_stabilization_degree_is_first_full_degree(case):
    """Oracle: scanning the slice dimensions finds the largest multiplicity."""
    _, graph = case
    ring = GKMRing(graph)
    first_full = next(d for d in itertools.count() if ring.dim(d) == ring.r)
    assert ring.stabilization_degree == first_full


@st.composite
def models_and_multigraphs(draw):
    """A regular model with n <= 7 and a congruence multigraph on a random
    subset of its fixed points, multiplicities 1..6 (parallel edges occur)."""
    model = draw(regular_models(max_n=7))
    vertices = draw(st.lists(st.integers(1, model.r), min_size=1, unique=True))
    pairs = [(i, j) for i in vertices for j in vertices if i < j]
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 6)),
                          max_size=12)) if pairs else []
    return model, GKMGraph(tuple(vertices), tuple((i, j, m) for (i, j), m in edges))


@given(models_and_multigraphs(), st.none() | st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_principal_verdict_reads_only_the_fixed_point_count(case, max_degree):
    """Oracle: the closed-form image Hilbert function min(d + 1, |S|) is that
    of the restricted curve ring and of the subalgebra its projected
    generators span, so the model and its curve ring give one verdict."""
    model, graph = case
    cr = build_curve_ring(model)
    verdict = principal_verdict(model, graph, max_degree)
    assert verdict == principal_verdict(cr, graph, max_degree)
    image = list(verdict.image_hilbert)
    assert image == restrict(cr, graph.vertices).hilbert_function(verdict.bound)
    projected = [HomTuple(g.degree, [g.coeffs[v - 1] for v in graph.vertices])
                 for g in cr.algebra.generators]
    assert image == GradedSubalgebra(len(graph.vertices), projected).hilbert_function(
        verdict.bound)


@st.composite
def graphs(draw):
    """A congruence graph on a subset of 1..12, multiplicities 1..6."""
    vertices = draw(st.lists(st.integers(1, 12), min_size=1, unique=True))
    pairs = [(i, j) for i in vertices for j in vertices if i < j]
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 6)),
                          unique_by=lambda e: e[0])) if pairs else []
    return GKMGraph(tuple(vertices), tuple((i, j, m) for (i, j), m in edges))


@given(graphs(), st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_gkm_slice_matches_nullspace_oracle(graph, d):
    """Oracle: the component indicators are the canonical nullspace basis of
    the edge-difference rows active at degree d, in the same order."""
    ring = GKMRing(graph)
    pos = {v: i for i, v in enumerate(graph.vertices)}
    rows = []
    for i, j, m in graph.edges:
        if d < m:
            row = [0] * ring.r
            row[pos[i]], row[pos[j]] = 1, -1
            rows.append(row)
    expected = [HomTuple(d, vec) for vec in nullspace(rows, ring.r)]
    assert ring.basis(d) == expected
    assert ring.dim(d) == ring.hilbert(d)[d] == len(expected)
    assert GKMRing(graph).hilbert(d) == [
        len(graph.connected_components(e)) for e in range(d + 1)]
    assert ring.dim(d) <= ring.dim(d + 1)  # so gkm_ordinary_betti is never negative
    assert all(ring.contains(t) for t in expected)
    by_hand = GKMGraph(graph.vertices, tuple(e for e in graph.edges if e[2] > d))
    assert graph.connected_components(d) == by_hand.connected_components()
    assert graph.connected_components() == graph.connected_components(0)


@st.composite
def multigraphs(draw):
    """A congruence multigraph on a subset of 1..10, multiplicities 1..8:
    parallel edges, isolated vertices and edgeless graphs all occur."""
    vertices = draw(st.lists(st.integers(1, 10), min_size=1, max_size=10, unique=True))
    pairs = [(i, j) for i in vertices for j in vertices if i < j]
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 8)),
                          max_size=25)) if pairs else []
    return GKMGraph(tuple(vertices), tuple((i, j, m) for (i, j), m in edges))


@given(multigraphs(), st.integers(0, 10))
@settings(max_examples=300, deadline=None)
def test_forest_counts_match_component_counts(graph, bound):
    """Oracle: the counts read off the spanning forest are the per-degree
    component counts, for bounds below and above the stabilization degree."""
    ring = GKMRing(graph)
    counts = [len(graph.connected_components(d)) for d in range(bound + 1)]
    assert ring.hilbert(bound) == counts
    assert [ring.dim(d) for d in range(bound + 1)] == counts
    assert ring.stabilization_degree == max((m for _, _, m in graph.edges), default=0)
    s = ring.stabilization_degree
    full = [len(graph.connected_components(d)) for d in range(s + 2)]
    betti = [full[0]] + [full[d] - full[d - 1] for d in range(1, s + 2)] if s else full[:1]
    assert gkm_ordinary_betti(graph) == betti
    assert betti[0] == len(graph.connected_components())


def test_verdicts_count_no_components(monkeypatch, plane_ring, curves_union_graph):
    """The verdict paths read every count off the forest: none calls the
    per-threshold component search."""
    from borelcurve.chern import chern_subalgebra_verdict

    def refuse(*args, **kwargs):
        raise AssertionError("a verdict path searched the graph's components")

    monkeypatch.setattr(GKMGraph, "connected_components", refuse)
    split = GKMGraph((1, 2, 3), ((1, 2, 3), (1, 2, 1)))
    assert principal_verdict(plane_ring, curves_union_graph).status == "NotPrincipal"
    assert principal_verdict(plane_ring, split, 5).gkm_hilbert == (2, 2, 2, 3, 3, 3)
    assert gkm_ordinary_betti(curves_union_graph) == [1, 2, 0]
    assert gkm_ordinary_betti(split) == [2, 0, 0, 1, 0]
    gens = [HomTuple(1, (1, -1, -1)), HomTuple(1, (1, 1, 1))]
    assert chern_subalgebra_verdict(gens, curves_union_graph).witness == 1


def test_gkm_slice_rejects_negative_degree(curves_union_graph):
    ring = GKMRing(curves_union_graph)
    for method in (ring.basis, ring.dim):
        with pytest.raises(InputError, match="non-negative"):
            method(-1)


def test_negative_degree_bound_is_an_input_error(plane_ring, curves_union_graph):
    """Every Hilbert function refuses a negative bound alike, with InputError,
    not IndexError."""
    with pytest.raises(InputError, match="degree bound must be non-negative"):
        GKMRing(curves_union_graph).hilbert(-1)
    with pytest.raises(InputError, match="degree bound must be non-negative"):
        plane_ring.algebra.hilbert_function(-1)
    assert GKMRing(curves_union_graph).hilbert(0) == [1]


def test_multiplicity_limit():
    assert GKMRing(GKMGraph((1, 2), ((1, 2, 1000),))).stabilization_degree == 1000
    with pytest.raises(InputError, match=r"^edge multiplicity must lie in 1\.\.1000$"):
        GKMGraph((1, 2), ((1, 2, 1001),))


def test_inconsistent_congruences_flagged(plane_ring):
    """Congruence data the curve does not satisfy cannot certify a verdict: the
    image then exceeds the modeled ring and the verdict carries a diagnostic."""
    graph = GKMGraph((2, 3), ((2, 3, 5),))
    verdict = principal_verdict(plane_ring, graph)
    assert verdict.status == "InconclusiveAtBound"
    assert any("inconsistent" in note for note in verdict.notes)


def test_verdict_json_shape(plane_ring, curves_union_graph):
    verdict = principal_verdict(plane_ring, curves_union_graph)
    blob = verdict.to_json()
    assert blob["status"] == "NotPrincipal"
    assert blob["witness"] == 1
    assert blob["bound"] == verdict.bound
    assert blob["image_hilbert"][0] == 1


def test_graph_json_roundtrip(curves_union_graph):
    blob = curves_union_graph.to_json()
    assert GKMGraph.from_json(blob) == curves_union_graph
    for bad in ({"vertices": [1, 2.7, 3]}, {"vertices": [1, True]},
                {"vertices": [1, 2], "edges": [[1, 2, 1.5]]},
                {"vertices": [1, 2], "edges": [[1, "2"]]}):
        with pytest.raises(InputError, match="expected an integer"):
            GKMGraph.from_json(bad)


@pytest.mark.parametrize("image,gkm,status,witness,flagged", [
    ([1, 1, 3], [1, 2, 2], "NotPrincipal", 1, False),  # a deficit outranks a later excess
    ([2, 1], [1, 2], "NotPrincipal", 1, False),  # and an earlier one
    ([2, 2], [1, 2], "InconclusiveAtBound", None, True),  # an excess below the target rank
])
def test_compare_hilberts_outcomes(image, gkm, status, witness, flagged):
    """The comparisons that no verdict test reaches: a deficit together with an
    excess, and an excess whose last degree is below the target rank."""
    verdict = compare_hilberts(image, gkm, 3, len(image) - 1, ("given",))
    assert (verdict.status, verdict.witness) == (status, witness)
    assert verdict.notes[0] == "given"
    assert any("inconsistent" in note for note in verdict.notes[1:]) == flagged
