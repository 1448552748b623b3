from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borelcurve import action, curve
from borelcurve.action import ActionModel, component_parametrization, principal_model
from borelcurve.chern import chern_tuples, tangent_bundle
from borelcurve.curve import (CurveRing, NodeAlgebra, betti_numbers, build_curve_ring,
                              default_degree_bound, ideal_hilbert, restrict)
from borelcurve.errors import InputError, InternalError
from borelcurve.exactalg import GradedSubalgebra, HomTuple
from borelcurve.gkm import GKMGraph, principal_verdict
from borelcurve.rational import MAX_DEGREE
from borelcurve.rootsystems import poincare_from_degrees

from conftest import jordan_block
from test_action import regular_models


def _subsets(r):
    out = []
    for mask in range(1, 2**r):
        out.append([i + 1 for i in range(r) if mask >> i & 1])
    return out


def test_plane_ring_generators(plane_ring):
    gens = {(g.degree, g.coeffs) for g in plane_ring.algebra.generators}
    assert gens == {
        (1, (Fraction(1), Fraction(1), Fraction(1))),
        (1, (Fraction(0), Fraction(1), Fraction(2))),
        (2, (Fraction(0), Fraction(0), Fraction(2))),
    }


def test_line_ring(line_model):
    cr = build_curve_ring(line_model)
    gens = {(g.degree, g.coeffs) for g in cr.algebra.generators}
    assert gens == {(1, (Fraction(1), Fraction(1))), (1, (Fraction(0), Fraction(1)))}
    assert cr.algebra.hilbert_function(3) == [1, 2, 2, 2]


@pytest.mark.parametrize("n", range(1, 7))
def test_principal_ring_rank_reached_at_degree_n(n):
    cr = build_curve_ring(principal_model(n))
    assert cr.algebra.hilbert_function(n)[-1] == n + 1
    assert cr.algebra.hilbert_function(n - 1)[-1] < n + 1


@given(regular_models(max_n=8))
@settings(max_examples=25, deadline=None)
def test_default_degree_bound_is_n(model):
    """Certificate: the curve ring first fills Q^r in degree n, one new class
    per degree before that."""
    cr = build_curve_ring(model)
    assert default_degree_bound(cr) == model.n
    assert cr.algebra.hilbert_function(model.n) == [min(d + 1, model.n + 1)
                                                     for d in range(model.n + 1)]


def test_betti_numbers(plane_ring, line_model):
    assert betti_numbers(plane_ring) == [1, 1, 1]
    assert betti_numbers(build_curve_ring(line_model)) == [1, 1]
    for n in range(1, 7):
        cr = build_curve_ring(principal_model(n))
        assert betti_numbers(cr) == [1] * (n + 1)


def test_betti_matches_product_formula():
    for n in range(1, 7):
        cr = build_curve_ring(principal_model(n))
        from borelcurve.action import big_cell_degrees
        poly = poincare_from_degrees(big_cell_degrees(cr.model))
        assert betti_numbers(cr) == list(poly.coeffs)


def test_betti_rejects_too_small_bound(plane_ring):
    with pytest.raises(InputError):
        betti_numbers(plane_ring, 1)


def test_restrict_examples(plane_ring):
    full = restrict(plane_ring, [1, 2, 3])
    bound = default_degree_bound(plane_ring)
    assert full.hilbert_function(bound) == plane_ring.algebra.hilbert_function(bound)
    sub = restrict(plane_ring, [2, 3])
    assert sub.hilbert_function(4) == [1, 2, 2, 2, 2]
    point = restrict(plane_ring, [1])
    assert point.hilbert_function(3) == [1, 1, 1, 1]
    with pytest.raises(InputError):
        restrict(plane_ring, [])
    with pytest.raises(InputError):
        restrict(plane_ring, [4])


def test_ideal_hilbert_examples(plane_ring):
    assert ideal_hilbert(plane_ring, [2, 3], 4) == [0, 0, 1, 1, 1]
    assert ideal_hilbert(plane_ring, [1, 2, 3], 4) == [0, 0, 0, 0, 0]
    for labels in _subsets(3):
        dims = ideal_hilbert(plane_ring, labels)
        assert dims[-1] == 3 - len(labels)


@pytest.mark.parametrize("n", [2, 3])
def test_rank_nullity_bookkeeping(n):
    """hilbert(restriction) + hilbert(ideal) == hilbert(ambient), degree-wise."""
    cr = build_curve_ring(principal_model(n))
    bound = default_degree_bound(cr)
    total = cr.algebra.hilbert_function(bound)
    for labels in _subsets(n + 1):
        image = restrict(cr, labels).hilbert_function(bound)
        kernel = ideal_hilbert(cr, labels, bound)
        assert [a + b for a, b in zip(image, kernel)] == total


def test_betti_sum_counts_fixed_points():
    for n in range(1, 6):
        cr = build_curve_ring(principal_model(n))
        assert sum(betti_numbers(cr)) == n + 1


def test_rescaling_e_does_not_change_dimensions(plane_model, plane_ring):
    from borelcurve.action import ActionModel, validate
    scaled = tuple(tuple(Fraction(3, 5) * x for x in row) for row in plane_model.e_matrix)
    cr2 = build_curve_ring(validate(ActionModel(2, plane_model.h_weights, scaled)))
    bound = default_degree_bound(plane_ring)
    assert cr2.algebra.hilbert_function(bound) == plane_ring.algebra.hilbert_function(bound)
    assert betti_numbers(cr2) == betti_numbers(plane_ring)
    t = HomTuple(1, (Fraction(6), Fraction(0), Fraction(-6)))
    assert cr2.algebra.member(t) == plane_ring.algebra.member(t)


# ---------------------------------------------------------------------------
# the closed form against the generic slice construction


small = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _check_against_oracle(alg, oracle, bound, data):
    """Every slice and Hilbert function, and member/coordinates on random
    combinations of basis rows, perturbed and random tuples."""
    assert alg.hilbert_function(bound) == oracle.hilbert_function(bound)
    for d in range(bound + 1):
        basis = alg.graded_basis(d)
        assert basis == oracle.graded_basis(d)
        mix = [data.draw(small) for _ in basis]
        coeffs = [sum((c * b.coeffs[j] for c, b in zip(mix, basis)), Fraction(0))
                  for j in range(alg.r)]
        bumped = list(coeffs)
        bumped[data.draw(st.integers(0, alg.r - 1))] += data.draw(small)
        drawn = [data.draw(small) for _ in range(alg.r)]
        for t in (coeffs, bumped, drawn):
            t = HomTuple(d, tuple(t))
            assert alg.member(t) == oracle.member(t)
            assert alg.coordinates(t) == oracle.coordinates(t)


@given(regular_models(max_n=8), st.data())
@settings(max_examples=20, deadline=None)
def test_closed_form_matches_generated_algebra(model, data):
    cr = build_curve_ring(model)
    r, bound = cr.r, model.n + 1
    oracle = GradedSubalgebra(r, cr.algebra.generators)
    _check_against_oracle(cr.algebra, oracle, bound, data)
    for t in chern_tuples(tangent_bundle(model), cr):
        assert cr.algebra.member(t) and oracle.member(t)
        assert cr.algebra.coordinates(t) == oracle.coordinates(t)
    mask = data.draw(st.lists(st.booleans(), min_size=r, max_size=r))
    drawn = [j + 1 for j in range(r) if mask[j]] or [r]
    for labels in (drawn, list(range(1, r + 1, 2))):  # a random and a gapped subset
        pos = [lab - 1 for lab in labels]
        sub = restrict(cr, labels)
        sub_oracle = GradedSubalgebra(len(labels), [HomTuple(g.degree, [g.coeffs[p] for p in pos])
                                                    for g in cr.algebra.generators])
        assert sub.generators == sub_oracle.generators
        _check_against_oracle(sub, sub_oracle, bound, data)
        assert ideal_hilbert(cr, labels, bound) == [len(oracle.kernel_basis(labels, d))
                                                    for d in range(bound + 1)]


@pytest.mark.parametrize("n", range(9))
def test_ambient_rows_are_integer_lagrange_rows(n):
    """Row i of V_d is delta_ij for j <= d and (-1)^(d-i) C(j, i) C(j-i-1, d-i)
    beyond: the Lagrange polynomial on the nodes 0..d."""
    cr = build_curve_ring(principal_model(n))
    for d in range(n + 2):
        rows = [[int(c) for c in t.coeffs] for t in cr.algebra.graded_basis(d)]
        assert rows == [[int(i == j) if j <= d
                         else (-1) ** (d - i) * comb(j, i) * comb(j - i - 1, d - i)
                         for j in range(n + 1)] for i in range(min(d, n) + 1)]


def test_closed_form_rejects_bad_degrees(plane_ring):
    with pytest.raises(InputError):
        plane_ring.algebra.hilbert_function(-1)
    with pytest.raises(InputError):
        plane_ring.algebra.graded_basis(-1)
    with pytest.raises(InputError):
        plane_ring.algebra.member(HomTuple(1, (1, 2)))
    with pytest.raises(InputError):
        ideal_hilbert(plane_ring, [2], -1)


def test_build_checks_the_normal_form():
    with pytest.raises(InternalError, match=r"^chart degrees \[2, 4\] are not 1\.\.2$"):
        build_curve_ring(ActionModel(2, (4, 0, -4), jordan_block(3)))  # not validated


@given(regular_models(max_n=12))
@example(principal_model(0))
@settings(max_examples=50, deadline=None)
def test_generators_match_every_parametrization(model):
    """Entry J of the degree-i generator is the i-th chart coefficient of the
    component over fixed point J + 1, for every component, not just the last."""
    r = model.n + 1
    comps = [component_parametrization(model, j) for j in range(1, r + 1)]
    expected = [HomTuple.ones(r, 1)] + [
        HomTuple(i, [comp.chart_coords[i - 1](1) for comp in comps])  # c v^i at v = 1
        for i in range(1, r)]
    got = build_curve_ring(model).algebra.generators
    assert [g.to_json() for g in got] == [g.to_json() for g in expected]


@pytest.mark.parametrize("n", [0, 1, 8, 64])
def test_ring_and_verdicts_parametrize_no_component(monkeypatch, n):
    """The ring is read off the normal form, so neither building it nor its
    Betti numbers, restrictions or principal verdict parametrize a component."""
    calls = []

    def counted(model, j):
        calls.append(j)
        return real(model, j)

    real = action.component_parametrization
    for module in (action, curve):
        monkeypatch.setattr(module, "component_parametrization", counted)
    cr = build_curve_ring(principal_model(n))
    assert betti_numbers(cr) == [1] * (n + 1)
    assert restrict(cr, [1, n + 1]).hilbert_function(n) == [min(d + 1, len({1, n + 1}))
                                                             for d in range(n + 1)]
    path = GKMGraph(tuple(range(1, n + 2)), tuple((j, j + 1, 1) for j in range(1, n + 1)))
    assert principal_verdict(cr, path).status == ("Principal" if n <= 1 else "NotPrincipal")
    assert calls == []


def test_default_bound_may_pass_the_cap_on_given_bounds():
    """MAX_DEGREE caps only the bounds a caller gives: on 1,002 nodes the
    default bound is 1001.  The model is left unvalidated so the ring builds
    at once."""
    cr = CurveRing(ActionModel(1001, (), ()), NodeAlgebra(range(1002), ()))
    assert default_degree_bound(cr) == 1001 > MAX_DEGREE
    assert betti_numbers(cr) == [1] * 1002
    assert ideal_hilbert(cr, [1, 5]) == [min(d + 1, 1002) - min(d + 1, 2) for d in range(1002)]
    for given in (lambda bound: betti_numbers(cr, bound),
                  lambda bound: ideal_hilbert(cr, [1, 5], bound)):
        with pytest.raises(InputError, match="^degree bound must be <= 1000$"):
            given(1001)
    assert ideal_hilbert(cr, [1, 5], 1000) == ideal_hilbert(cr, [1, 5])[:1001]
