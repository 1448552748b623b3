from fractions import Fraction

import pytest
from hypothesis import given, settings

from borelcurve.action import principal_model
from borelcurve.curve import (betti_numbers, build_curve_ring,
                              default_degree_bound, ideal_hilbert, restrict)
from borelcurve.errors import InputError
from borelcurve.exactalg import HomTuple
from borelcurve.rootsystems import poincare_from_degrees

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
    assert point.quotient_by_v_dims(2) == [1, 0, 0]
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
