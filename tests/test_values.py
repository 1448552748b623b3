"""Semantics of the package's value classes: construction, equality, hashing
and immutability."""

import re
from fractions import Fraction

import pytest

from borelcurve.action import (ActionModel, CurveComponent, component_parametrization,
                               principal_model, validate)
from borelcurve.chern import (BundleData, MatrixFibre, SplitFibre, bundle_from_json,
                              chern_class, chern_subalgebra_verdict, chern_tuples,
                              elementary_symmetric, exterior_trace, make_bundle)
from borelcurve.curve import CurveRing, betti_numbers, build_curve_ring, ideal_hilbert, restrict
from borelcurve.errors import InputError
from borelcurve.exactalg import GradedSubalgebra, HomTuple, Poly
from borelcurve.gkm import GKMGraph, GKMRing, PrincipalityVerdict, principal_verdict
from borelcurve.rational import degree_bound, format_fraction
from borelcurve.rootsystems import (PoincarePoly, RootSystem, poincare_from_degrees,
                                    positive_roots, weyl_order)

from conftest import jordan_block

_MODEL = ActionModel(1, (1, -1), jordan_block(2))
_COMPONENT = CurveComponent(2, (Poly((0, 1)),), (1,), (Poly((1,)), Poly((0, 1))))
_ALGEBRA = GradedSubalgebra(2, [HomTuple.ones(2, 1)])

# class -> keyword arguments of one instance, in field order
CASES = [
    (Poly, {"coeffs": (Fraction(1), Fraction(2))}),
    (HomTuple, {"degree": 1, "coeffs": (Fraction(1), Fraction(-1))}),
    (ActionModel, {"n": 1, "h_weights": (1, -1), "e_matrix": jordan_block(2)}),
    (CurveComponent, {"index": 2, "chart_coords": _COMPONENT.chart_coords,
                      "degrees": (1,), "homog_coords": _COMPONENT.homog_coords}),
    (GKMGraph, {"vertices": (1, 2), "edges": ((1, 2, 1),)}),
    (PrincipalityVerdict, {"status": "Principal", "witness": None, "bound": 1,
                           "image_hilbert": (1, 2), "gkm_hilbert": (1, 2),
                           "notes": ("a note",)}),
    (RootSystem, {"family": "A", "rank": 1, "simple_roots": ((1, -1),),
                  "positive_roots": ((1, -1),)}),
    (PoincarePoly, {"coeffs": (1, 2, 1)}),
    (SplitFibre, {"weights": (1, -1)}),
    (MatrixFibre, {"rho_w": ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))),
                   "rho_v": ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))}),
    (BundleData, {"rank": 1, "fibres": {1: SplitFibre((1,))}}),
    (CurveRing, {"model": _MODEL, "algebra": _ALGEBRA}),
]
UNHASHABLE = {BundleData}  # fibres is a dict
IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize("cls,kwargs", CASES, ids=IDS)
def test_equal_by_value_and_keyword_construction(cls, kwargs):
    positional = cls(*kwargs.values())
    keyword = cls(**kwargs)
    assert positional == keyword
    assert not positional != keyword
    assert positional is not keyword
    for name, value in kwargs.items():
        assert getattr(keyword, name) == value


@pytest.mark.parametrize("cls,kwargs", CASES, ids=IDS)
def test_unequal_to_another_class_with_the_same_fields(cls, kwargs):
    twin_cls = type(f"Twin{cls.__name__}", (cls,), {})
    twin = twin_cls(**kwargs)
    original = cls(**kwargs)
    assert original != twin
    assert twin != original
    assert original != tuple(kwargs.values())


@pytest.mark.parametrize("cls,kwargs", CASES, ids=IDS)
def test_hash_and_assignment(cls, kwargs):
    a, b = cls(**kwargs), cls(**kwargs)
    name = next(iter(kwargs))
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        delattr(a, name)


def test_unequal_when_a_field_differs():
    assert Poly((1, 2)) != Poly((1, 3))
    assert SplitFibre((1,)) != SplitFibre((2,))
    assert GKMGraph((1, 2)) != GKMGraph((1, 2), ((1, 2, 1),))
    assert Poly((1, 2, 1)) != PoincarePoly((1, 2, 1))


def test_defaults_and_normalization():
    assert Poly().coeffs == () and Poly().is_zero()
    assert Poly((1, 0, 0)) == Poly((Fraction(1),))
    assert isinstance(Poly(("1/2",)).coeffs[0], Fraction)
    graph = GKMGraph(vertices=(3, 1, 2, 1))
    assert graph.vertices == (1, 2, 3) and graph.edges == ()
    assert GKMGraph((2, 1), ((2, 1),)).edges == ((1, 2, 1),)
    verdict = PrincipalityVerdict("Principal", None, 0, (1,), (1,))
    assert verdict.notes == ()
    assert HomTuple(0, (1, 2)).coeffs == (Fraction(1), Fraction(2))
    assert PoincarePoly((Fraction(1), 1)).coeffs == (1, 1)


def test_to_json_writes_the_fields_by_name():
    """One rule: the fields by name, tuples as lists and a Fraction as its
    text, which str gives exactly as format_fraction does.  CurveComponent
    alone writes its own, renaming homog_coords and listing Poly coefficients."""
    for q in (Fraction(0), Fraction(-7), Fraction(1, 3), Fraction(-10**30, 7)):
        assert str(q) == format_fraction(q)
    assert GKMGraph((2, 1), ((2, 1, 3),)).to_json() == {"vertices": [1, 2],
                                                         "edges": [[1, 2, 3]]}
    assert PrincipalityVerdict("Principal", None, 1, (1, 2), (1, 2), ("a note",)).to_json() == {
        "status": "Principal", "witness": None, "bound": 1, "image_hilbert": [1, 2],
        "gkm_hilbert": [1, 2], "notes": ["a note"]}
    assert validate(ActionModel(1, (-1, 1), ((0, 0), ("1/2", 0)))).to_json() == {
        "n": 1, "h_weights": [1, -1], "e_matrix": [["0", "1/2"], ["0", "0"]]}
    assert _COMPONENT.to_json() == {"index": 2, "degrees": [1], "chart_coords": [["0", "1"]],
                                    "homogeneous_coords": [["1"], ["0", "1"]]}
    assert [cls for cls, _ in CASES if "to_json" in vars(cls)] == [CurveComponent]


def test_construction_rejects_bad_arguments():
    with pytest.raises(TypeError):
        HomTuple(1)
    with pytest.raises(TypeError):
        Poly((1,), (2,))
    with pytest.raises(TypeError):
        Poly(degree=1)
    with pytest.raises(TypeError):
        SplitFibre((1,), weights=(1,))


# ---------------------------------------------------------------------------
# integer parameters: genuine ints only (errors.to_int)

_RING = build_curve_ring(principal_model(2))
_GRAPH = GKMGraph((1, 2, 3), ((1, 2, 1), (1, 3, 1)))

# name -> a call taking one integer parameter
INTEGER_PARAMETERS = {
    "make_bundle rank": lambda x: make_bundle(x, {1: SplitFibre((1, -1))}),
    "make_bundle label": lambda x: make_bundle(1, {x: SplitFibre((1,))}),
    "bundle_from_json rank": lambda x: bundle_from_json(
        {"rank": x, "fibres": {"1": {"rho_W": [[1, 0], [0, -1]], "rho_V": [[0, 0], [0, 0]]}}}),
    "chern_tuples label": lambda x: chern_tuples(BundleData(1, {x: SplitFibre((1,))}), _RING),
    "graph vertex": lambda x: principal_verdict(_RING, GKMGraph((1, x))),
    "GKMGraph edge multiplicity": lambda x: GKMGraph((1, 2), ((1, 2, x),)),
    "validate n": lambda x: validate(ActionModel(x, (2, 0, -2), jordan_block(3))),
    "restrict label": lambda x: restrict(_RING, [x]),
    "ideal_hilbert label": lambda x: ideal_hilbert(_RING, [x]),
    "GradedSubalgebra r": lambda x: GradedSubalgebra(x),
    "GradedSubalgebra generator degree": lambda x: GradedSubalgebra(1, [HomTuple(x, (1,))]),
    "kernel_basis label": lambda x: _ALGEBRA.kernel_basis([x], 1),
    "positive_roots rank": lambda x: positive_roots("A", x),
    "weyl_order rank": lambda x: weyl_order("A", x),
    "component_parametrization j": lambda x: component_parametrization(_RING.model, x),
    "HomTuple degree": lambda x: HomTuple(x, (1,)),
    "poincare_from_degrees degree": lambda x: poincare_from_degrees([1, x]),
    "elementary_symmetric k": lambda x: elementary_symmetric((1, 2, 3), x),
    "exterior_trace k": lambda x: exterior_trace(((1, 0), (0, 2)), x),
    "chern_class k": lambda x: chern_class([HomTuple(k, (1,)) for k in range(3)], x),
    "NodeAlgebra.graded_basis degree": lambda x: _RING.algebra.graded_basis(x),
    "GradedSubalgebra.graded_basis degree": lambda x: _ALGEBRA.graded_basis(x),
    "GKMRing.basis degree": lambda x: GKMRing(_GRAPH).basis(x),
    "GKMGraph.connected_components threshold": lambda x: _GRAPH.connected_components(x),
    "Poly.monomial power": lambda x: Poly.monomial(1, x),
    "Poly power": lambda x: Poly((1, 1)) ** x,
    "GKMRing.dim degree": lambda x: GKMRing(_GRAPH).dim(x),
    "betti_numbers bound": lambda x: betti_numbers(_RING, x),
    "ideal_hilbert bound": lambda x: ideal_hilbert(_RING, [1], x),
    "principal_verdict bound": lambda x: principal_verdict(_RING, _GRAPH, x),
    "chern_subalgebra_verdict bound": lambda x: chern_subalgebra_verdict([], _GRAPH, x),
    "degree_bound": lambda x: degree_bound(x, 0),
    "NodeAlgebra.hilbert_function bound": lambda x: _RING.algebra.hilbert_function(x),
    "GradedSubalgebra.hilbert_function bound": lambda x: _ALGEBRA.hilbert_function(x),
    "GKMRing.hilbert bound": lambda x: GKMRing(_GRAPH).hilbert(x),
}


@pytest.mark.parametrize("name", INTEGER_PARAMETERS)
@pytest.mark.parametrize("value", [True, 2.0, 2.5, "2"], ids=repr)
def test_integer_parameters_take_genuine_ints_only(name, value):
    """int() would read 2.0 and 2.5 as 2, True as 1 and "2" as 2."""
    INTEGER_PARAMETERS[name](2)  # the int itself is accepted
    with pytest.raises(InputError, match="^expected an integer, got "):
        INTEGER_PARAMETERS[name](value)


# the same calls just outside their ranges (errors.to_int and errors.labels):
# the bound below, and the one above where there is one
_BOUND = {-1: "degree bound must be non-negative", 1001: "degree bound must be <= 1000"}
_LABELS = {0: "fixed-point labels must lie in 1..3", 4: "fixed-point labels must lie in 1..3"}
OUT_OF_RANGE = {
    "make_bundle rank": {-1: "bundle rank must be non-negative"},
    "make_bundle label": {0: "fixed-point labels must be positive"},
    "bundle_from_json rank": {-1: "bundle rank must be non-negative"},
    "chern_tuples label": {0: "bundle fixed points must lie in 1..3",
                           4: "bundle fixed points must lie in 1..3"},
    "graph vertex": {0: "vertex labels must be positive",
                     4: "graph vertices must lie in 1..3"},
    "GKMGraph edge multiplicity": {0: "edge multiplicity must lie in 1..1000",
                                   1001: "edge multiplicity must lie in 1..1000"},
    "validate n": {-1: "dimension n must be non-negative"},
    "restrict label": _LABELS,
    "ideal_hilbert label": _LABELS,
    "GradedSubalgebra r": {0: "component count must be positive"},
    "GradedSubalgebra generator degree": {0: "generator degree must be positive"},
    "kernel_basis label": {0: "component labels must lie in 1..2",
                           3: "component labels must lie in 1..2"},
    "positive_roots rank": {0: "A-family rank must be 1..8", 9: "A-family rank must be 1..8"},
    "weyl_order rank": {0: "A-family rank must be 1..8", 9: "A-family rank must be 1..8"},
    "component_parametrization j": {0: "component index must lie in 1..3",
                                    4: "component index must lie in 1..3"},
    "HomTuple degree": {-1: "tuple degree must be non-negative"},
    "poincare_from_degrees degree": {0: "degrees must be positive"},
    "elementary_symmetric k": {-1: "k must lie in 0..3", 4: "k must lie in 0..3"},
    "exterior_trace k": {-1: "k must lie in 0..2", 3: "k must lie in 0..2"},
    "chern_class k": {-1: "k must lie in 0..2", 3: "k must lie in 0..2"},
    "NodeAlgebra.graded_basis degree": {-1: "degree must be non-negative"},
    "GradedSubalgebra.graded_basis degree": {-1: "degree must be non-negative"},
    "GKMRing.basis degree": {-1: "tuple degree must be non-negative"},
    "Poly.monomial power": {-1: "monomial power must be non-negative"},
    "Poly power": {-1: "polynomial power must be non-negative"},
    "GKMRing.dim degree": {-1: "degree must be non-negative"},
    "betti_numbers bound": _BOUND,
    "ideal_hilbert bound": _BOUND,
    "principal_verdict bound": _BOUND,
    "chern_subalgebra_verdict bound": _BOUND,
    "degree_bound": _BOUND,
    "NodeAlgebra.hilbert_function bound": {-1: "degree bound must be non-negative"},
    "GradedSubalgebra.hilbert_function bound": {-1: "degree bound must be non-negative"},
    "GKMRing.hilbert bound": {-1: "degree bound must be non-negative"},
}


def test_every_bounded_parameter_has_out_of_range_cases():
    unbounded = {"GKMGraph.connected_components threshold"}
    assert set(OUT_OF_RANGE) == set(INTEGER_PARAMETERS) - unbounded


@pytest.mark.parametrize("name, value, message", [
    pytest.param(name, value, message, id=f"{name}={value}")
    for name, cases in OUT_OF_RANGE.items() for value, message in cases.items()])
def test_out_of_range_parameters_name_their_range(name, value, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        INTEGER_PARAMETERS[name](value)
