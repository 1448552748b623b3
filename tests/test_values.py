"""Semantics of the package's value classes: construction, equality, hashing
and immutability."""

from fractions import Fraction

import pytest

from borelcurve.action import ActionModel, CurveComponent
from borelcurve.chern import BundleData, MatrixFibre, SplitFibre
from borelcurve.curve import CurveRing
from borelcurve.exactalg import GradedSubalgebra, HomTuple, Poly
from borelcurve.gkm import GKMGraph, PrincipalityVerdict
from borelcurve.rootsystems import PoincarePoly, RootSystem

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


def test_construction_rejects_bad_arguments():
    with pytest.raises(TypeError):
        HomTuple(1)
    with pytest.raises(TypeError):
        Poly((1,), (2,))
    with pytest.raises(TypeError):
        Poly(degree=1)
    with pytest.raises(TypeError):
        SplitFibre((1,), weights=(1,))
