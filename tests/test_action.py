import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelcurve import oracles
from borelcurve.action import (ActionModel, big_cell_degrees,
                               check_fixed_point_return,
                               component_parametrization, exp_e, fixed_points,
                               model_from_json, principal_model,
                               sl2_family_checks, validate)
from borelcurve.errors import InputError, InternalError
from borelcurve.exactalg import Poly

from conftest import jordan_block


# ---------------------------------------------------------------------------
# validation


def test_validate_plane_and_line(plane_model, line_model):
    assert plane_model.h_weights == (2, 0, -2)
    assert line_model.h_weights == (1, -1)


def test_validate_rejects_non_regular():
    zero = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
    with pytest.raises(InputError, match="not regular"):
        validate(ActionModel(2, (2, 0, -2), zero))


def test_validate_rejects_repeated_weights():
    with pytest.raises(InputError, match="repeated"):
        validate(ActionModel(1, (1, 1), jordan_block(2)))


def test_validate_rejects_commutation_failure():
    e = ((Fraction(0), Fraction(0), Fraction(1)),
         (Fraction(0), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(0)))
    with pytest.raises(InputError, match="commutation"):
        validate(ActionModel(2, (2, 0, -2), e))


def test_validate_normalizes_coordinate_order(plane_model):
    perm = [1, 0, 2]  # scramble, then expect the sorted model back
    h = tuple(plane_model.h_weights[p] for p in perm)
    e = tuple(tuple(plane_model.e_matrix[perm[i]][perm[j]] for j in range(3))
              for i in range(3))
    normalized = validate(ActionModel(2, h, e))
    assert normalized == plane_model
    assert validate(normalized) == normalized  # idempotent


def test_validate_allows_shifted_weights_and_rescaled_e():
    # weights need not be symmetric and e entries need not be 1
    e = ((Fraction(0), Fraction(3)), (Fraction(0), Fraction(0)))
    m = validate(ActionModel(1, (3, 1), e))
    assert big_cell_degrees(m) == [1]


def test_model_from_json_principal_shorthand(plane_model):
    m = model_from_json({"n": 2, "h_weights": [2, 0, -2], "e_matrix": "principal"})
    assert m == principal_model(2) == plane_model
    with pytest.raises(InputError, match="^dimension n must be non-negative$"):
        principal_model(-1)
    for n, h in ((2.9, [2, 0, -2]), (True, [1, -1]), ("2", [2, 0, -2]),
                 (2, [2.4, 0, -2.2]), (2, [2, False, -2]), (2, [2, "0", -2])):
        with pytest.raises(InputError, match="expected an integer"):
            model_from_json({"n": n, "h_weights": h, "e_matrix": "principal"})
    for e in (5, [5, 6]):
        with pytest.raises(InputError, match="expected a list"):
            model_from_json({"n": 1, "h_weights": [1, -1], "e_matrix": e})


PLANE_E = [[0, 1, 0], [0, 0, 2], [0, 0, 0]]


@pytest.mark.parametrize("spec,message", [
    # n out of range, and h too long for it
    ({"n": -1, "h_weights": [1, -1], "e_matrix": "principal"},
     "dimension n must be non-negative"),
    # n a string, and no e_matrix
    ({"n": "2", "h_weights": [2, 0, -2]}, "bad action spec: expected an integer, got '2'"),
    # no h_weights, and n a float
    ({"n": 2.0, "e_matrix": "principal"}, "bad action spec: expected an integer, got 2.0"),
    # an explicit matrix is read before the weights
    ({"n": 2, "h_weights": [2, 0.5, -2], "e_matrix": [[0, 1, 0], [0, 0, 1.5], [0, 0, 0]]},
     "floating point values are not accepted; pass ints or 'p/q' strings"),
    ({"n": 2, "h_weights": [2, 0], "e_matrix": [[0, 1], [0, 0]]}, "expected a 3x3 matrix"),
    # entries are read row by row, every row before the size
    ({"n": 2, "h_weights": [2, 0, -2], "e_matrix": [[0, "x"], [0, 0, "1/0"], [0, 0, 0]]},
     "cannot parse rational 'x'"),
    ({"n": 2, "h_weights": [2, 0, -2], "e_matrix": [[0, 1], 7, [0, 0, 0]]},
     "expected a list, got 7"),
    ({"n": 2, "h_weights": [2, 0, -2], "e_matrix": [[0, 1], [0, 0, 1], [0, 0, True]]},
     "cannot interpret True as a rational number"),
    # the weights in turn: an entry, the length, a repeat
    ({"n": 2, "h_weights": [2, True, 2, 0], "e_matrix": "principal"},
     "expected an integer, got True"),
    ({"n": 2, "h_weights": [2, 2], "e_matrix": PLANE_E}, "h_weights must have length n+1 = 3"),
    ({"n": 2, "h_weights": [2, 2, -2], "e_matrix": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]},
     "repeated h-weights: torus fixed points are not isolated"),
    # the commutation, in any row, before the rank
    ({"n": 2, "h_weights": [2, 0, -2], "e_matrix": [[0, 0, 0], [0, 0, 0], [1, 0, 0]]},
     "commutation failure: [h, e] != 2e"),
    ({"n": 2, "h_weights": [2, 0, -2], "e_matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]},
     "commutation failure: [h, e] != 2e"),
    ({"n": 2, "h_weights": [2, 0, -2], "e_matrix": [[0, 1, 1], [0, 0, 0], [0, 0, 0]]},
     "commutation failure: [h, e] != 2e"),
    ({"n": 2, "h_weights": [4, 1, 2], "e_matrix": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]},
     "not regular: dim ker e = 2, expected 1"),
    ({"n": 2, "h_weights": [3, 1, 0], "e_matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]},
     "not regular: dim ker e = 2, expected 1"),
])
def test_spec_malformed_twice_reports_the_first_fault(spec, message):
    """Each spec breaks two rules; the error names the one read first."""
    with pytest.raises(InputError) as exc:
        model_from_json(spec)
    assert str(exc.value) == message


def test_model_from_json_reads_each_matrix_entry_once(monkeypatch):
    """validate is the one reader of an explicit e: nine entries, nine coercions."""
    import borelcurve.rational
    calls = []
    real = borelcurve.rational.to_fraction
    monkeypatch.setattr(borelcurve.rational, "to_fraction", lambda x: calls.append(x) or real(x))
    model = model_from_json({"n": 2, "h_weights": [2, 0, -2], "e_matrix": PLANE_E})
    assert len(calls) == 9
    assert model.e_matrix == ((0, 1, 0), (0, 0, 2), (0, 0, 0))


def test_refused_shorthand_builds_no_matrix():
    """The shorthand is expanded only after the weights pass, so a P^3000 spec
    with one repeated weight is refused before its 3001^2 entries exist."""
    spec = {"n": 3000, "h_weights": [3000 - 2 * i for i in range(3000)] + [0],
            "e_matrix": "principal"}
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="^repeated h-weights"):
            model_from_json(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_validate_reads_exact_and_raw_entries_alike(plane_model):
    raw = ActionModel(2, (0, 2, -2), ((0, 0, "2"), ("1/1", 0, 0), (0, 0, 0)))
    assert validate(raw) == validate(ActionModel(2, (0, 2, -2), tuple(
        tuple(Fraction(x) for x in row) for row in raw.e_matrix)))
    assert validate(raw).e_matrix == ((0, 1, 0), (0, 0, 2), (0, 0, 0))


# ---------------------------------------------------------------------------
# the unipotent exponential


def test_exp_e_plane_matches_known_matrix(plane_model):
    for s in (1, Fraction(-2, 3), "5/2"):
        got = exp_e(plane_model, s)
        s = Fraction(s)
        assert got == ((1, s, s * s / 2), (0, 1, s), (0, 0, 1))
        assert all(type(x) is Fraction for row in got for x in row)


def test_exp_e_at_zero_is_identity(plane_model):
    got = exp_e(plane_model, 0)
    assert got == tuple(tuple(Fraction(1 if i == j else 0) for j in range(3))
                        for i in range(3))


def test_exp_e_line(line_model):
    assert exp_e(line_model, Fraction(7, 3)) == ((1, Fraction(7, 3)), (0, 1))
    with pytest.raises(InputError, match="^cannot interpret Poly"):
        exp_e(line_model, Poly.variable())  # a rational parameter only


# ---------------------------------------------------------------------------
# fixed points and degrees


def test_fixed_points(plane_model, line_model):
    assert fixed_points(plane_model) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert fixed_points(line_model) == [(1, 0), (0, 1)]
    for n in range(0, 5):
        assert len(fixed_points(principal_model(n))) == n + 1


def test_big_cell_degrees(plane_model, line_model):
    assert big_cell_degrees(plane_model) == [1, 2]
    assert big_cell_degrees(line_model) == [1]
    for n in range(1, 7):
        assert big_cell_degrees(principal_model(n)) == list(range(1, n + 1))


# ---------------------------------------------------------------------------
# component parametrizations


def test_plane_parametrizations(plane_model):
    c1 = component_parametrization(plane_model, 1)
    assert all(p.is_zero() for p in c1.chart_coords)
    c2 = component_parametrization(plane_model, 2)
    assert c2.chart_coords == (Poly.variable(), Poly())
    c3 = component_parametrization(plane_model, 3)
    assert c3.chart_coords == (Poly.monomial(2, 1), Poly.monomial(2, 2))
    # the third component satisfies 2*w2 = w1^2 identically
    assert 2 * c3.chart_coords[1] == c3.chart_coords[0] ** 2


def test_line_parametrization(line_model):
    c2 = component_parametrization(line_model, 2)
    assert c2.chart_coords == (Poly.variable(),)


def test_parametrization_homogeneity():
    for n in range(1, 6):
        model = principal_model(n)
        degrees = big_cell_degrees(model)
        for j in range(1, n + 2):
            comp = component_parametrization(model, j)
            for i, p in enumerate(comp.chart_coords):
                if not p.is_zero():
                    assert p == Poly.monomial(p.coeffs[-1], degrees[i])  # one term


def test_parametrization_index_out_of_range(plane_model):
    with pytest.raises(InputError):
        component_parametrization(plane_model, 4)


nonzero_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(
    lambda q: q != 0)


@st.composite
def regular_models(draw, max_n=4):
    """Validated regular models beyond the principal one: shifted weights,
    permuted coordinates and a random nonzero rational superdiagonal."""
    n = draw(st.integers(1, max_n))
    r = n + 1
    shift = draw(st.integers(-5, 5))
    order = draw(st.permutations(range(r)))
    entries = draw(st.lists(nonzero_rationals, min_size=n, max_size=n))
    h = [0] * r
    e = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        h[order[i]] = n - 2 * i + shift
    for i in range(n):
        e[order[i]][order[i + 1]] = entries[i]
    return validate(ActionModel(n, tuple(h), tuple(tuple(row) for row in e)))


@given(regular_models(), st.data())
@settings(max_examples=60, deadline=None)
def test_parametrization_against_direct_flow(model, data):
    """Oracle: at n + 1 distinct nonzero rationals v0, the closed form's
    homogeneous coordinates equal v0^(j-1) times phi(1/v0) applied to the
    fixed point, and its charts equal that point over its o-coordinate.
    exp(e/v) is upper triangular in the normal form, so every coordinate on
    either side is a polynomial of degree <= j - 1 <= n in v, and the n + 1
    values prove the two equal."""
    j = data.draw(st.integers(1, model.n + 1))
    points = data.draw(st.lists(nonzero_rationals, min_size=model.n + 1,
                                max_size=model.n + 1, unique=True))
    comp = component_parametrization(model, j)
    for v0 in points:
        column = [row[j - 1] for row in exp_e(model, 1 / v0)]
        assert [p(v0) for p in comp.homog_coords] == [v0 ** (j - 1) * x for x in column]
        assert [p(v0) for p in comp.chart_coords] == [x / column[0] for x in column[1:]]


# ---------------------------------------------------------------------------
# return-to-fixed-point property


def test_fixed_point_return_examples(plane_model):
    assert check_fixed_point_return(plane_model, 3, 1)
    assert check_fixed_point_return(plane_model, 1, Fraction(7, 3))
    with pytest.raises(InputError):
        check_fixed_point_return(plane_model, 2, 0)


@given(regular_models(), st.data())
@settings(max_examples=80, deadline=None)
def test_fixed_point_return_random(model, data):
    j = data.draw(st.integers(1, model.n + 1))
    v0 = data.draw(nonzero_rationals)
    assert check_fixed_point_return(model, j, v0)


# ---------------------------------------------------------------------------
# 2x2 identities


def test_sl2_family_checks_pass():
    report = sl2_family_checks()
    assert set(report.values()) == {"ok"}
    assert "torus_conjugation_identity" in report
    assert "family_limits_unipotent_up_to_sign" in report


_PRODUCT = oracles._mat_mul


@pytest.mark.parametrize("wrong", [lambda a, b: _PRODUCT(b, a),
                                   lambda a, b: tuple(zip(*_PRODUCT(a, b)))],
                         ids=["reversed", "transposed"])
def test_sl2_family_checks_catch_a_wrong_product(monkeypatch, wrong):
    """b a in place of a b, or the transpose of a b, breaks the torus
    conjugation identity at the grid points."""
    monkeypatch.setattr(oracles, "_mat_mul", wrong)
    with pytest.raises(InternalError, match="^torus conjugation identity failed$"):
        oracles.sl2_family_checks()


_W = ((1, 0), (0, -1))


def _w_after_a_fraction(a, b):
    """a b, except W a when b is W and a has a non-integer entry."""
    if b == _W and any(x.denominator != 1 for row in a for x in row):
        return _PRODUCT(b, a)
    return _PRODUCT(a, b)


def _off_by_one_after_a_negative(a, b):
    """a b, its top right entry plus one when b's top left entry is negative:
    only the (iii) products phi(1/v) diag(a, 1/a) with a < 0 have one."""
    ab = _PRODUCT(a, b)
    return ((ab[0][0], ab[0][1] + 1), ab[1]) if b[0][0] < 0 else ab


@pytest.mark.parametrize("wrong, message", [
    (lambda a, b: _PRODUCT(b, a) if b == _W else _PRODUCT(a, b), "phi(u) W phi(-u) != W - 2u N"),
    (_w_after_a_fraction, "v * Ad(phi(1/v)) W != v W - 2 N"),
    (_off_by_one_after_a_negative, "family limit has the wrong off-diagonal entry"),
], ids=["W-on-the-right", "W-after-a-fraction", "limit-off-by-one"])
def test_sl2_family_checks_catch_each_broken_step(monkeypatch, wrong, message):
    """A product wrong only for W on the right, or only for W after a
    non-integer matrix, breaks the first or the second identity of (ii); one
    whose (iii) entry, and so the limit at v = 0, is off by one for negative a
    breaks (iii).  (iv) is (ii) at v = 0 and raises nothing of its own."""
    monkeypatch.setattr(oracles, "_mat_mul", wrong)
    with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
        oracles.sl2_family_checks()
