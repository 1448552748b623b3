from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelcurve.errors import InputError
from borelcurve.exactalg import (GradedSubalgebra, HomTuple, Poly, RowSpace,
                                 format_fraction, nullspace, rref, to_fraction)


def tup(degree, *coeffs):
    return HomTuple(degree, tuple(Fraction(c) for c in coeffs))


def make_plane_algebra():
    # generators of the curve ring of the worked P^2 action
    return GradedSubalgebra(3, [tup(1, 1, 1, 1), tup(1, 0, 1, 2), tup(2, 0, 0, 2)])


# ---------------------------------------------------------------------------
# rationals and polynomials


def test_to_fraction_parses_and_rejects_floats():
    assert to_fraction("3/4") == Fraction(3, 4)
    assert to_fraction(-5) == Fraction(-5)
    assert format_fraction(Fraction(-3, 7)) == "-3/7"
    assert format_fraction(Fraction(4, 2)) == "2"
    with pytest.raises(InputError):
        to_fraction(0.5)
    with pytest.raises(InputError):
        to_fraction("not-a-number")


def test_to_fraction_accepts_only_integers_and_p_over_q():
    assert [to_fraction(s) for s in ("7", " -2/6 ", "+3", "0/5", "-0")] == [
        7, Fraction(-1, 3), 3, 0, 0]
    for text in ("0.5", ".5", "5.", "1e3", "1E-2", "1e999999999", "1_000", "1/2_0",
                 "\u0663", "1 / 2", "1/-2", "1/0", "inf", "nan", "0x10", "", "9" * 5000):
        with pytest.raises(InputError, match="cannot parse rational"):
            to_fraction(text)


def test_poly_basics():
    v = Poly.variable()
    p = 2 * v**2 + v + 1
    assert p.coeffs == (Fraction(1), Fraction(1), Fraction(2))
    assert p(Fraction(1, 2)) == Fraction(2)
    assert Poly().degree == -1
    assert (p - p).is_zero()
    assert Poly.monomial(3, 4).as_monomial() == (Fraction(3), 4)
    assert (v + 1).as_monomial() is None


@pytest.mark.parametrize("c", [0, 1, -3, Fraction(2, 7), "5/4", "0"])
@pytest.mark.parametrize("k", [0, 1, 6])
def test_monomial_equals_dense_construction(c, k):
    mono = Poly.monomial(c, k)
    dense = Poly((0,) * k + (c,))
    assert mono == dense and hash(mono) == hash(dense)
    assert all(type(x) is Fraction for x in mono.coeffs)
    with pytest.raises(InputError):
        Poly.monomial(c, -1)


def test_poly_divmod_exact():
    v = Poly.variable()
    num = (1 - v**3) * (1 - v**2)
    q, r = divmod(num, 1 - v)
    assert r.is_zero()
    assert q * (1 - v) == num
    q2, r2 = divmod(1 - v**3, 1 - v**2)
    assert not r2.is_zero()


def test_rref_and_nullspace():
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(0), Fraction(1), Fraction(1)]]
    red, pivots = rref(rows)
    assert len(red) == 2 and pivots == [0, 1]
    ns = nullspace(rows, 3)
    assert len(ns) == 1
    x = ns[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, x)) == 0


@given(st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, "1/2"]), min_size=4, max_size=4),
                max_size=5))
@settings(max_examples=200, deadline=None)
def test_rref_is_the_canonical_basis(rows):
    """rref and RowSpace both give the unique reduced echelon basis; sparse
    rows exercise the zero entries that rref skips."""
    space = RowSpace(4)
    for row in rows:
        space.add(row)
    red, pivots = rref(rows)
    assert [tuple(row) for row in red] == space.basis_vectors()
    assert pivots == space.pivots


def test_rowspace_is_canonical_under_insertion_order():
    a = RowSpace(3)
    b = RowSpace(3)
    vecs = [(1, 2, 3), (0, 1, 1), (1, 3, 4)]
    for v in vecs:
        a.add(v)
    for v in reversed(vecs):
        b.add(v)
    assert a.basis_vectors() == b.basis_vectors()
    assert a.dim == 2


def test_rowspace_coordinates_roundtrip():
    s = RowSpace(4)
    s.add((1, 0, 2, 1))
    s.add((0, 1, 1, 1))
    target = [Fraction(3), Fraction(-2), Fraction(4), Fraction(1)]
    coords = s.coordinates(target)
    assert coords is not None
    recon = [Fraction(0)] * 4
    for c, row in zip(coords, s.basis_vectors()):
        recon = [x + c * y for x, y in zip(recon, row)]
    assert recon == target
    assert s.coordinates((1, 1, 1, 1)) is None


# ---------------------------------------------------------------------------
# homogeneous tuples


def test_homtuple_json_roundtrip():
    t = tup(2, Fraction(1, 3), -4, 0)
    blob = t.to_json()
    assert blob == {"degree": 2, "coeffs": ["1/3", "-4", "0"]}
    assert HomTuple.from_json(blob) == t
    with pytest.raises(InputError):
        HomTuple.from_json({"coeffs": ["1"]})
    with pytest.raises(InputError, match="expected an integer"):
        HomTuple.from_json({"degree": 2.7, "coeffs": ["1"]})


def test_homtuple_product_and_errors():
    a = tup(1, 1, 2, 3)
    b = tup(2, 2, 0, -1)
    assert (a * b).degree == 3
    assert (a * b).coeffs == (Fraction(2), Fraction(0), Fraction(-3))
    with pytest.raises(InputError):
        a * tup(1, 1, 2)
    with pytest.raises(InputError):
        a + b  # degree mismatch
    with pytest.raises(InputError):
        HomTuple(-1, (Fraction(1),))


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@given(st.integers(1, 5), st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_hadamard_multiplicativity(r, d1, d2, data):
    a = HomTuple(d1, tuple(data.draw(small_fractions) for _ in range(r)))
    b = HomTuple(d2, tuple(data.draw(small_fractions) for _ in range(r)))
    prod = a * b
    assert prod.degree == d1 + d2
    assert prod.coeffs == tuple(x * y for x, y in zip(a.coeffs, b.coeffs))


# ---------------------------------------------------------------------------
# graded subalgebras: the worked examples


def test_graded_basis_degree_one():
    alg = make_plane_algebra()
    basis = alg.graded_basis(1)
    assert len(basis) == 2
    span = RowSpace(3)
    for t in basis:
        span.add(t.coeffs)
    assert span.contains((1, 1, 1)) and span.contains((0, 1, 2))


def test_graded_basis_unit_only():
    alg = GradedSubalgebra(4, [])
    basis = alg.graded_basis(0)
    assert [t.coeffs for t in basis] == [(1, 1, 1, 1)]


def test_graded_basis_degree_two_fills_space():
    alg = make_plane_algebra()
    assert len(alg.graded_basis(2)) == 3


def test_hilbert_function_examples():
    assert make_plane_algebra().hilbert_function(4) == [1, 2, 3, 3, 3]
    assert GradedSubalgebra(1, []).hilbert_function(2) == [1, 0, 0]


def test_member_examples():
    alg = make_plane_algebra()
    assert alg.member(tup(1, 6, 0, -6))
    assert not alg.member(tup(1, 1, 0, 0))
    assert alg.member(tup(3, 0, 0, 0))
    assert GradedSubalgebra(1, []).member(HomTuple(5, (0,)))  # zero is everywhere
    with pytest.raises(InputError):
        alg.member(tup(1, 1, 0))


def test_member_at_high_degree_on_fresh_algebra():
    # slices are built bottom-up, so no recursion depth grows with the degree
    assert make_plane_algebra().member(tup(5000, 1, 1, 1))
    assert not GradedSubalgebra(2, [tup(2, 1, 1)]).member(tup(5001, 1, 0))


def test_quotient_by_v_dims():
    alg = make_plane_algebra()
    assert alg.quotient_by_v_dims(3) == [1, 1, 1, 0]
    v_only = GradedSubalgebra(1, [tup(1, 1)])
    assert v_only.quotient_by_v_dims(2) == [1, 0, 0]
    no_v = GradedSubalgebra(3, [tup(1, 0, 1, 2)])
    with pytest.raises(InputError):
        no_v.quotient_by_v_dims(2)


def test_kernel_basis_examples():
    alg = make_plane_algebra()
    assert alg.kernel_basis([1, 2, 3], 2) == []
    assert alg.kernel_basis([1, 2], 1) == []
    k2 = alg.kernel_basis([1, 2], 2)
    assert len(k2) == 1 and k2[0].coeffs == (0, 0, 1)
    with pytest.raises(InputError):
        alg.kernel_basis([], 1)
    with pytest.raises(InputError):
        alg.kernel_basis([0], 1)


def test_kernel_dims_stabilize_at_complement_count():
    alg = make_plane_algebra()
    for labels in ([1], [2], [3], [1, 2], [2, 3], [1, 3]):
        dims = [len(alg.kernel_basis(labels, d)) for d in range(8)]
        assert dims == sorted(dims)
        assert dims[-1] == 3 - len(labels)


def test_chain_property_and_quotient_sum():
    alg = make_plane_algebra()
    for d in range(1, 7):
        lower = alg.graded_basis(d - 1)
        for t in lower:
            assert alg.member(HomTuple(d, t.coeffs))
    assert sum(alg.quotient_by_v_dims(8)) == 3
    assert alg.generator_support() == {1, 2, 3}


def test_coordinates_rebuild_target_exactly():
    alg = make_plane_algebra()
    t = tup(2, 5, Fraction(1, 3), -2)
    coords = alg.coordinates(t)
    assert coords is not None
    basis = alg.graded_basis(2)
    recon = [Fraction(0)] * 3
    for c, b in zip(coords, basis):
        recon = [x + c * y for x, y in zip(recon, b.coeffs)]
    assert tuple(recon) == t.coeffs
    assert alg.coordinates(tup(1, 1, 0, 0)) is None


# ---------------------------------------------------------------------------
# independent oracle: enumerate every monomial of total degree d and span


def _oracle_dim_and_span(r, gens, d):
    vectors = []

    def rec(idx, remaining, current):
        if remaining == 0:
            vectors.append(tuple(current))
            return
        if idx == len(gens):
            return
        rec(idx + 1, remaining, current)
        g = gens[idx]
        if 1 <= g.degree <= remaining:
            rec(idx, remaining - g.degree,
                [a * b for a, b in zip(current, g.coeffs)])

    rec(0, d, [Fraction(1)] * r)
    basis = []
    for vec in vectors:
        v = list(vec)
        for b in basis:
            p = next(i for i, x in enumerate(b) if x != 0)
            if v[p] != 0:
                f = v[p] / b[p]
                v = [a - f * c for a, c in zip(v, b)]
        if any(x != 0 for x in v):
            basis.append(v)
    return basis


def _in_span(basis, vec):
    v = list(vec)
    for b in basis:
        p = next(i for i, x in enumerate(b) if x != 0)
        if v[p] != 0:
            f = v[p] / b[p]
            v = [a - f * c for a, c in zip(v, b)]
    return all(x == 0 for x in v)


def test_dp_matches_brute_force_on_plane_generators():
    alg = make_plane_algebra()
    for d in range(7):
        oracle = _oracle_dim_and_span(3, alg.generators, d)
        dp = alg.graded_basis(d)
        assert len(dp) == len(oracle)
        for t in dp:
            assert _in_span(oracle, t.coeffs)


@given(st.integers(1, 4), st.data())
@settings(max_examples=50, deadline=None)
def test_dp_matches_brute_force_randomized(r, data):
    n_gens = data.draw(st.integers(0, 3))
    gens = []
    for _ in range(n_gens):
        deg = data.draw(st.integers(1, 3))
        coeffs = tuple(data.draw(small_fractions) for _ in range(r))
        gens.append(HomTuple(deg, coeffs))
    alg = GradedSubalgebra(r, gens)
    d = data.draw(st.integers(0, 5))
    oracle = _oracle_dim_and_span(r, gens, d)
    dp = alg.graded_basis(d)
    assert len(dp) == len(oracle)
    for t in dp:
        assert _in_span(oracle, t.coeffs)
