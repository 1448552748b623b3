import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borelcurve.errors import InputError, InternalError
from borelcurve.exactalg import (GradedSubalgebra, HomTuple, Poly, RowSpace,
                                 format_fraction, nullspace, rref, solve_linear_system,
                                 to_fraction)


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


def _pattern_reader(text: str) -> Fraction:
    """The string branch of to_fraction as a regular expression."""
    match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", text.strip())
    if match is not None:
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"cannot parse rational {text!r}")


def _outcome(read, text):
    try:
        return read(text)
    except InputError as exc:
        return str(exc)


# pieces of strings: digits, signs, slashes, whitespace, underscores, exponents
# and non-ASCII digits (Arabic-Indic three, superscript two, fullwidth one)
PIECES = ["0", "1", "7", "09", "42", "+", "-", "/", " ", "\t", "\n", "\u3000", "_", "e",
          "\u0663", "\u00b2", "\uff11"]


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=7).map("".join))
@example("7/-1")
@example("7/+1")
@example("1/ 2")
@example("1 /2")
@example("\t-0/09 ")
@example("+-1")
@example("/")
@example("1/")
@example("1/0")
@example("1/2/3")
def test_to_fraction_reads_strings_as_the_pattern_does(text):
    """Digits, signs, slashes, whitespace, underscores, non-ASCII digits and
    exponents: the same Fraction or the same error as the pattern."""
    assert _outcome(to_fraction, text) == _outcome(_pattern_reader, text)


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
def test_rref_is_a_reduced_echelon_basis_of_the_span(rows):
    """rref against the independent reduction below: its rows are in reduced
    echelon form and span what the input rows span; sparse rows give zero
    entries and zero rows."""
    red, pivots = rref(rows)
    assert pivots == _assert_reduced_echelon(red)
    rows = [[to_fraction(x) for x in row] for row in rows]
    assert all(_in_span(red, row) for row in rows)
    assert all(_in_span(_span_basis(rows), row) for row in red)


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


# name -> (a call that must fail, its exception, its exact message)
REJECTED = {
    "empty tuple": (lambda: HomTuple(0, ()), InputError,
                    "tuple needs at least one component"),
    "tuple sum across r": (lambda: tup(1, 1, 2) + tup(1, 1, 2, 3), InputError,
                           "component-count mismatch"),
    "generators of another r": (lambda: GradedSubalgebra(2, [tup(1, 1, 1, 1)]), InputError,
                                "component-count mismatch between generators"),
    "coordinates at another r": (lambda: make_plane_algebra().coordinates(tup(1, 1, 1)),
                                 InputError, "component-count mismatch"),
    "inconsistent system": (lambda: solve_linear_system([[1, 1], [1, 1]], [1, 2]),
                            InternalError, "inconsistent linear system"),
    "underdetermined system": (lambda: solve_linear_system([[1, 1]], [1]), InternalError,
                               "linear system does not have a unique solution"),
    "rref row shorter than the first": (lambda: rref([[1, 2], [3]]), InputError,
                                        "matrix rows differ in length"),
    "rref row longer than the first": (lambda: rref([[1], [2, 3]]), InputError,
                                       "matrix rows differ in length"),
    "nullspace row shorter than ncols": (lambda: nullspace([[1, 2]], 3), InputError,
                                         "matrix rows must have 3 entries"),
    "nullspace row longer than ncols": (lambda: nullspace([[1, 2, 3]], 2), InputError,
                                        "matrix rows must have 2 entries"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_rejected_inputs_name_the_fault(name):
    call, error, message = REJECTED[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


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
    assert GradedSubalgebra(1, []).kernel_basis([1], 1) == []  # V_1 = 0


def test_degree_zero_saturation_multiplies_what_it_adds():
    """g = (0, 1, 2) of degree 0 puts g and g o g = (0, 1, 4) into V_0 beside
    the unit, so V_0 = Q^3; multiplying only the unit by g stops at dim 2."""
    assert GradedSubalgebra(3, [HomTuple(0, (0, 1, 2))]).hilbert_function(0) == [3]


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


def _reduce(basis, vec):
    v = list(vec)
    for b in basis:
        p = next(i for i, x in enumerate(b) if x != 0)
        if v[p] != 0:
            f = v[p] / b[p]
            v = [a - f * c for a, c in zip(v, b)]
    return v


def _span_basis(vectors):
    """An echelon basis of the span of the vectors, by the reduction above."""
    basis = []
    for vec in vectors:
        v = _reduce(basis, vec)
        if any(x != 0 for x in v):
            basis.append(v)
    return basis


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
    # any power of a degree-0 generator keeps the degree: multiply them into
    # the span until it stops growing
    zero_gens = [g.coeffs for g in gens if g.degree == 0]
    basis = _span_basis(vectors)
    while True:
        grown = _span_basis(basis + [[a * c for a, c in zip(b, g)]
                                     for g in zero_gens for b in basis])
        if len(grown) == len(basis):
            return basis
        basis = grown


def _in_span(basis, vec):
    return all(x == 0 for x in _reduce(basis, vec))


def _assert_reduced_echelon(rows):
    """The pivots (first nonzero entries) strictly increase, each is 1 and its
    column is 0 in every other row; returns the pivots."""
    pivots = [next(i for i, x in enumerate(row) if x != 0) for row in rows]
    assert pivots == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert [row[p] for row in rows] == [int(i == j) for j in range(len(rows))]
    return pivots


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
        deg = data.draw(st.integers(0, 3))  # degree 0 runs the saturation
        coeffs = tuple(data.draw(small_fractions) for _ in range(r))
        gens.append(HomTuple(deg, coeffs))
    alg = GradedSubalgebra(r, gens)
    d = data.draw(st.integers(0, 5))
    oracle = _oracle_dim_and_span(r, gens, d)
    dp = alg.graded_basis(d)
    assert len(dp) == len(oracle)
    for t in dp:
        assert _in_span(oracle, t.coeffs)


PLANE_SPECS = [(1, [1, 1, 1, 0]), (1, [0, 1, 2, 0]), (2, [0, 0, 2, 0])]


@given(st.integers(1, 4),
       st.lists(st.tuples(st.integers(0, 3),  # degree 0 runs the saturation
                          st.lists(small_fractions, min_size=4, max_size=4)), max_size=3),
       st.sets(st.integers(1, 4), min_size=1), st.integers(0, 6))
@example(3, PLANE_SPECS, {1, 2, 3}, 5)  # every label past full rank: no kernel
@example(3, PLANE_SPECS, {2}, 4)  # past full rank: every x with x_2 = 0
@settings(max_examples=100, deadline=None)
def test_kernel_basis_is_the_canonical_kernel(r, specs, subset, d):
    """The rows lie in V_d and are 0 on the subset, are in reduced echelon
    form, and number dim V_d minus the rank of V_d's subset columns, all read
    off the brute-force slice (a subset with no label <= r means every label)."""
    gens = [HomTuple(degree, coeffs[:r]) for degree, coeffs in specs]
    subset = sorted(p for p in subset if p <= r) or list(range(1, r + 1))
    slice_d = _oracle_dim_and_span(r, gens, d)
    kernel = [t.coeffs for t in GradedSubalgebra(r, gens).kernel_basis(subset, d)]
    _assert_reduced_echelon(kernel)
    for x in kernel:
        assert _in_span(slice_d, x) and all(x[p - 1] == 0 for p in subset)
    on_subset = _span_basis([[x[p - 1] for p in subset] for x in slice_d])
    assert len(kernel) == len(slice_d) - len(on_subset)


@given(st.integers(1, 4), st.booleans(), st.integers(0, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_hilbert_function_is_the_slice_dims(r, with_v, max_degree, data):
    """The Hilbert function equals the per-slice dimensions; with v a generator
    the slices form a chain, so no slice past the first full one is built."""
    gens = [HomTuple(data.draw(st.integers(0, 3)),  # degree 0 runs the saturation
                     tuple(data.draw(small_fractions) for _ in range(r)))
            for _ in range(data.draw(st.integers(0, 3)))]
    if with_v:
        gens.append(HomTuple.ones(r, 1))
    alg = GradedSubalgebra(r, gens)
    hilbert = alg.hilbert_function(max_degree)
    dims = [len(GradedSubalgebra(r, gens).graded_basis(d)) for d in range(max_degree + 1)]
    assert hilbert == dims
    if HomTuple.ones(r, 1) not in gens:
        assert len(alg._slices) == max_degree + 1
    elif r in dims:  # a plateau is final, so none comes before full rank
        assert len(alg._slices) == dims.index(r) + 1


def _plateau_degree(dims, k):
    """First p with dims[p] = ... = dims[p + k] (equal ends suffice on a chain)."""
    return next(p for p in range(len(dims) - k) if dims[p] == dims[p + k])


@given(st.integers(1, 5), st.booleans(), st.integers(0, 14), st.data())
@settings(max_examples=80, deadline=None)
def test_plateau_stop_matches_a_loop_without_stop(r, zero_degree, bound, data):
    """With v a generator, K + 1 equal dimensions in a row fill the rest of the
    Hilbert function (K the largest generator degree); a loop that builds every
    slice agrees, and at most (first plateau degree) + K + 1 slices are built.
    Generators constant on random blocks of positions plateau below r."""
    block = [data.draw(st.integers(0, r - 1)) for _ in range(r)]
    degrees = st.integers(0 if zero_degree else 1, 4)
    gens = [HomTuple(data.draw(degrees),
                     tuple(values[b] for b in block))
            for values in (data.draw(st.lists(small_fractions, min_size=r, max_size=r))
                           for _ in range(data.draw(st.integers(0, 3))))]
    gens.append(HomTuple.ones(r, 1))
    k = max(g.degree for g in gens)
    alg = GradedSubalgebra(r, gens)
    unstopped = GradedSubalgebra(r, gens)
    dims = [unstopped._slice(d).dim for d in range(max(bound, 0) + 2 * k + 2 * r + 1)]
    assert alg.hilbert_function(bound) == dims[:bound + 1]
    assert len(alg._slices) <= _plateau_degree(dims, k) + k + 1


def test_plateau_builds_plateau_plus_k_slices():
    """Classes constant on the pairs {1, 2}, {3, 4}, {5, 6} span at most three
    dimensions: the Hilbert function is [1, 2, 3, 3, ...], first constant from
    degree 2, and with K = 3 the slices built are degrees 0..2 + K, not 0..bound."""
    gens = [tup(1, 1, 1, 2, 2, 5, 5), tup(3, 0, 0, 1, 1, 7, 7), tup(1, 1, 1, 1, 1, 1, 1)]
    alg = GradedSubalgebra(6, gens)
    assert alg.hilbert_function(200) == [1, 2] + [3] * 199
    assert len(alg._slices) == 2 + 3 + 1
    assert GradedSubalgebra(6, gens).hilbert_function(4) == [1, 2, 3, 3, 3]
