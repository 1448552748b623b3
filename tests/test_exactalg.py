import math
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borelcurve.action import ActionModel, big_cell_degrees
from borelcurve.errors import InputError, InternalError
from borelcurve.exactalg import (GradedSubalgebra, HomTuple, Poly, RowSpace, nullspace, rref,
                                 to_fraction)
from borelcurve.exponents import PoincarePoly
from borelcurve.rational import format_fraction

from conftest import definition_slices, in_span, monomial_span, span_basis


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
    assert all(in_span(red, row) for row in rows)
    assert all(in_span(span_basis(rows), row) for row in red)


def test_rowspace_is_canonical_under_insertion_order():
    """The echelon rows depend on the insertion order; the pivots, the
    dimension and the rref of the rows do not."""
    a = RowSpace(3)
    b = RowSpace(3)
    vecs = [(1, 2, 3), (0, 1, 1), (1, 3, 4)]
    for v in vecs:
        a.add(v)
    for v in reversed(vecs):
        b.add(v)
    assert a.pivots == b.pivots and a.dim == b.dim == 2
    assert rref(a.rows) == rref(b.rows)


def test_rowspace_coordinates_roundtrip():
    """A vector that reduces to zero is the sum of the rref rows weighted by
    its entries at the pivots; one outside the span leaves a remainder.  The
    echelon rows themselves are not reduced here."""
    s = RowSpace(4)
    s.add((1, 1, 3, 2))
    s.add((1, 0, 2, 1))
    target = [Fraction(3), Fraction(-2), Fraction(4), Fraction(1)]
    assert not any(s.reduce(target))
    red, pivots = rref(s.rows)
    assert s.rows == [[1, 1, 3, 2], [0, 1, 1, 1]] and red == [[1, 0, 2, 1], [0, 1, 1, 1]]
    recon = [Fraction(0)] * 4
    for p, row in zip(pivots, red):
        recon = [x + target[p] * y for x, y in zip(recon, row)]
    assert recon == target
    assert any(s.reduce((1, 1, 1, 1)))


def _rationals(rows):
    return [[to_fraction(x) for x in row] for row in rows]


vectors = st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, "1/2", "-2/3", "5/6"]),
                            min_size=4, max_size=4), max_size=7).map(_rationals)


@given(vectors.flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows))), vectors)
@example((_rationals([[0, 0, 0, 0], [1, 2, 0, 0], [1, 2, 0, 0], [-2, -4, 0, 0]]),) * 2,
         _rationals([[2, 4, 0, 0], [0, 0, 0, 1]]))
@settings(max_examples=300, deadline=None)
def test_integer_echelon_matches_the_oracle(drawn, probes):
    """RowSpace against the independent reduction of conftest, over rational
    vectors inserted in a drawn order (denominators, negative entries, zeros,
    repeats and the zero vector): the dimension, membership, primitive integer
    rows with increasing pivots that no later insert edits, and an rref that
    the insertion order does not change."""
    rows, order = drawn
    space = RowSpace(4)
    for i, vec in enumerate(order):
        kept = [(row, list(row)) for row in space.rows]
        space.add(vec)
        assert all(any(row is new for new in space.rows) and row == copy for row, copy in kept)
        assert space.dim == len(span_basis(order[:i + 1]))
    for row, p in zip(space.rows, space.pivots):
        assert all(type(x) is int for x in row) and math.gcd(*row) == 1
        assert row[p] > 0 and not any(row[:p])
    assert space.pivots == sorted(set(space.pivots))
    for x in rows + probes:
        assert (not any(space.reduce(x))) == in_span(span_basis(rows), x)
    assert rref(space.rows) == rref(rows)


# ---------------------------------------------------------------------------
# homogeneous tuples


def test_homtuple_json_roundtrip():
    assert tup(2, Fraction(1, 3), -4, 0).to_json() == {"degree": 2, "coeffs": ["1/3", "-4", "0"]}


# name -> (a call that must fail, its exception, its exact message)
def _spanned_by(vec) -> RowSpace:
    space = RowSpace(len(vec))
    space.add(vec)
    return space


REJECTED = {
    "empty tuple": (lambda: HomTuple(0, ()), InputError,
                    "tuple needs at least one component"),
    "generators of another r": (lambda: GradedSubalgebra(2, [tup(1, 1, 1, 1)]), InputError,
                                "component-count mismatch between generators"),
    "coordinates at another r": (lambda: make_plane_algebra().coordinates(tup(1, 1, 1)),
                                 InputError, "component-count mismatch"),
    "rref row shorter than the first": (lambda: rref([[1, 2], [3]]), InputError,
                                        "matrix rows differ in length"),
    "rref row longer than the first": (lambda: rref([[1], [2, 3]]), InputError,
                                       "matrix rows differ in length"),
    "nullspace row shorter than ncols": (lambda: nullspace([[1, 2]], 3), InputError,
                                         "matrix rows must have 3 entries"),
    "nullspace row longer than ncols": (lambda: nullspace([[1, 2, 3]], 2), InputError,
                                        "matrix rows must have 2 entries"),
    "RowSpace reduce of a longer vector": (lambda: _spanned_by((1, 2, 3)).reduce((1, 2, 3, 4)),
                                           InputError, "matrix rows differ in length"),
    "RowSpace add of a shorter vector": (lambda: _spanned_by((1, 2, 3)).add((5,)), InputError,
                                         "matrix rows differ in length"),
    "tuple coeffs as a string": (lambda: HomTuple(1, "123"), InputError,
                                 "tuple coeffs must be a list, not the string '123'"),
    "None as a rational": (lambda: to_fraction(None), InputError,
                           "cannot interpret None as a rational number"),
    "unvalidated model with odd weight gaps": (
        lambda: big_cell_degrees(ActionModel(2, (2, 1, 0), ((0,) * 3,) * 3)), InternalError,
        "h-weight parity violation; model was not validated"),
    "Poincare polynomial without constant term 1": (
        lambda: PoincarePoly((2, 1, 2)), InternalError,
        "Poincare polynomial must have constant term 1"),
    "Poincare polynomial with a negative coefficient": (
        lambda: PoincarePoly((1, -1, 1)), InternalError,
        "Poincare polynomial has a negative coefficient"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_rejected_inputs_name_the_fault(name):
    call, error, message = REJECTED[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


# ---------------------------------------------------------------------------
# graded subalgebras: the worked examples


def test_graded_basis_degree_one():
    alg = make_plane_algebra()
    basis = alg.graded_basis(1)
    assert len(basis) == 2
    span = RowSpace(3)
    for t in basis:
        span.add(t.coeffs)
    assert not any(span.reduce((1, 1, 1))) and not any(span.reduce((0, 1, 2)))


def test_graded_basis_unit_only():
    alg = GradedSubalgebra(4, [])
    basis = alg.graded_basis(0)
    assert [t.coeffs for t in basis] == [(1, 1, 1, 1)]


def test_graded_basis_degree_two_fills_space():
    alg = make_plane_algebra()
    assert len(alg.graded_basis(2)) == 3


def test_hilbert_function_examples():
    assert make_plane_algebra().hilbert_function(4) == [1, 2, 3, 3, 3]
    assert GradedSubalgebra(1, []).hilbert_function(2) == [1, 1, 1]  # v is implicit


def test_member_examples():
    alg = make_plane_algebra()
    assert alg.member(tup(1, 6, 0, -6))
    assert not alg.member(tup(1, 1, 0, 0))
    assert alg.member(tup(3, 0, 0, 0))
    assert GradedSubalgebra(1, []).member(HomTuple(5, (0,)))  # zero is everywhere
    with pytest.raises(InputError):
        alg.member(tup(1, 1, 0))


def test_member_at_high_degree_on_fresh_algebra():
    """Slices are built bottom-up, so no recursion depth grows with the degree,
    and none past the stop: the plane algebra is full from degree 2, and one
    degree-1 generator with 40 distinct entries is full from degree 39."""
    plane = make_plane_algebra()
    assert plane.member(tup(5000, 1, 1, 1)) and len(plane._slices) == 3
    assert not GradedSubalgebra(2, [tup(2, 1, 1)]).member(tup(5001, 1, 0))
    points = GradedSubalgebra(40, [HomTuple(1, tuple(range(40)))])
    assert len(points.graded_basis(3000)) == 40 and len(points._slices) == 40


def test_quotient_by_v_dims():
    alg = make_plane_algebra()
    assert alg.quotient_by_v_dims(3) == [1, 1, 1, 0]
    v_only = GradedSubalgebra(1, [tup(1, 1)])
    assert v_only.quotient_by_v_dims(2) == [1, 0, 0]


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
    assert GradedSubalgebra(1, []).kernel_basis([1], 1) == []  # V_1 is spanned by v = (1)


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
        oracle = monomial_span(3, alg.generators, d)
        dp = alg.graded_basis(d)
        assert len(dp) == len(oracle)
        for t in dp:
            assert in_span(oracle, t.coeffs)


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
    oracle = monomial_span(r, gens, d)
    dp = alg.graded_basis(d)
    assert len(dp) == len(oracle)
    for t in dp:
        assert in_span(oracle, t.coeffs)


PLANE_SPECS = [(1, [1, 1, 1, 0]), (1, [0, 1, 2, 0]), (2, [0, 0, 2, 0])]


@given(st.integers(1, 4),
       st.lists(st.tuples(st.integers(1, 3), st.lists(small_fractions, min_size=4, max_size=4)),
                max_size=3),
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
    slice_d = monomial_span(r, gens, d)
    kernel = [t.coeffs for t in GradedSubalgebra(r, gens).kernel_basis(subset, d)]
    _assert_reduced_echelon(kernel)
    for x in kernel:
        assert in_span(slice_d, x) and all(x[p - 1] == 0 for p in subset)
    on_subset = span_basis([[x[p - 1] for p in subset] for x in slice_d])
    assert len(kernel) == len(slice_d) - len(on_subset)


@given(st.integers(1, 6), st.lists(st.integers(0, 5), min_size=6, max_size=6),
       st.lists(st.tuples(st.integers(1, 4), st.lists(small_fractions, min_size=6, max_size=6)),
                max_size=3),
       st.sets(st.integers(1, 6), min_size=1), st.one_of(st.integers(0, 12), st.just(200)))
@example(6, [0, 0, 1, 1, 2, 2], [(1, [1, 2, 5, 0, 0, 0]), (3, [0, 1, 7, 0, 0, 0])], {1, 3}, 200)
@example(3, [0, 1, 2, 0, 0, 0], [(1, [0, 1, 2, 0, 0, 0]), (2, [0, 0, 2, 0, 0, 0])], {2}, 200)
@settings(max_examples=100, deadline=None)
def test_every_question_past_the_stop_reads_the_definition(r, block, specs, subset, d):
    """graded_basis, member, coordinates and kernel_basis at degree d agree
    with the definition's V_d, built with no stop, and the algebra builds the
    slices up to d or the certified stop (full, or K + 1 equal dimensions),
    whichever comes first.  Generators constant on blocks of positions
    plateau below r; the examples are PAIRED without v and the plane."""
    gens = [HomTuple(degree, tuple(values[b] for b in block[:r])) for degree, values in specs]
    subset = sorted(p for p in subset if p <= r) or list(range(1, r + 1))
    slices = definition_slices(r, gens, d)
    dims, k = [len(basis) for basis in slices], max((g.degree for g in gens), default=1)
    stop = next(p for p in range(d + 1)
                if p == d or dims[p] == r or p >= k and dims[p - k] == dims[p])
    alg = GradedSubalgebra(r, gens)
    basis = [t.coeffs for t in alg.graded_basis(d)]
    _assert_reduced_echelon(basis)
    assert len(basis) == dims[d] and all(in_span(slices[d], x) for x in basis)
    target = tuple(sum((i + 1) * x[j] for i, x in enumerate(slices[d])) for j in range(r))
    coords = alg.coordinates(HomTuple(d, target))
    assert alg.member(HomTuple(d, target)) and coords is not None
    assert tuple(sum(c * x[j] for c, x in zip(coords, basis)) for j in range(r)) == target
    for j in range(r):
        unit = tuple(int(i == j) for i in range(r))
        assert alg.member(HomTuple(d, unit)) == in_span(slices[d], unit)
        assert (alg.coordinates(HomTuple(d, unit)) is None) == (not in_span(slices[d], unit))
    kernel = [t.coeffs for t in alg.kernel_basis(subset, d)]
    _assert_reduced_echelon(kernel)
    assert all(in_span(slices[d], x) and all(x[p - 1] == 0 for p in subset) for x in kernel)
    on_subset = span_basis([[x[p - 1] for p in subset] for x in slices[d]])
    assert len(kernel) == dims[d] - len(on_subset)
    assert len(alg._slices) == stop + 1


@given(st.integers(1, 4), st.booleans(), st.integers(0, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_hilbert_function_is_the_slice_dims(r, with_v, max_degree, data):
    """The Hilbert function equals the per-slice dimensions, and the slices form
    a chain, so no slice past the first full one is built.  v belongs whether
    or not it is listed: listing it or not changes no dimension and no basis."""
    gens = [HomTuple(data.draw(st.integers(1, 3)),
                     tuple(data.draw(small_fractions) for _ in range(r)))
            for _ in range(data.draw(st.integers(0, 3)))]
    listed, other = gens + [HomTuple.ones(r, 1)], gens
    if not with_v:
        listed, other = other, listed
    alg = GradedSubalgebra(r, listed)
    hilbert = alg.hilbert_function(max_degree)
    bases = [GradedSubalgebra(r, listed).graded_basis(d) for d in range(max_degree + 1)]
    assert hilbert == [len(basis) for basis in bases]
    assert GradedSubalgebra(r, other).hilbert_function(max_degree) == hilbert
    assert [GradedSubalgebra(r, other).graded_basis(d) for d in range(max_degree + 1)] == bases
    if r in hilbert:  # a plateau is final, so none comes before full rank
        assert len(alg._slices) == hilbert.index(r) + 1


def _pivot(row):
    return next(i for i, c in enumerate(row) if c)


halves = st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])


@given(st.integers(2, 7), st.data())
@settings(max_examples=80, deadline=None)
def test_each_degree_keeps_the_rows_its_adds_stored(r, data):
    """N_k is the rows that degree k's adds returned: each is, by identity, a
    row of V_k, and their pivots are those V_k has and V_(k-1) lacks.  `add`
    returns the row it stored in `rows`, and None exactly when the span does
    not grow."""
    gens = [HomTuple(data.draw(st.integers(1, 3)),
                     tuple(data.draw(halves) for _ in range(r)))
            for _ in range(data.draw(st.integers(1, 3)))]
    adds, real_add = [], RowSpace.add

    def add(space, vec):
        before = space.dim
        row = real_add(space, vec)
        adds.append((row, space.dim - before, any(row is kept for kept in space.rows)))
        return row

    alg = GradedSubalgebra(r, gens)
    with mock.patch.object(RowSpace, "add", add):
        alg.hilbert_function(3 * r)
    assert adds and all((row is None, stored) == (grown == 0, grown == 1)
                        for row, grown, stored in adds)
    assert len(alg._new) == len(alg._slices)
    for k, (new, space) in enumerate(zip(alg._new, alg._slices)):
        assert all(any(row is kept for kept in space.rows) for row in new)
        old = set(alg._slices[k - 1].pivots) if k else set()
        assert sorted(map(_pivot, new)) == [p for p in space.pivots if p not in old]


def _plateau_degree(dims, k):
    """First p with dims[p] = ... = dims[p + k] (equal ends suffice on a chain)."""
    return next(p for p in range(len(dims) - k) if dims[p] == dims[p + k])


@given(st.integers(1, 5), st.integers(0, 14), st.data())
@settings(max_examples=80, deadline=None)
def test_plateau_stop_matches_a_loop_without_stop(r, bound, data):
    """K + 1 equal dimensions in a row fill the rest of the Hilbert function
    (K the largest generator degree, v's 1 included); the slices of the
    definition, built with no stop, agree, and at most (first plateau degree)
    + K + 1 slices are built.  Generators constant on random blocks of
    positions plateau below r."""
    block = [data.draw(st.integers(0, r - 1)) for _ in range(r)]
    gens = [HomTuple(data.draw(st.integers(1, 4)),
                     tuple(values[b] for b in block))
            for values in (data.draw(st.lists(small_fractions, min_size=r, max_size=r))
                           for _ in range(data.draw(st.integers(0, 3))))]
    gens.append(HomTuple.ones(r, 1))
    k = max(g.degree for g in gens)
    alg = GradedSubalgebra(r, gens)
    dims = [len(basis) for basis in definition_slices(r, gens, bound + 2 * k + 2 * r)]
    assert alg.hilbert_function(bound) == dims[:bound + 1]
    assert len(alg._slices) <= _plateau_degree(dims, k) + k + 1


# classes constant on the pairs {1, 2}, {3, 4}, {5, 6}, and v
PAIRED = [tup(1, 1, 1, 2, 2, 5, 5), tup(3, 0, 0, 1, 1, 7, 7), tup(1, 1, 1, 1, 1, 1, 1)]


def test_plateau_builds_plateau_plus_k_slices():
    """The PAIRED classes span at most three dimensions: the Hilbert function
    is [1, 2, 3, 3, ...], first constant from degree 2, and with K = 3 the
    slices built are degrees 0..2 + K, not 0..bound."""
    alg = GradedSubalgebra(6, PAIRED)
    assert alg.hilbert_function(200) == [1, 2] + [3] * 199
    assert len(alg._slices) == 2 + 3 + 1
    assert GradedSubalgebra(6, PAIRED).hilbert_function(4) == [1, 2, 3, 3, 3]


def test_a_slice_past_the_plateau_adds_no_vector(monkeypatch):
    """Past the plateau every slice is the last one built, so a question at
    degree 200 builds no slice and adds no vector to one (graded_basis adds
    rows only to the scratch RowSpace of rref)."""
    alg = GradedSubalgebra(6, PAIRED)
    alg.hilbert_function(200)
    built = len(alg._slices)
    added_to = []
    original = RowSpace.add
    monkeypatch.setattr(RowSpace, "add",
                        lambda self, vec: added_to.append(self) or original(self, vec))
    assert alg.member(HomTuple(200, PAIRED[0].coeffs))
    assert len(alg.graded_basis(200)) == 3
    assert len(alg._slices) == built
    assert not any(space is s for space in added_to for s in alg._slices)
