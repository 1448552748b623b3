import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelcurve.action import principal_model
from borelcurve.chern import (BundleData, MatrixFibre, SplitFibre, bundle_from_json,
                              chern_membership, chern_subalgebra_verdict,
                              chern_tuple, chern_tuples, elementary_symmetric,
                              exterior_trace, make_bundle, tangent_bundle)
from borelcurve.curve import build_curve_ring
from borelcurve.errors import InputError
from borelcurve.exactalg import HomTuple
from borelcurve.gkm import GKMGraph, GKMRing

from test_action import regular_models


def frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# exterior traces


def test_exterior_trace_diagonal():
    m = frac_matrix([[2, 0], [0, 4]])
    assert exterior_trace(m, 1) == 6
    assert exterior_trace(m, 2) == 8
    assert exterior_trace(m, 0) == 1


def test_exterior_trace_polynomial_entries():
    """The section v*W - 2*N, sampled at rational v0, has the exterior traces of
    v0*W: a nilpotent N with [W, N] = 2N leaves the characteristic polynomial
    unchanged, which is what lets matrix fibres skip the polynomial entries."""
    pairs = [
        (frac_matrix([[1, 0], [0, -1]]), frac_matrix([[0, 1], [0, 0]])),
        (frac_matrix([[2, 0, 0], [0, 0, 0], [0, 0, -2]]),
         frac_matrix([[0, 3, 0], [0, 0, Fraction(-1, 2)], [0, 0, 0]])),
        # the same pair conjugated by the shear I + 2 E_13
        (frac_matrix([[2, 0, -8], [0, 0, 0], [0, 0, -2]]),
         frac_matrix([[0, 3, 0], [0, 0, Fraction(-1, 2)], [0, 0, 0]])),
        (frac_matrix([[4, 0, 0], [0, 3, 0], [0, 0, 2]]),
         frac_matrix([[0, 0, 5], [0, 0, 0], [0, 0, 0]])),
    ]
    for w, n in pairs:
        size = len(w)
        for v0 in (Fraction(1), Fraction(-3), Fraction(2, 7), Fraction(-5, 4)):
            section = tuple(tuple(v0 * w[i][j] - 2 * n[i][j] for j in range(size))
                            for i in range(size))
            for k in range(size + 1):
                assert exterior_trace(section, k) == v0**k * exterior_trace(w, k)


def _char_poly(m):
    """Coefficients (constant first) of det(t*I - m), by Laplace expansion along
    the first row with polynomial entries; independent of exterior_trace."""
    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def add(a, b):
        a, b = a + [Fraction(0)] * (len(b) - len(a)), b + [Fraction(0)] * (len(a) - len(b))
        return [x + y for x, y in zip(a, b)]

    def det(rows):
        if not rows:
            return [Fraction(1)]
        total = [Fraction(0)]
        for j, entry in enumerate(rows[0]):
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            term = mul(entry, det(minor))
            total = add(total, term if j % 2 == 0 else [-x for x in term])
        return total

    n = len(m)
    return det([[[-m[i][j], Fraction(int(i == j))] for j in range(n)] for i in range(n)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
             min_size=n, max_size=n), min_size=n, max_size=n)))
def test_exterior_trace_matches_characteristic_polynomial(rows):
    """e_k of the eigenvalues is (-1)^k times the t^(n-k) coefficient of
    det(t*I - m), for every k, on random rational matrices."""
    m = frac_matrix(rows)
    n = len(m)
    coeffs = _char_poly(m)
    for k in range(n + 1):
        assert exterior_trace(m, k) == (-1) ** k * coeffs[n - k]


def test_exterior_trace_range_errors():
    m = frac_matrix([[1, 0], [0, 1]])
    with pytest.raises(InputError):
        exterior_trace(m, 3)
    with pytest.raises(InputError):
        exterior_trace(m, -1)


def test_exterior_trace_reads_through_the_matrix_reader():
    """exterior_trace reads its matrix as fibres and models do: every entry
    through to_fraction, square at its own row count."""
    with pytest.raises(InputError, match=r"^expected a list, got 5$"):
        exterior_trace(5, 1)
    with pytest.raises(InputError, match=r"^expected a 2x2 matrix$"):
        exterior_trace([[1, 0, 0], [0, 1, 0]], 1)
    assert exterior_trace([["1/2", 0], [0, 3]], 2) == Fraction(3, 2)


def test_elementary_symmetric():
    assert elementary_symmetric((2, 4), 1) == 6
    assert elementary_symmetric((2, 4), 2) == 8
    assert elementary_symmetric((1, 2, 3), 2) == 11
    assert elementary_symmetric((), 0) == 1
    assert elementary_symmetric(("1/2", 3, "-2/3"), 2) == Fraction(3, 2) - Fraction(1, 3) - 2
    assert isinstance(elementary_symmetric((2, 4), 1), Fraction)


# ---------------------------------------------------------------------------
# bundle data


def test_make_bundle_validates_matrix_fibres():
    w = frac_matrix([[1, 0], [0, -1]])
    n = frac_matrix([[0, 1], [0, 0]])
    bundle = make_bundle(2, {1: MatrixFibre(w, n)})
    assert bundle.rank == 2
    bad_n = frac_matrix([[0, 1], [1, 0]])  # not nilpotent, wrong commutator
    with pytest.raises(InputError):
        make_bundle(2, {1: MatrixFibre(w, bad_n)})
    with pytest.raises(InputError):
        make_bundle(2, {1: SplitFibre((1,))})  # rank mismatch


_W3 = [[2, 0, 0], [0, 0, 0], [0, 0, -2]]
_V3 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


def test_matrix_fibre_reads_its_own_matrices():
    with pytest.raises(InputError, match=r"^expected a list, got 5$"):
        MatrixFibre(5, 5)
    with pytest.raises(InputError, match=r"^expected a 3x3 matrix$"):
        MatrixFibre(_W3, [[0, 1], [0, 0]])  # rho_v is read at rho_w's size
    fibre = MatrixFibre(_W3, [["0", "1/2", 0], [0, 0, 1], [0, 0, 0]])
    assert fibre.rank == 3
    assert fibre.rho_v == frac_matrix([[0, Fraction(1, 2), 0], [0, 0, 1], [0, 0, 0]])


def test_bundle_from_json_reads_each_matrix_entry_once(monkeypatch):
    """Two rank-3 matrix fibres hold 36 entries; each goes through
    to_fraction once, and make_bundle checks the fibres it is given."""
    import borelcurve.rational
    calls = []
    real = borelcurve.rational.to_fraction
    monkeypatch.setattr(borelcurve.rational, "to_fraction", lambda x: calls.append(x) or real(x))
    fibre = {"rho_W": _W3, "rho_V": _V3}
    bundle = bundle_from_json({"rank": 3, "fibres": {"1": fibre, "2": fibre}})
    assert len(calls) == 36
    assert bundle.fibres[1] == bundle.fibres[2] == MatrixFibre(_W3, _V3)


def test_json_fibre_rows_are_checked_against_the_rank():
    """A fibre matrix is sized by its own rows; make_bundle compares the rank."""
    zero = [[0] * 3] * 3
    with pytest.raises(InputError, match=r"^fibre at 1 has rank 3, expected 2$"):
        bundle_from_json({"rank": 2, "fibres": {"1": {"rho_W": _W3, "rho_V": zero}}})
    with pytest.raises(InputError, match=r"^expected a 3x3 matrix$"):
        bundle_from_json({"rank": 2, "fibres": {"1": {"rho_W": [row[:2] for row in _W3],
                                                      "rho_V": zero}}})


def test_bundle_from_json():
    blob = {"rank": 1, "fibres": {"1": {"weights": [1]},
                                  "2": {"weights": [-1]},
                                  "3": {"weights": [-1]}}}
    bundle = bundle_from_json(blob)
    assert sorted(bundle.fibres) == [1, 2, 3]
    blob_m = {"rank": 2, "fibres": {"1": {"rho_W": [["1", "0"], ["0", "-1"]],
                                          "rho_V": [["0", "1"], ["0", "0"]]}}}
    bundle_m = bundle_from_json(blob_m)
    assert isinstance(bundle_m.fibres[1], MatrixFibre)
    with pytest.raises(InputError):
        bundle_from_json({"rank": 1, "fibres": {"1": {}}})
    with pytest.raises(InputError, match="fibre 1 must be an object"):
        bundle_from_json({"rank": 1, "fibres": {"1": 5}})
    with pytest.raises(InputError, match="fibres must be an object"):
        bundle_from_json({"rank": 1, "fibres": [{"weights": [1]}]})
    with pytest.raises(InputError, match="not an integer"):
        bundle_from_json({"rank": 1, "fibres": {"1": {"weights": [1]}, "x": {"weights": [2]}}})
    with pytest.raises(InputError, match="expected a list"):
        bundle_from_json({"rank": 1, "fibres": {"1": {"weights": 5}}})
    with pytest.raises(InputError, match="expected a list"):
        bundle_from_json({"rank": 2, "fibres": {"1": {"rho_W": 5, "rho_V": 5}}})
    with pytest.raises(InputError, match="expected an integer"):
        bundle_from_json({"rank": 1.5, "fibres": {"1": {"weights": [1]}}})


@pytest.mark.parametrize("key", ["01", " 1", "+1"])
def test_bundle_from_json_rejects_a_fixed_point_named_twice(key):
    """int() reads each of these keys as label 1: the later fibre would
    silently replace the earlier one."""
    blob = {"rank": 1, "fibres": {"1": {"weights": [5]}, key: {"weights": [7]}}}
    with pytest.raises(InputError, match=re.escape(f"fibre keys '1' and {key!r} both name "
                                                   "fixed point 1")):
        bundle_from_json(blob)


@pytest.mark.parametrize("key", ["1_0", "\u0661", "1.0", ""])
def test_bundle_from_json_takes_ascii_digit_keys_only(key):
    """int() reads "1_0" as 10 and the Arabic-Indic digit one as 1."""
    with pytest.raises(InputError, match=re.escape(f"fibre key {key!r} is not an integer "
                                                   "fixed-point label")):
        bundle_from_json({"rank": 1, "fibres": {key: {"weights": [1]}}})


def test_tangent_bundle_weights(plane_model):
    tb = tangent_bundle(plane_model)
    assert tb.fibres[1].weights == (2, 4)
    assert tb.fibres[2].weights == (-2, 2)
    assert tb.fibres[3].weights == (-4, -2)


# ---------------------------------------------------------------------------
# Chern tuples and membership


def test_plane_tangent_chern_tuples(plane_ring):
    tb = tangent_bundle(plane_ring.model)
    c1 = chern_tuple(tb, 1, plane_ring)
    assert c1 == HomTuple(1, (6, 0, -6))
    c2 = chern_tuple(tb, 2, plane_ring)
    assert c2 == HomTuple(2, (8, -4, 8))
    c0 = chern_tuple(tb, 0, plane_ring)
    assert c0 == HomTuple(0, (1, 1, 1))


def _matrix_tangent(model):
    """Tangent bundle in matrix-fibre form: rho_w is the diagonal of the sorted
    tangent weights and rho_v has a nonzero entry just above the diagonal
    wherever neighbouring weights differ by 2."""
    split = tangent_bundle(model)
    fibres = {}
    for label, fibre in split.fibres.items():
        ws = sorted(fibre.weights, reverse=True)
        k = len(ws)
        w = frac_matrix([[ws[a] if a == b else 0 for b in range(k)] for a in range(k)])
        n = frac_matrix([[Fraction(a + 1, label) if b == a + 1 and ws[a] - ws[b] == 2 else 0
                          for b in range(k)] for a in range(k)])
        fibres[label] = MatrixFibre(w, n)
    return make_bundle(split.rank, fibres)


def test_matrix_fibres_give_same_tuple_as_weights(plane_ring):
    w = frac_matrix([[1, 0], [0, -1]])
    n = frac_matrix([[0, 1], [0, 0]])
    bundle = make_bundle(2, {1: MatrixFibre(w, n), 2: SplitFibre((1, -1))})
    t = chern_tuple(bundle, 2, plane_ring)
    assert t == HomTuple(2, (-1, -1))
    for size in range(1, 6):
        cr = build_curve_ring(principal_model(size))
        split, matrix = tangent_bundle(cr.model), _matrix_tangent(cr.model)
        assert size == 1 or any(any(x != 0 for row in f.rho_v for x in row)
                                for f in matrix.fibres.values())
        for k in range(size + 1):
            assert chern_tuple(matrix, k, cr) == chern_tuple(split, k, cr)


def test_chern_tuples_give_every_class_at_once():
    """One trace run per fibre yields c_0..c_rank, as the split weights do."""
    for size in range(1, 6):
        cr = build_curve_ring(principal_model(size))
        split, matrix = tangent_bundle(cr.model), _matrix_tangent(cr.model)
        expected = [chern_tuple(split, k, cr) for k in range(size + 1)]
        assert chern_tuples(matrix, cr) == chern_tuples(split, cr) == expected
    with pytest.raises(InputError, match=r"^bundle fixed points must lie in 1\.\.6$"):
        chern_tuples(make_bundle(1, {9: SplitFibre((1,))}), cr)
    with pytest.raises(InputError, match="^bundle fixed points must be nonempty$"):
        chern_tuples(BundleData(1, {}), cr)  # make_bundle refuses this; the record does not


def test_chern_membership(plane_ring):
    tb = tangent_bundle(plane_ring.model)
    assert chern_membership(tb, 1, plane_ring)
    assert chern_membership(tb, 2, plane_ring)
    fabricated = make_bundle(1, {1: SplitFibre((1,)), 2: SplitFibre((0,)),
                                 3: SplitFibre((0,))})
    assert chern_tuple(fabricated, 1, plane_ring) == HomTuple(1, (1, 0, 0))
    assert not chern_membership(fabricated, 1, plane_ring)


@pytest.mark.parametrize("n", range(1, 5))
def test_tangent_membership_all_k(n):
    cr = build_curve_ring(principal_model(n))
    tb = tangent_bundle(cr.model)
    for k in range(n + 1):
        assert chern_membership(tb, k, cr)


_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def _satisfies_relation(w, v) -> bool:
    """[rho_w, rho_v] = 2 rho_v by definition, entry by entry over Fraction."""
    k = len(w)
    return all(sum(w[i][t] * v[t][j] - v[i][t] * w[t][j] for t in range(k)) == 2 * v[i][j]
               for i in range(k) for j in range(k))


@st.composite
def _fibre_pairs(draw, values=_RATIONALS):
    """Random square pairs of rank 1-6 with entries drawn from `values`,
    valid pairs, and valid pairs with one entry moved.  A valid pair is
    built like the matrix-fibre tangent bundle: rho_w diagonal with
    decreasing weights, rho_v nonzero only just above the diagonal where
    neighbouring weights differ by 2, then both conjugated by shears so
    every entry can fill in."""
    k = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("random", "valid", "perturbed")))
    square = st.lists(st.lists(values, min_size=k, max_size=k), min_size=k, max_size=k)
    if kind == "random":
        return frac_matrix(draw(square)), frac_matrix(draw(square))
    weights = [draw(values)]
    for step in draw(st.lists(st.sampled_from((2, 2, 2, 1, 3)), min_size=k - 1,
                              max_size=k - 1)):
        weights.append(weights[-1] - step)
    w = [[weights[a] if a == b else Fraction(0) for b in range(k)] for a in range(k)]
    v = [[draw(values) if b == a + 1 and weights[a] - weights[b] == 2 else Fraction(0)
          for b in range(k)] for a in range(k)]
    if k > 1:
        for _ in range(draw(st.integers(0, 3))):
            p, q = draw(st.permutations(range(k)))[:2]
            c = draw(values)
            shear = [[Fraction(a == b) + (c if (a, b) == (p, q) else 0) for b in range(k)]
                     for a in range(k)]
            unshear = [[Fraction(a == b) - (c if (a, b) == (p, q) else 0) for b in range(k)]
                       for a in range(k)]
            w, v = _conjugate(w, shear, unshear), _conjugate(v, shear, unshear)
    w, v = [list(row) for row in w], [list(row) for row in v]
    if kind == "perturbed":
        target = draw(st.sampled_from((w, v)))
        target[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] += draw(
            values.filter(bool))
    return frac_matrix(w), frac_matrix(v)


@settings(max_examples=120, deadline=None)
@given(_fibre_pairs())
def test_integer_commutator_check_matches_fraction_definition(pair):
    """make_bundle checks the relation over int after clearing denominators;
    it accepts exactly the pairs the Fraction definition accepts."""
    w, v = pair
    try:
        make_bundle(len(w), {1: MatrixFibre(w, v)})
        accepted = True
    except InputError as exc:
        assert str(exc) == "fibre at 1 violates [rho_w, rho_v] = 2 rho_v"
        accepted = False
    assert accepted == _satisfies_relation(w, v)


def _entry_forms(pair):
    """The pair as Fractions, as "p/q" strings and, when every entry is whole, as ints."""
    def each(make):
        return tuple(tuple(tuple(make(x) for x in row) for row in m) for m in pair)

    forms = [pair, each(lambda x: f"{x.numerator}/{x.denominator}")]
    if all(x.denominator == 1 for m in pair for row in m for x in row):
        forms.append(each(lambda x: x.numerator))
    return forms


@settings(max_examples=80, deadline=None)
@given(st.booleans().flatmap(
    lambda whole: _fibre_pairs(st.integers(-6, 6).map(Fraction) if whole else _RATIONALS)))
def test_matrix_fibre_reads_ints_strings_and_fractions_alike(pair):
    """However its entries are written, a matrix gives one fibre and one set
    of Chern tuples (which read rho_w alone, so the pair need not be valid)."""
    cr = build_curve_ring(principal_model(1))
    expected = MatrixFibre(*pair)
    tuples = chern_tuples(BundleData(expected.rank, {1: expected}), cr)
    for form in _entry_forms(pair):
        fibre = MatrixFibre(*form)
        assert fibre == expected
        assert chern_tuples(BundleData(fibre.rank, {1: fibre}), cr) == tuples


# ---------------------------------------------------------------------------
# invariance properties


def _conjugate(m, p, p_inv):
    def mul(a, b):
        size = len(a)
        return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(size))
                           for j in range(size)) for i in range(size))

    return mul(mul(p, m), p_inv)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_conjugation_invariance(data):
    """A matrix fibre conjugated by any invertible rational matrix yields the
    same Chern tuple as the bare weight multiset of rho_w."""
    weights = (data.draw(st.integers(-3, 3)) * 2 + 2, )
    top = weights[0]
    w = frac_matrix([[top, 0], [0, top - 2]])
    n = frac_matrix([[0, data.draw(st.integers(-5, 5))], [0, 0]])
    # unimodular conjugator built from shears, so the inverse is exact
    a = data.draw(st.integers(-3, 3))
    b = data.draw(st.integers(-3, 3))
    p = frac_matrix([[1, a], [0, 1]])
    q = frac_matrix([[1, 0], [b, 1]])
    p_inv = frac_matrix([[1, -a], [0, 1]])
    q_inv = frac_matrix([[1, 0], [-b, 1]])
    conj = lambda m: _conjugate(_conjugate(m, p, p_inv), q, q_inv)
    fibre = MatrixFibre(conj(w), conj(n))
    bundle = make_bundle(2, {1: fibre})
    split = make_bundle(2, {1: SplitFibre((top, top - 2))})
    cr = build_curve_ring(principal_model(1))
    for k in (1, 2):
        assert chern_tuple(bundle, k, cr) == chern_tuple(split, k, cr)


@given(st.lists(st.integers(-4, 4), min_size=0, max_size=3),
       st.lists(st.integers(-4, 4), min_size=0, max_size=3),
       st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_whitney_sum_convolution(wa, wb, k):
    """e_k of a direct sum is the convolution of the summands' classes."""
    if k > len(wa) + len(wb):
        return
    total = elementary_symmetric(tuple(wa) + tuple(wb), k)
    conv = sum(elementary_symmetric(tuple(wa), i) * elementary_symmetric(tuple(wb), k - i)
               for i in range(k + 1) if i <= len(wa) and k - i <= len(wb))
    assert total == conv


def test_whitney_sum_at_tuple_level(plane_ring):
    """Chern tuples of a direct sum are Hadamard convolutions of the summands'."""
    tb = tangent_bundle(plane_ring.model)  # split weights per fixed point
    line = make_bundle(1, {1: SplitFibre((2,)), 2: SplitFibre((-2,)),
                           3: SplitFibre((4,))})
    total = make_bundle(3, {j: SplitFibre(tb.fibres[j].weights + line.fibres[j].weights)
                            for j in (1, 2, 3)})
    for k in range(4):
        expected = [0] * plane_ring.r  # sum over i of c_i(tb) c_(k-i)(line), node by node
        for i in range(k + 1):
            if i > tb.rank or k - i > line.rank:
                continue
            a, b = chern_tuple(tb, i, plane_ring), chern_tuple(line, k - i, plane_ring)
            expected = [e + x * y for e, x, y in zip(expected, a.coeffs, b.coeffs)]
        assert chern_tuple(total, k, plane_ring) == HomTuple(k, expected)


def test_rescaled_e_keeps_membership_verdicts(plane_model, plane_ring):
    from borelcurve.action import ActionModel, validate
    scaled = tuple(tuple(Fraction(-7, 2) * x for x in row) for row in plane_model.e_matrix)
    cr2 = build_curve_ring(validate(ActionModel(2, plane_model.h_weights, scaled)))
    tb = tangent_bundle(plane_model)
    for k in range(3):
        assert chern_membership(tb, k, cr2) == chern_membership(tb, k, plane_ring)


# ---------------------------------------------------------------------------
# generation verdicts


def test_obstructed_line_bundle_classes(curves_union_graph):
    gens = [HomTuple(1, (1, -1, -1)), HomTuple(1, (1, 1, 1))]
    verdict = chern_subalgebra_verdict(gens, curves_union_graph)
    assert verdict.status == "NotPrincipal"
    assert verdict.witness == 1
    assert verdict.image_hilbert[1] == 2 and verdict.gkm_hilbert[1] == 3


def test_full_curve_generators_generate_on_line(line_model):
    cr = build_curve_ring(line_model)
    graph = GKMGraph((1, 2), ((1, 2, 1),))
    verdict = chern_subalgebra_verdict(list(cr.algebra.generators), graph)
    assert verdict.status == "Principal"


def test_unit_generates_point():
    verdict = chern_subalgebra_verdict([], GKMGraph((1,)))
    assert verdict.status == "Principal"


def test_verdict_rejects_congruence_violation(curves_union_graph):
    with pytest.raises(InputError, match="congruence"):
        chern_subalgebra_verdict([HomTuple(0, (1, 0, 0))], curves_union_graph)


def test_verdict_rejects_a_generator_of_the_wrong_length(curves_union_graph):
    with pytest.raises(InputError, match="^component-count mismatch with the graph vertices$"):
        chern_subalgebra_verdict([HomTuple(1, (1, 1))], curves_union_graph)


def test_chern_verdict_builds_one_congruence_ring(monkeypatch, curves_union_graph):
    """The ring that checks the generators' congruences also decides."""
    import borelcurve.gkm
    built = []

    class CountedRing(borelcurve.gkm.GKMRing):
        def __init__(self, graph):
            built.append(graph)
            super().__init__(graph)

    monkeypatch.setattr(borelcurve.gkm, "GKMRing", CountedRing)
    verdict = chern_subalgebra_verdict([HomTuple(1, (1, -1, -1))], curves_union_graph)
    assert verdict.status == "NotPrincipal"
    assert built == [curves_union_graph]


def test_verdict_rejects_negative_bound(curves_union_graph):
    gens = [HomTuple(1, (1, -1, -1))]
    with pytest.raises(InputError, match="degree bound must be non-negative"):
        chern_subalgebra_verdict(gens, curves_union_graph, -1)
    assert chern_subalgebra_verdict(gens, curves_union_graph, 0).image_hilbert == (1,)


@given(regular_models(max_n=4), st.data())
@settings(max_examples=60, deadline=None)
def test_default_chern_verdict_matches_former_truncation(model, data):
    """Oracle: tangent Chern classes on a multiplicity-1 star graph at o get
    the same verdict at the stabilization degree as at the former default
    bound max(2 n k, s + 1)."""
    cr = build_curve_ring(model)
    others = data.draw(st.lists(st.integers(2, model.n + 1), unique=True))
    vertices = sorted([1] + others)
    graph = GKMGraph(tuple(vertices), tuple((1, j, 1) for j in others))
    bundle = tangent_bundle(model)
    gens = [HomTuple(k, [chern_tuple(bundle, k, cr).coeffs[v - 1] for v in vertices])
            for k in range(1, model.n + 1)]
    s = 1 if others else 0
    default = chern_subalgebra_verdict(gens, graph)
    far = chern_subalgebra_verdict(gens, graph, max(2 * model.n * len(vertices), s + 1))
    assert default.bound == s
    assert (default.status, default.witness) == (far.status, far.witness)
    assert default.image_hilbert == far.image_hilbert[:s + 1]


@st.composite
def _graphs_and_congruence_generators(draw):
    """A random multigraph on 2-7 vertices, multiplicities 1-4, and random
    integer combinations of its congruence ring's basis at degrees 1-5."""
    r = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 4)), max_size=12))
    graph = GKMGraph(tuple(range(1, r + 1)), tuple((i, j, m) for (i, j), m in edges))
    ring = GKMRing(graph)
    gens = []
    for d in draw(st.lists(st.integers(1, 5), max_size=4)):
        basis = ring.basis(d)
        weights = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
        gens.append(HomTuple(d, [sum(w * c for w, c in zip(weights, column))
                                 for column in zip(*(t.coeffs for t in basis))]))
    return graph, gens


@given(_graphs_and_congruence_generators())
@settings(max_examples=80, deadline=None)
def test_generated_slices_never_exceed_the_congruence_ring(case):
    """Congruences are closed under products, so classes that satisfy them
    generate, with the unit and v, slices inside the congruence ring's: the
    image dimension is at most the ring's at every degree, for any
    multiplicities."""
    graph, gens = case
    verdict = chern_subalgebra_verdict(gens, graph, 6)
    assert all(a <= b for a, b in zip(verdict.image_hilbert, verdict.gkm_hilbert, strict=True))
    assert not any("exceeds the modeled ring" in note for note in verdict.notes)
