from collections import Counter

import pytest

from borelcurve import rootsystems
from borelcurve.errors import InputError, InternalError
from borelcurve.exactalg import rref
from borelcurve.rootsystems import (MAX_DEGREE_SUM, MAX_RANK, PoincarePoly, RootSystem,
                                    heights, km_poincare, poincare_from_degrees, positive_roots,
                                    weyl_length_genfun, weyl_order)
from test_cli import loaded_by

SMALL_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                 ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)]


@pytest.mark.parametrize("family,rank,count", [
    ("A", 2, 3), ("A", 5, 15), ("B", 2, 4), ("B", 3, 9), ("C", 3, 9),
    ("D", 4, 12), ("G2", 2, 6), ("F4", 4, 24),
])
def test_positive_root_counts(family, rank, count):
    assert len(positive_roots(family, rank).positive_roots) == count


def test_height_multisets():
    assert Counter(heights(positive_roots("A", 2))) == Counter({1: 2, 2: 1})
    assert Counter(heights(positive_roots("B", 2))) == Counter({1: 2, 2: 1, 3: 1})
    assert heights(positive_roots("A", 1)) == [1]
    assert Counter(heights(positive_roots("G2", 2))) == Counter([1, 1, 2, 3, 4, 5])


EVERY_SYSTEM = ([(f, k) for f in "ABC" for k in range(1, MAX_RANK + 1)]
                + [("D", k) for k in range(2, MAX_RANK + 1)] + [("G2", 2), ("F4", 4)])


@pytest.mark.parametrize("family,rank", EVERY_SYSTEM)
def test_heights_match_linear_solve(family, rank):
    """The pairing with rho^v agrees with solving for simple-root coefficients over Q."""
    rs = positive_roots(family, rank)
    matrix = [[s[i] for s in rs.simple_roots] for i in range(len(rs.simple_roots[0]))]
    expected = []
    for root in rs.positive_roots:
        red, pivots = rref([row + [x] for row, x in zip(matrix, root)])
        assert pivots == list(range(rank))  # one consistent solution
        coeffs = [row[-1] for row in red]
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)
        expected.append(int(sum(coeffs)))
    assert heights(rs) == expected


def _with_roots(rs, roots):
    return RootSystem(rs.family, rs.rank, rs.simple_roots, tuple(roots))


# the check each vector trips; it enters rho^v too, so a listed root may be the one
# that fails
NON_ROOT_FAULT = {
    (1, 0, 0, 0): r"simple root \(1, -1, 0, 0\) is not at height 1",
    (-1, 1, 0, 0): r"root \(1, -1, 0, 0\) has height 0/2, not a positive integer",
    (1, -2): r"squared length 2 of root \(1, -1\) does not divide 5",
    (-1, 1, 0): r"root \(1, -1, 0\) has height 0/6, not a positive integer",
}


@pytest.mark.parametrize("family,rank,bad", [
    ("A", 3, (1, 0, 0, 0)),      # outside the span of the simple roots
    ("A", 3, (-1, 1, 0, 0)),     # a negative root
    ("B", 2, (1, -2)),           # e1 - 2 e2 = a1 - a2, mixed signs
    ("G2", 2, (-1, 1, 0)),       # negative of a simple root
])
def test_heights_reject_a_non_root_vector(family, rank, bad):
    rs = positive_roots(family, rank)
    with pytest.raises(InternalError, match=NON_ROOT_FAULT[bad]):
        heights(_with_roots(rs, rs.positive_roots + (bad,)))


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("G2", 2)])
def test_heights_reject_a_table_missing_an_intermediate_root(family, rank):
    """Rank 2 has one height-2 root, the only way up to height 3."""
    rs = positive_roots(family, rank)
    hs = heights(rs)
    (gone,) = [root for root, h in zip(rs.positive_roots, hs) if h == 2]
    assert 3 in hs
    kept = [root for root in rs.positive_roots if root != gone]
    with pytest.raises(InternalError, match="not a positive integer"):
        heights(_with_roots(rs, kept))


def test_heights_reject_dependent_simple_roots():
    rs = positive_roots("A", 2)
    a, b = rs.simple_roots
    doubled = RootSystem("A", 2, (a, b, tuple(x + y for x, y in zip(a, b))),
                         rs.positive_roots)
    with pytest.raises(InternalError, match=r"simple root \(1, 0, -1\) is not at height 1"):
        heights(doubled)


def _input_error(fn, *args) -> str:
    with pytest.raises(InputError) as info:
        fn(*args)
    return str(info.value)


def test_unsupported_inputs():
    assert _input_error(positive_roots, "E", 6) == (
        "unsupported family 'E' (expected A, B, C, D, G2 or F4)")
    assert _input_error(positive_roots, "A", 9) == "A-family rank must be 1..8"
    assert _input_error(positive_roots, "G2", 3) == "G2 has rank 2"
    assert _input_error(positive_roots, "D", 1) == "D-family rank must be 2..8"
    # weyl_order reads the same table, so it rejects what positive_roots rejects
    for family, rank in [("E", 6), ("A", 9), ("G2", 3), ("D", 1), ("G2", 5), ("A", 0),
                         ("B", -3), ("F4", 2)]:
        assert _input_error(weyl_order, family, rank) == _input_error(positive_roots,
                                                                      family, rank)


def test_km_poincare_examples():
    assert km_poincare(positive_roots("A", 1)).coeffs == (1, 1)
    assert km_poincare(positive_roots("A", 2)).coeffs == (1, 2, 2, 1)
    assert km_poincare(positive_roots("A", 3)).value_at_one == 24


def test_weyl_length_genfun_examples():
    assert weyl_length_genfun("A", 2).coeffs == (1, 2, 2, 1)
    assert weyl_length_genfun("A", 1).coeffs == (1, 1)
    assert weyl_length_genfun("B", 2).coeffs == (1, 2, 2, 2, 1)


@pytest.mark.parametrize("family,rank", SMALL_SYSTEMS)
def test_km_equals_enumeration(family, rank):
    assert km_poincare(positive_roots(family, rank)) == weyl_length_genfun(family, rank)


UP_TO_RANK_5 = ([("A", k) for k in range(1, 6)] + [("B", k) for k in range(1, 6)]
                + [("C", k) for k in range(1, 6)] + [("D", k) for k in range(2, 6)]
                + [("G2", 2), ("F4", 4)])


@pytest.mark.parametrize("family,rank", UP_TO_RANK_5)
def test_km_equals_enumeration_every_family_to_rank_5(family, rank):
    assert km_poincare(positive_roots(family, rank)) == weyl_length_genfun(family, rank)


@pytest.mark.parametrize("degrees", [[2], [3], [1, 3], [2, 2], [1, 1, 4], [5, 1]])
def test_poincare_from_degrees_rejects_non_polynomial_products(degrees):
    with pytest.raises(InputError, match="do not come from a regular action"):
        poincare_from_degrees(degrees)


@pytest.mark.parametrize("family,rank", SMALL_SYSTEMS)
def test_prodform_from_heights_matches_km(family, rank):
    rs = positive_roots(family, rank)
    assert poincare_from_degrees(heights(rs)) == km_poincare(rs)


def test_poincare_from_degrees_examples():
    assert poincare_from_degrees([1, 2]).coeffs == (1, 1, 1)
    for n in range(1, 7):
        assert poincare_from_degrees(list(range(1, n + 1))).coeffs == (1,) * (n + 1)
    assert poincare_from_degrees([1]).coeffs == (1, 1)
    assert poincare_from_degrees([]).coeffs == (1,)


def test_poincare_degree_sum_cap():
    """Totals past MAX_DEGREE_SUM are refused before the product formula
    allocates; the cap itself is accepted, as is every supported root system."""
    at_cap = list(range(1, 45)) + [1] * 10  # 990 + 10
    assert sum(at_cap) == MAX_DEGREE_SUM
    assert poincare_from_degrees(at_cap).value_at_one == 45 * 2**10
    for degrees in ([MAX_DEGREE_SUM + 1], at_cap + [1], [1] * (MAX_DEGREE_SUM + 1),
                    [10**18, 1]):
        with pytest.raises(InputError, match=f"sum to at most {MAX_DEGREE_SUM}"):
            poincare_from_degrees(degrees)
    assert max(sum(heights(positive_roots(f, k))) for f, k in EVERY_SYSTEM) <= MAX_DEGREE_SUM


def test_poincare_from_degrees_rejects_bad_input():
    with pytest.raises(InputError):
        poincare_from_degrees([2])
    with pytest.raises(InputError):
        poincare_from_degrees([1, 3])
    with pytest.raises(InputError):
        poincare_from_degrees([0])
    with pytest.raises(InputError):
        poincare_from_degrees([1, "2"])


@pytest.mark.parametrize("family,rank", SMALL_SYSTEMS)
def test_outputs_palindromic_with_unit_constant(family, rank):
    poly = km_poincare(positive_roots(family, rank))
    assert poly.coeffs[0] == 1
    assert poly.coeffs == poly.coeffs[::-1]
    assert poly.value_at_one == weyl_order(family, rank)


def test_enumeration_guard():
    assert weyl_order("B", 8) > 10**6
    with pytest.raises(InputError):
        weyl_length_genfun("B", 8)


def test_weyl_oracle_runs_on_integers_alone():
    """A fresh enumeration loads only the integer modules: no oracles, action,
    poly or fractions."""
    loaded = loaded_by("from borelcurve import rootsystems\n"
                       "rootsystems.weyl_length_genfun('A', 3)")
    assert [m for m in loaded if m.startswith("borelcurve")] == [
        "borelcurve", "borelcurve.errors", "borelcurve.exponents", "borelcurve.record",
        "borelcurve.rootsystems"]
    assert "fractions" not in loaded
    assert rootsystems.WEYL_ENUMERATION_GUARD == 10**6
    with pytest.raises(AttributeError):
        rootsystems.no_such_name


def test_poincare_poly_invariants_enforced():
    with pytest.raises(Exception):
        PoincarePoly((1, 2, 3))  # not palindromic
