"""The exponent route of `exponents` against the root tables of `rootsystems`.

Kostant's duality gives the heights, the polynomial and |W| from the
exponents alone; the root tables, their heights as the pairing with rho^v, the
classical Weyl group orders and the Weyl-group enumeration are computed
without them.
"""

import pytest

from borelcurve import exponents, rootsystems
from borelcurve.errors import InputError
from borelcurve.rootsystems import WEYL_ENUMERATION_GUARD, weyl_length_genfun

EVERY_SYSTEM = [(family, rank) for family, (low, high, _) in exponents.EXPONENTS.items()
                for rank in range(low, high + 1)]


def test_every_supported_system_is_listed():
    assert len(EVERY_SYSTEM) == 33


@pytest.mark.parametrize("family,rank", EVERY_SYSTEM)
def test_exponent_route_matches_the_root_tables(family, rank):
    poly, heights = exponents.poincare(family, rank)
    rs = rootsystems.positive_roots(family, rank)
    assert heights == sorted(rootsystems.heights(rs))
    assert poly == rootsystems.km_poincare(rs)
    assert poly.value_at_one == rootsystems.weyl_order(family, rank)
    if rootsystems.weyl_order(family, rank) <= WEYL_ENUMERATION_GUARD:
        assert poly == weyl_length_genfun(family, rank)


@pytest.mark.parametrize("family,rank,expected", [
    ("A", 3, [1, 2, 3]), ("B", 3, [1, 3, 5]), ("C", 2, [1, 3]),
    ("D", 2, [1, 1]), ("D", 4, [1, 3, 5, 3]), ("G2", 2, [1, 5]), ("F4", 4, [1, 5, 7, 11]),
])
def test_exponent_table(family, rank, expected):
    assert exponents.exponents(family, rank) == expected


@pytest.mark.parametrize("family,rank,message", [
    ("E8", 8, "unsupported family 'E8' (expected A, B, C, D, G2 or F4)"),
    (None, 2, "unsupported family None (expected A, B, C, D, G2 or F4)"),
    ("A", 0, "A-family rank must be 1..8"),
    ("A", 9, "A-family rank must be 1..8"),
    ("D", 1, "D-family rank must be 2..8"),
    ("G2", 3, "G2 has rank 2"),
    ("F4", 5, "F4 has rank 4"),
    ("B", True, "expected an integer, got True"),
    ("C", "3", "expected an integer, got '3'"),
])
def test_unsupported_family_or_rank(family, rank, message):
    """Both routes give the one check's exact message."""
    for route in (exponents.poincare, rootsystems.positive_roots, rootsystems.weyl_order):
        with pytest.raises(InputError) as exc:
            route(family, rank)
        assert str(exc.value) == message


def test_moved_names_resolve_from_rootsystems():
    for name in ("MAX_RANK", "MAX_DEGREE_SUM", "PoincarePoly", "_product_formula",
                 "poincare_from_degrees"):
        assert getattr(rootsystems, name) is getattr(exponents, name)
