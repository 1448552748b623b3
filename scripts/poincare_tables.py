#!/usr/bin/env python3
"""Print Kostant-Macdonald polynomials for the supported root systems and
cross-check each row: the exponent route of `exponents.poincare` against the
root tables (their height walk and product formula), and both against
brute-force Weyl group enumeration.

Run:  python3 scripts/poincare_tables.py
"""

from borelcurve.exponents import poincare
from borelcurve.rootsystems import (heights, km_poincare, positive_roots,
                                    weyl_length_genfun, weyl_order)

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
           ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G2", 2), ("F4", 4)]


def main() -> None:
    print(f"{'system':8} {'|W|':>6} {'heights':28} poincare polynomial")
    for family, rank in SYSTEMS:
        rs = positive_roots(family, rank)
        poly = km_poincare(rs)
        hts = sorted(heights(rs))
        assert poincare(family, rank) == (poly, hts), f"exponent route differs for {family}{rank}"
        oracle = weyl_length_genfun(family, rank)
        assert poly == oracle, f"oracle mismatch for {family}{rank}"
        label = family if family in ("G2", "F4") else f"{family}{rank}"
        print(f"{label:8} {weyl_order(family, rank):>6} {','.join(map(str, hts)):28} "
              f"{list(poly.coeffs)}")
    print("\nall rows verified against the exponents and Weyl enumeration")


if __name__ == "__main__":
    main()
