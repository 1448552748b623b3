"""`borelcurve poincare`: Poincare polynomials from the exponents or from degrees."""

from . import exponents
from .errors import InputError, int_list


def run(args, load) -> tuple:
    if args.degrees is not None and (args.family, args.rank) != (None, None):
        raise InputError("choose either --family/--rank or --degrees, not both")
    if args.degrees is not None:
        degrees = int_list(args.degrees, "degree")
        poly = exponents.poincare_from_degrees(degrees)
        options = {"degrees": degrees}
        result = {"poly": list(poly.coeffs)}
    else:
        if args.family is None or args.rank is None:
            raise InputError("poincare needs --family and --rank, or --degrees")
        poly, heights = exponents.poincare(args.family, args.rank)
        options = {"family": args.family, "rank": args.rank}
        result = {"poly": list(poly.coeffs), "weyl_order": poly.value_at_one,
                  "heights": heights}
    return options, result, None
