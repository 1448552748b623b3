"""`borelcurve curve`: the curve ring, Betti numbers, restrictions, ideals."""

from . import action, curve
from .errors import InputError, int_list
from .rational import degree_bound


def run(args, load) -> tuple:
    model = action.model_from_json(load("spec", args.spec))
    ring = curve.build_curve_ring(model)
    bound = degree_bound(args.max_degree, curve.default_degree_bound(ring))
    options = {"what": args.what, "components": args.components}
    if args.what in ("restrict", "ideal"):
        if args.components is None:
            raise InputError(f"curve {args.what} needs --components")
        subset = int_list(args.components, "component")
    if args.what == "ring":
        result = {
            "generators": [g.to_json() for g in ring.algebra.generators],
            "hilbert": ring.algebra.hilbert_function(bound),
            "betti": curve.betti_numbers(ring, args.max_degree),
            "truncation_degree": bound,
        }
    elif args.what == "betti":
        result = {"betti": curve.betti_numbers(ring, args.max_degree), "truncation_degree": bound}
    elif args.what == "restrict":
        sub = curve.restrict(ring, subset)
        result = {
            "components": sorted(set(subset)),
            "generators": [g.to_json() for g in sub.generators],
            "hilbert": sub.hilbert_function(bound),
            "truncation_degree": bound,
        }
    else:  # ideal
        dims = curve.ideal_hilbert(ring, subset, args.max_degree)
        result = {
            "components": sorted(set(subset)),
            "ideal_hilbert": dims,
            "stabilized_rank": ring.r - len(set(subset)),
            "truncation_degree": bound,
        }
    return options, result, bound
