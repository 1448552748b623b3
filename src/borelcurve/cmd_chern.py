"""`borelcurve chern`: Chern class tuples, membership, generation verdicts."""

from . import action, chern
from .errors import InputError, clip
from .rational import degree_bound


def run(args, load) -> tuple:
    model = action.model_from_json(load("spec", args.spec))
    if args.test_membership:  # only membership reads the curve ring
        from . import curve
        ring = curve.build_curve_ring(model)
    bundles = []
    for idx, spec in enumerate(args.bundle or []):
        if spec == "tangent":
            bundles.append(("tangent", chern.tangent_bundle(model)))
        else:
            data = load(f"bundle{idx}", spec)
            bundles.append((spec, chern.bundle_from_json(data)))
    if not bundles:
        raise InputError("chern needs at least one --bundle (a JSON path or 'tangent')")
    degree_bound(args.max_degree, None)  # checked without --gkm too
    per_bundle, tuples = [], []  # tuples: c_0..c_rank of each bundle, computed once
    for name, bundle in bundles:
        tuples.append(chern.chern_tuples(bundle, model))
        t = chern.chern_class(tuples[-1], args.k)
        entry = {"bundle": name, "k": args.k, "tuple": t.to_json()}
        if args.test_membership:
            entry["membership"] = chern.regular_on_curve(bundle, t, ring)
        per_bundle.append(entry)
    result: dict = {"bundles": per_bundle}
    bound = None
    if args.gkm is not None:
        from . import gkm
        graph = gkm.GKMGraph.from_json(load("gkm", args.gkm))
        generators = []
        for (name, bundle), classes in zip(bundles, tuples):
            label = min(set(bundle.fibres) ^ set(graph.vertices), default=None)
            if label is not None:  # the first label in one set and not the other
                raise InputError(f"bundle {clip(name)} fixed points do not match graph "
                                 f"vertices at label {clip(str(label))}")
            generators.extend(classes[1:])
        verdict = chern.chern_subalgebra_verdict(generators, graph, args.max_degree)
        result["subalgebra_verdict"] = verdict.to_json()
        bound = verdict.bound
    return ({"k": args.k, "test_membership": args.test_membership,
             "max_degree": args.max_degree}, result, bound)
