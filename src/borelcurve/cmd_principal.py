"""`borelcurve principal`: is restriction to the modeled subvariety onto?"""

import json
import sys
import warnings

from . import action, gkm


def run(args, load) -> tuple:
    model = action.model_from_json(load("spec", args.spec))
    graph = gkm.GKMGraph.from_json(load("gkm", args.gkm))
    verdict = gkm.principal_verdict(model, graph, args.max_degree)
    with warnings.catch_warnings(record=True) as caught:  # reported as JSON lines
        warnings.simplefilter("always")
        betti = gkm.gkm_ordinary_betti(graph)
    for warning in caught:
        print(json.dumps({"warning": str(warning.message)}, sort_keys=True), file=sys.stderr)
    result = {"verdict": verdict.to_json(), "gkm_ordinary_betti": betti}
    return {"max_degree": args.max_degree}, result, verdict.bound
