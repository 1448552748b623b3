"""`borelcurve principal`: is restriction to the modeled subvariety onto?"""

import sys

from . import action, gkm


def run(args, load) -> tuple:
    model = action.model_from_json(load("spec", args.spec))
    graph = gkm.GKMGraph.from_json(load("gkm", args.gkm))
    verdict = gkm.principal_verdict(model, graph, args.max_degree)
    betti = gkm.gkm_ordinary_betti(graph)
    if betti[0] != 1:  # more than one component: a JSON line on stderr
        print('{"warning": "graph is disconnected; Betti bookkeeping applies per connected '
              'component"}', file=sys.stderr)
    result = {"verdict": verdict.to_json(), "gkm_ordinary_betti": betti}
    return {"max_degree": args.max_degree}, result, verdict.bound
