"""`borelcurve principal`: is restriction to the modeled subvariety onto?"""

import json
import sys
import warnings

from . import action, curve, gkm
from .cmd_common import _load_json, _report


def run(args) -> dict:
    inputs: dict = {}
    model = action.model_from_json(_load_json(inputs, "spec", args.spec))
    ring = curve.build_curve_ring(model)
    graph = gkm.GKMGraph.from_json(_load_json(inputs, "gkm", args.gkm))
    verdict = gkm.principal_verdict(ring, graph, args.max_degree)
    with warnings.catch_warnings(record=True) as caught:  # reported as JSON lines
        warnings.simplefilter("always")
        betti = gkm.gkm_ordinary_betti(graph)
    for warning in caught:
        print(json.dumps({"warning": str(warning.message)}, sort_keys=True), file=sys.stderr)
    result = {"verdict": verdict.to_json(), "gkm_ordinary_betti": betti}
    return _report("principal", {"max_degree": args.max_degree}, inputs, result, verdict.bound)
