"""`borelcurve action`: validate a model, its fixed points, its curve."""

from . import action


def run(args, load) -> tuple:
    model = action.model_from_json(load("spec", args.spec))
    options = {"what": args.what}
    if args.what == "validate":
        result = {"valid": True,
                  "model": model.to_json(),
                  "big_cell_degrees": action.big_cell_degrees(model)}
    elif args.what == "fixed-points":
        result = {"fixed_points": [list(p) for p in action.fixed_points(model)]}
    else:  # curve
        comps = [action.component_parametrization(model, j)
                 for j in range(1, model.n + 2)]
        result = {"components": [c.to_json() for c in comps]}
    return options, result, None
