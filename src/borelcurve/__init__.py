"""Exact equivariant cohomology of regular Borel actions on projective space.

The library models an action of the upper-triangular Borel of SL2 on P^n with
a single unipotent fixed point, builds the coordinate ring of the associated
fixed-point curve (one rational component per torus-fixed point), and decides
whether invariant subvarieties have surjective restriction maps, comparing
against user-modeled congruence rings and Chern-class-generated subalgebras.
All arithmetic is exact.

Importing the package loads no submodule; each name in _EXPORTS is imported
from its submodule on first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "action": ("ActionModel", "CurveComponent", "big_cell_degrees", "check_fixed_point_return",
               "component_parametrization", "exp_e", "fixed_points", "model_from_json",
               "principal_model", "sl2_family_checks", "validate"),
    "chern": ("BundleData", "MatrixFibre", "SplitFibre", "bundle_from_json", "chern_membership",
              "chern_subalgebra_verdict", "chern_tuple", "elementary_symmetric",
              "exterior_trace", "make_bundle", "tangent_bundle"),
    "curve": ("CurveRing", "betti_numbers", "build_curve_ring", "default_degree_bound",
              "ideal_hilbert", "restrict"),
    "errors": ("InputError", "InternalError"),
    "exactalg": ("GradedSubalgebra", "HomTuple", "Poly", "format_fraction", "to_fraction"),
    "gkm": ("GKMGraph", "GKMRing", "PrincipalityVerdict", "gkm_ordinary_betti",
            "principal_verdict"),
    "rootsystems": ("PoincarePoly", "RootSystem", "heights", "km_poincare",
                    "poincare_from_degrees", "positive_roots", "weyl_length_genfun",
                    "weyl_order"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
