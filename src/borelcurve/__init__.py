"""Exact equivariant cohomology of regular Borel actions on projective space.

The library models an action of the upper-triangular Borel of SL2 on P^n with
a single unipotent fixed point, builds the coordinate ring of the associated
fixed-point curve (one rational component per torus-fixed point), and decides
by exact linear algebra whether invariant subvarieties have surjective
restriction maps, comparing against user-modeled congruence rings and
Chern-class-generated subalgebras.  All arithmetic is exact.
"""

from .action import (ActionModel, CurveComponent, big_cell_degrees,
                     check_fixed_point_return, component_parametrization, exp_e,
                     fixed_points, model_from_json, principal_model,
                     sl2_family_checks, validate)
from .chern import (BundleData, MatrixFibre, SplitFibre, bundle_from_json,
                    chern_membership, chern_subalgebra_verdict, chern_tuple,
                    elementary_symmetric, exterior_trace, make_bundle,
                    tangent_bundle)
from .curve import (CurveRing, betti_numbers, build_curve_ring,
                    default_degree_bound, ideal_hilbert, restrict)
from .errors import InputError, InternalError
from .exactalg import (GradedSubalgebra, HomTuple, Poly, format_fraction,
                       to_fraction)
from .gkm import (GKMGraph, GKMRing, PrincipalityVerdict, gkm_ordinary_betti,
                  principal_verdict)
from .rootsystems import (PoincarePoly, RootSystem, heights, km_poincare,
                          poincare_from_degrees, positive_roots,
                          weyl_length_genfun, weyl_order)

__version__ = "0.1.0"
