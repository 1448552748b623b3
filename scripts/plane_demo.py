#!/usr/bin/env python3
"""End-to-end walkthrough on P^2: the regular action diag(t^2, 1, t^-2), its
fixed-point curve, and the failure of surjectivity for the union of the two
invariant curves.

Run:  python3 scripts/plane_demo.py
"""

from fractions import Fraction

from borelcurve.action import (ActionModel, component_parametrization,
                               fixed_points, validate)
from borelcurve.chern import (chern_membership, chern_subalgebra_verdict,
                              chern_tuple, tangent_bundle)
from borelcurve.curve import betti_numbers, build_curve_ring, default_degree_bound
from borelcurve.exactalg import HomTuple
from borelcurve.gkm import GKMGraph, gkm_ordinary_betti, principal_verdict


def main() -> None:
    e = tuple(tuple(Fraction(1) if j == i + 1 else Fraction(0) for j in range(3))
              for i in range(3))
    model = validate(ActionModel(2, (2, 0, -2), e))
    print("model: torus diag(t^2, 1, t^-2) on P^2, nilpotent with phi(v)_02 = v^2/2")
    print("fixed points:", fixed_points(model))

    for j in (1, 2, 3):
        comp = component_parametrization(model, j)
        charts = ", ".join(str(p) for p in comp.chart_coords)
        print(f"component over fixed point {j}: (w1, w2) = ({charts})")

    ring = build_curve_ring(model)
    bound = default_degree_bound(ring)
    print("curve ring generators:", [g.to_json() for g in ring.algebra.generators])
    print(f"Hilbert function (degrees 0..4): {ring.algebra.hilbert_function(4)}")
    print("Betti numbers of P^2:", betti_numbers(ring), f"(truncation degree {bound})")

    # Y = union of the two invariant curves; each joins o to another fixed point
    graph = GKMGraph((1, 2, 3), ((1, 2, 1), (1, 3, 1)))
    print("\ncongruence graph of Y:", graph.to_json())
    print("ordinary Betti numbers of Y:", gkm_ordinary_betti(graph))
    verdict = principal_verdict(ring, graph)
    print(f"principality: {verdict.status}, witness degree {verdict.witness}")
    print(f"  restriction image Hilbert: {list(verdict.image_hilbert)}")
    print(f"  congruence ring Hilbert:   {list(verdict.gkm_hilbert)}")

    bundle = tangent_bundle(model)
    c1 = chern_tuple(bundle, 1, ring)
    print("\ntangent bundle c1 tuple:", c1.to_json(),
          "regular on the curve:", chern_membership(bundle, 1, ring))

    # first Chern classes of equivariant line bundles on Y come in the shapes
    # (f, -f, -f) and (f, f, f); together they miss part of degree 1
    gens = [HomTuple(1, (1, -1, -1)), HomTuple(1, (1, 1, 1))]
    chern_verdict = chern_subalgebra_verdict(gens, graph)
    print("line-bundle classes generate the congruence ring:",
          chern_verdict.status == "Principal",
          f"(witness degree {chern_verdict.witness})")


if __name__ == "__main__":
    main()
