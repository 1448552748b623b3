import contextlib
import importlib.util
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from borelcurve import cli
from borelcurve.action import ActionModel, principal_model, validate
from borelcurve.curve import build_curve_ring
from borelcurve.exactalg import HomTuple
from borelcurve.gkm import GKMGraph

ROOT = Path(__file__).resolve().parent.parent


def load_bench_jobs():
    """bench/jobs.py, imported as it stands (bench/ is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_jobs", ROOT / "bench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def run_cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `cli.main(argv)`, its streams redirected."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# independent oracle: enumerate every monomial of total degree d and span


def reduce_by(basis, vec):
    """vec minus its multiples of the echelon basis rows, pivot by pivot."""
    v = list(vec)
    for b in basis:
        p = next(i for i, x in enumerate(b) if x != 0)
        if v[p] != 0:
            f = v[p] / b[p]
            v = [a - f * c for a, c in zip(v, b)]
    return v


def span_basis(vectors):
    """An echelon basis of the span of the vectors, by the reduction above."""
    basis = []
    for vec in vectors:
        v = reduce_by(basis, vec)
        if any(x != 0 for x in v):
            basis.append(v)
    return basis


def in_span(basis, vec):
    return all(x == 0 for x in reduce_by(basis, vec))


def monomial_span(r, gens, d):
    """An echelon basis of the degree-d slice of the Q[v]-subalgebra that the
    generators (degrees >= 1) generate: the span of every monomial of total
    degree d in them and v."""
    gens = [*gens, HomTuple.ones(r, 1)]
    vectors = []

    def rec(idx, remaining, current):
        if remaining == 0:
            vectors.append(tuple(current))
            return
        if idx == len(gens):
            return
        rec(idx + 1, remaining, current)
        g = gens[idx]
        if g.degree <= remaining:
            rec(idx, remaining - g.degree, [a * b for a, b in zip(current, g.coeffs)])

    rec(0, d, [Fraction(1)] * r)
    return span_basis(vectors)


def definition_slices(r, gens, bound):
    """Echelon bases of V_0, ..., V_bound read off the definition: V_0 is
    spanned by the unit, and V_d by g o x for every generator g (v included)
    and every x in V_(d - deg g).  No chain rule and no stop."""
    gens = [*gens, HomTuple.ones(r, 1)]
    slices = [span_basis([[Fraction(1)] * r])]
    for d in range(1, bound + 1):
        slices.append(span_basis([[a * b for a, b in zip(g.coeffs, x)]
                                  for g in gens if g.degree <= d
                                  for x in slices[d - g.degree]]))
    return slices


def jordan_block(size: int):
    return tuple(tuple(Fraction(1) if j == i + 1 else Fraction(0) for j in range(size))
                 for i in range(size))


@pytest.fixture(scope="session")
def plane_model():
    """The diag(t^2, 1, t^-2) action on P^2 with the standard nilpotent."""
    return validate(ActionModel(2, (2, 0, -2), jordan_block(3)))


@pytest.fixture(scope="session")
def plane_ring(plane_model):
    return build_curve_ring(plane_model)


@pytest.fixture(scope="session")
def line_model():
    return principal_model(1)


@pytest.fixture(scope="session")
def curves_union_graph():
    """Congruence graph of the union of the two invariant curves in P^2:
    each curve joins o to one of the other fixed points."""
    return GKMGraph((1, 2, 3), ((1, 2, 1), (1, 3, 1)))
