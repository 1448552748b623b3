"""Equivariant Chern classes on the fixed-point curve via exterior-power traces.

The k-th equivariant Chern class of a linearized bundle restricts at a fixed
point to the trace of the induced endomorphism on the k-th exterior power of
the fibre.  On the curve the relevant endomorphism at parameter v is the one
induced by s(v) = v W - 2 N (W = diag(1,-1), N the nilpotent generator), so on
the component over the j-th fixed point the class is the exact monomial

    e_k(fibre weights at j) * v^k.

A bundle is described per fixed point either by its weight multiset (split
case) or by the pair of matrices (rho_w, rho_v) representing (W, N) on the
fibre.  For a matrix fibre, [rho_w, rho_v] = 2 rho_v makes rho_v map each
generalized lambda-eigenspace of rho_w into the (lambda + 2)-eigenspace.  In a
basis adapted to those eigenspaces, ordered by eigenvalue, v rho_w - 2 rho_v
is block triangular with diagonal blocks v rho_w|_lambda, so it has the
characteristic polynomial of v rho_w, and its k-th exterior trace is
v^k times the exterior trace of rho_w, a number computed over Q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .action import _as_list, _as_matrix
from .curve import CurveRing, restrict
from .errors import InputError
from .exactalg import GradedSubalgebra, HomTuple, Record, to_fraction, to_int
from .gkm import GKMGraph, GKMRing, PrincipalityVerdict, compare_hilberts

Matrix = tuple[tuple, ...]


class SplitFibre(Record):
    """Fibre given by its integer weight multiset (the split/diagonal case)."""

    weights: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.weights)


class MatrixFibre(Record):
    """Fibre given by the representing matrices of the diagonal and nilpotent
    generators; must satisfy [rho_w, rho_v] = 2 rho_v."""

    rho_w: Matrix
    rho_v: Matrix

    @property
    def rank(self) -> int:
        return len(self.rho_w)


class BundleData(Record, frozen=False):
    rank: int
    fibres: dict[int, SplitFibre | MatrixFibre]


def make_bundle(rank: int, fibres: dict[int, SplitFibre | MatrixFibre]) -> BundleData:
    """Validate fibre data: common rank and [rho_w, rho_v] = 2 rho_v.

    That relation makes rho_v nilpotent: [rho_w, rho_v^m] = 2m rho_v^m, so
    tr(rho_v^m) = 0 for all m >= 1, which over Q forces every eigenvalue to 0.
    """
    rank = int(rank)
    if rank < 0:
        raise InputError("bundle rank must be non-negative")
    if not fibres:
        raise InputError("bundle needs at least one fibre")
    checked: dict[int, SplitFibre | MatrixFibre] = {}
    for label, fibre in fibres.items():
        label = int(label)
        if label < 1:
            raise InputError("fixed-point labels must be positive")
        if fibre.rank != rank:
            raise InputError(f"fibre at {label} has rank {fibre.rank}, expected {rank}")
        if isinstance(fibre, MatrixFibre):
            w = _as_matrix(fibre.rho_w, rank)
            v = _as_matrix(fibre.rho_v, rank)
            for i in range(rank):
                for j in range(rank):
                    lhs = sum(w[i][t] * v[t][j] - v[i][t] * w[t][j] for t in range(rank))
                    if lhs != 2 * v[i][j]:
                        raise InputError(f"fibre at {label} violates [rho_w, rho_v] = "
                                         "2 rho_v")
            fibre = MatrixFibre(w, v)
        checked[label] = fibre
    return BundleData(rank, checked)


def bundle_from_json(data: dict) -> BundleData:
    """Parse {"rank":, "fibres": {"j": {"weights":[...]} | {"rho_W":, "rho_V":}}}."""
    try:
        rank = to_int(data["rank"])
        raw = data["fibres"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad bundle spec: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("bad bundle spec: fibres must be an object keyed by fixed-point label")
    fibres: dict[int, SplitFibre | MatrixFibre] = {}
    for key, val in raw.items():
        try:
            label = int(key)
        except ValueError:
            raise InputError(f"fibre key {key!r} is not an integer fixed-point label") from None
        if not isinstance(val, dict):
            raise InputError(f"fibre {key} must be an object with weights or rho_W/rho_V")
        if "weights" in val:
            fibres[label] = SplitFibre(tuple(to_int(w) for w in _as_list(val["weights"])))
        elif "rho_W" in val and "rho_V" in val:
            fibres[label] = MatrixFibre(_as_matrix(val["rho_W"], rank),
                                        _as_matrix(val["rho_V"], rank))
        else:
            raise InputError(f"fibre {key} needs either weights or rho_W/rho_V")
    return make_bundle(rank, fibres)


def tangent_bundle(model) -> BundleData:
    """Tangent bundle of the model: fibre weights at the j-th fixed point are
    the differences h_j - h_i over the other coordinates."""
    h = model.h_weights
    fibres = {}
    for j in range(len(h)):
        fibres[j + 1] = SplitFibre(tuple(h[j] - h[i] for i in range(len(h)) if i != j))
    return make_bundle(model.n, fibres)


def elementary_symmetric(values: Sequence, k: int) -> Fraction:
    """e_k of a multiset, by iterated convolution."""
    if k < 0 or k > len(values):
        raise InputError("k out of range")
    coeffs = [Fraction(1)] + [Fraction(0)] * len(values)
    for val in values:
        v = to_fraction(val)
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] += v * coeffs[i - 1]
    return coeffs[k]


def exterior_trace(matrix, k: int):
    """Trace on the k-th exterior power: e_k of the eigenvalues, over Q.

    Computed as the signed coefficient of the characteristic polynomial via
    the Faddeev-LeVerrier recurrence, whose only divisions are by integers;
    step i yields c_i from c_1..c_(i-1) alone, so the loop stops at step k.
    """
    n = len(matrix)
    m = [[to_fraction(x) for x in row] for row in matrix]
    if any(len(row) != n for row in m):
        raise InputError("matrix must be square")
    if not 0 <= k <= n:
        raise InputError(f"k must lie in 0..{n}")
    if k == 0:
        return Fraction(1)
    # char poly t^n + c_1 t^(n-1) + ... ; e_k = (-1)^k c_k
    cs = []
    current = m
    for i in range(1, k + 1):
        if i > 1:
            shifted = [[current[a][b] + (cs[-1] if a == b else 0)
                        for b in range(n)] for a in range(n)]
            current = [[sum((m[a][t] * shifted[t][b] for t in range(n)),
                            start=Fraction(0)) for b in range(n)] for a in range(n)]
        tr = sum((current[a][a] for a in range(n)), start=Fraction(0))
        cs.append(tr * Fraction(-1, i))
    return cs[k - 1] * Fraction(-1) ** k


def chern_tuple(bundle: BundleData, k: int, cr: CurveRing) -> HomTuple:
    """The degree-k tuple of the k-th equivariant Chern class over the
    bundle's fixed points (sorted by label).

    Split fibres use e_k of the weights directly.  A matrix fibre contributes
    the exterior trace of rho_w: that of v*rho_w - 2*rho_v is v^k times it
    (module docstring).
    """
    labels = sorted(bundle.fibres)
    if labels[0] < 1 or labels[-1] > cr.r:
        raise InputError(f"bundle fixed points must be component labels in 1..{cr.r}")
    if not 0 <= k <= bundle.rank:
        raise InputError(f"k must lie in 0..{bundle.rank}")
    coeffs = []
    for label in labels:
        fibre = bundle.fibres[label]
        if isinstance(fibre, SplitFibre):
            coeffs.append(elementary_symmetric(fibre.weights, k))
            continue
        coeffs.append(exterior_trace(fibre.rho_w, k))
    return HomTuple(k, tuple(coeffs))


def chern_membership(bundle: BundleData, k: int, cr: CurveRing) -> bool:
    """Whether the class restricts to a regular function on the sub-curve.

    True for every genuinely linearized bundle; False means the fibre data is
    not consistently linearizable on the modeled curve.
    """
    t = chern_tuple(bundle, k, cr)
    sub = restrict(cr, sorted(bundle.fibres))
    return sub.member(t)


def chern_subalgebra_verdict(generators: Iterable[HomTuple], graph: GKMGraph,
                             max_degree: int | None = None) -> PrincipalityVerdict:
    """Do the given classes (plus the unit and v) generate the congruence ring?

    Each generator must satisfy the graph congruences, otherwise it could not
    be a class on the modeled subvariety at all.  Equality of Hilbert
    functions up to the bound means the classes generate; a strict deficit is
    reported with its witness degree.  The default bound is the congruence
    ring's stabilization degree, which certifies the verdict (see
    PrincipalityVerdict).
    """
    ring = GKMRing(graph)
    r = len(graph.vertices)
    gens = []
    for t in generators:
        if t.r != r:
            raise InputError("generator component count does not match the graph")
        if not ring.contains(t):
            raise InputError(f"generator {t.to_json()} violates the graph congruences")
        gens.append(t)
    algebra = GradedSubalgebra(r, gens + [HomTuple.ones(r, 1)])
    bound = ring.stabilization_degree if max_degree is None else int(max_degree)
    image = algebra.hilbert_function(bound)
    model_side = ring.hilbert(bound)
    notes = ("comparison of the subalgebra generated by the given classes against "
             "the congruence ring",)
    return compare_hilberts(image, model_side, r, bound, notes)
