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
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InputError, InternalError, Record, ascii_int, clip, labels, to_int
from .rational import (HomTuple, Matrix, _as_list, _as_matrix, _as_object, _cleared, _mat_mul,
                       to_fraction)

if TYPE_CHECKING:  # membership imports curve, the verdict gkm and exactalg, when they run
    from .action import ActionModel
    from .curve import CurveRing
    from .gkm import GKMGraph, PrincipalityVerdict


class SplitFibre(Record):
    """Fibre given by its integer weight multiset (the split/diagonal case)."""

    weights: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.weights)


class MatrixFibre(Record):
    """Fibre given by the representing matrices of the diagonal and nilpotent
    generators.  Each entry is read once, here: rho_w as a square matrix of
    its own row count, rho_v at that size.  make_bundle checks the rank and
    [rho_w, rho_v] = 2 rho_v."""

    rho_w: Matrix
    rho_v: Matrix

    def __post_init__(self):
        w = _as_matrix(self.rho_w, len(_as_list(self.rho_w)))
        object.__setattr__(self, "rho_w", w)
        object.__setattr__(self, "rho_v", _as_matrix(self.rho_v, len(w)))

    @property
    def rank(self) -> int:
        return len(self.rho_w)


class BundleData(Record):
    rank: int
    fibres: dict[int, SplitFibre | MatrixFibre]


def make_bundle(rank: int, fibres: dict[int, SplitFibre | MatrixFibre]) -> BundleData:
    """Check the labels, the common rank and [rho_w, rho_v] = 2 rho_v of
    fibres that have read their own entries (MatrixFibre).

    That relation makes rho_v nilpotent: [rho_w, rho_v^m] = 2m rho_v^m, so
    tr(rho_v^m) = 0 for all m >= 1, which over Q forces every eigenvalue to 0.
    It is checked over int: with (D_w, W) = _cleared(rho_w) and
    (D_v, V) = _cleared(rho_v), it reads WV - VW = 2 D_w V.
    """
    to_int(rank, 0, name="bundle rank")
    if not fibres:
        raise InputError("bundle needs at least one fibre")
    for label, fibre in fibres.items():
        to_int(label, 1, name="fixed-point labels")
        if fibre.rank != rank:
            raise InputError(f"fibre at {clip(str(label))} has rank {fibre.rank}, "
                             f"expected {clip(str(rank))}")
        if isinstance(fibre, MatrixFibre):
            (dw, W), (_, V) = _cleared(fibre.rho_w), _cleared(fibre.rho_v)
            WV, VW = _mat_mul(W, V), _mat_mul(V, W)
            if any(WV[i][j] - VW[i][j] != 2 * dw * V[i][j]
                   for i in range(rank) for j in range(rank)):
                raise InputError(f"fibre at {clip(str(label))} violates [rho_w, rho_v] = 2 rho_v")
    return BundleData(rank, dict(fibres))


def bundle_from_json(data: dict) -> BundleData:
    """Parse {"rank":, "fibres": {"j": {"weights":[...]} | {"rho_W":, "rho_V":}}}."""
    data = _as_object(data, "bundle")
    try:
        rank = to_int(data["rank"], 0, name="bundle rank")  # a bad rank is reported first
        raw = data["fibres"]
    except KeyError as exc:
        raise InputError(f"bad bundle spec: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("bad bundle spec: fibres must be an object keyed by fixed-point label")
    fibres: dict[int, SplitFibre | MatrixFibre] = {}
    for key, val in raw.items():
        try:
            label = ascii_int(key)
        except ValueError:
            raise InputError(f"fibre key {clip(repr(key))} is not an integer fixed-point "
                             "label") from None
        if label in fibres:
            first = next(k for k in raw if ascii_int(k) == label)
            raise InputError(f"fibre keys {clip(repr(first))} and {clip(repr(key))} both name "
                             f"fixed point {label}")
        if not isinstance(val, dict):
            raise InputError(f"fibre {clip(key)} must be an object with weights or rho_W/rho_V")
        if "weights" in val:
            fibres[label] = SplitFibre(tuple(to_int(w) for w in _as_list(val["weights"])))
        elif "rho_W" in val and "rho_V" in val:
            fibres[label] = MatrixFibre(val["rho_W"], val["rho_V"])
        else:
            raise InputError(f"fibre {clip(key)} needs either weights or rho_W/rho_V")
    return make_bundle(rank, fibres)


def tangent_bundle(model) -> BundleData:
    """Tangent bundle of the model: fibre weights at the j-th fixed point are
    the differences h_j - h_i over the other coordinates."""
    h = model.h_weights
    fibres = {}
    for j in range(len(h)):
        fibres[j + 1] = SplitFibre(tuple(h[j] - h[i] for i in range(len(h)) if i != j))
    return make_bundle(model.n, fibres)


def _elementary_all(values: Sequence) -> list[Fraction]:
    """[e_0, ..., e_n] of a multiset of ints or Fractions, by iterated
    convolution (over int when the values are ints, as split-fibre weights are)."""
    coeffs = [1] + [0] * len(values)
    for v in values:
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] += v * coeffs[i - 1]
    return [Fraction(c) for c in coeffs]


def elementary_symmetric(values: Sequence, k: int) -> Fraction:
    """e_k of a multiset."""
    return _elementary_all([to_fraction(v) for v in values])[to_int(k, 0, len(values), "k")]


def _exterior_traces(m: Matrix) -> list[Fraction]:
    """[e_0, ..., e_n] of the eigenvalues of a square rational matrix.

    With (D, A) = _cleared(m), A is an integer matrix whose characteristic
    polynomial t^n + c_1 t^(n-1) + ... has the integer coefficients
    c_i = D^i c_i(m).  One Faddeev-LeVerrier run over int gives them all:
    A_1 = A, A_i = A (A_(i-1) + c_(i-1) I) = A A_(i-1) + c_(i-1) A,
    c_i = -tr(A_i) / i, each division exact; then e_i = (-1)^i c_i / D^i.
    """
    n = len(m)
    d, a = _cleared(m)
    out = [Fraction(1)]
    current, c = a, 0
    for i in range(1, n + 1):
        if i > 1:
            current = [[x + c * y for x, y in zip(p, q)]
                       for p, q in zip(_mat_mul(a, current), a)]
        c, rem = divmod(-sum(current[t][t] for t in range(n)), i)
        if rem:
            raise InternalError(f"Faddeev-LeVerrier step {i} left a remainder")
        out.append(Fraction((-1) ** i * c, d**i))
    return out


def exterior_trace(matrix, k: int) -> Fraction:
    """Trace on the k-th exterior power: e_k of the eigenvalues, over Q."""
    m = _as_matrix(matrix, len(_as_list(matrix)))
    return _exterior_traces(m)[to_int(k, 0, len(m), "k")]


def chern_tuples(bundle: BundleData, cr: ActionModel | CurveRing) -> list[HomTuple]:
    """The tuples of c_0, ..., c_rank over the bundle's fixed points (sorted
    by label), from one trace run per fibre; of cr only the count r is read.

    Split fibres use the elementary symmetric functions of the weights.  A
    matrix fibre contributes the exterior traces of rho_w: those of
    v*rho_w - 2*rho_v are v^k times them (module docstring).
    """
    columns = []
    for label in labels(bundle.fibres, cr.r, "bundle fixed points"):
        fibre = bundle.fibres[label]
        if isinstance(fibre, SplitFibre):
            columns.append(_elementary_all(fibre.weights))
        else:
            columns.append(_exterior_traces(fibre.rho_w))
    return [HomTuple(k, coeffs) for k, coeffs in enumerate(zip(*columns))]


def chern_class(tuples: list[HomTuple], k: int) -> HomTuple:
    """Entry k of chern_tuples(bundle, cr), for k in 0..rank."""
    return tuples[to_int(k, 0, len(tuples) - 1, "k")]


def chern_tuple(bundle: BundleData, k: int, cr: ActionModel | CurveRing) -> HomTuple:
    """The degree-k tuple of the k-th equivariant Chern class (chern_tuples)."""
    return chern_class(chern_tuples(bundle, cr), k)


def regular_on_curve(bundle: BundleData, t: HomTuple, cr: CurveRing) -> bool:
    """Whether t is regular on the sub-curve over the bundle's fixed points."""
    from .curve import restrict
    return restrict(cr, sorted(bundle.fibres)).member(t)


def chern_membership(bundle: BundleData, k: int, cr: CurveRing) -> bool:
    """Whether the class restricts to a regular function on the sub-curve.

    True for every genuinely linearized bundle; False means the fibre data is
    not consistently linearizable on the modeled curve.
    """
    return regular_on_curve(bundle, chern_tuple(bundle, k, cr), cr)


def chern_subalgebra_verdict(generators: Iterable[HomTuple], graph: GKMGraph,
                             max_degree: int | None = None) -> PrincipalityVerdict:
    """Do the given classes (plus the unit and v) generate the congruence ring?

    Each generator must satisfy the graph congruences, otherwise it could not
    be a class on the modeled subvariety at all.  Equality of Hilbert
    functions up to the bound means the classes generate; a strict deficit is
    reported with its witness degree (gkm.decide).
    """
    from .exactalg import GradedSubalgebra
    from .gkm import GKMRing, decide
    ring = GKMRing(graph)
    gens = list(generators)
    for t in gens:
        if not ring.contains(t):  # raises on a component-count mismatch
            raise InputError(f"generator {clip(str(t.to_json()))} violates the graph congruences")
    notes = ("comparison of the subalgebra generated by the given classes against "
             "the congruence ring",)
    return decide(GradedSubalgebra(ring.r, gens).hilbert_function, ring, max_degree, notes)
