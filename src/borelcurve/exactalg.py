"""Exact linear algebra over Q and graded subalgebras of tuple rings.

The ambient object everywhere is the tuple ring Q[v] + ... + Q[v] (r copies,
componentwise operations), whose homogeneous elements (HomTuple) live in the
scalar layer `rational` together with the rationals and polynomials; those
names are re-exported here.  Every ring-theoretic question about a finitely
generated graded subalgebra reduces to exact linear algebra over Q^r, one
degree slice at a time.

Degrees are half the cohomological degree (the torus weight convention makes
all weights even); presentation layers double them when reporting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError, InternalError
from .rational import (  # noqa: F401  the scalar layer, re-exported for existing imports
    MAX_DEGREE, HomTuple, Poly, Vec, _hadamard, format_fraction, to_fraction, to_int)
from .record import Record  # noqa: F401  re-exported for existing imports


# ---------------------------------------------------------------------------
# exact linear algebra over Q


def _pivot_weight(q: Fraction) -> int:
    # simplest fraction wins the pivot, which keeps intermediate entries small
    return abs(q.numerator) * q.denominator


def rref(rows: Iterable[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Pivots are chosen among candidate rows by smallest |numerator|*denominator,
    ties broken by row order, so the result is deterministic.
    """
    m = [[to_fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    top = 0
    for col in range(ncols):
        best = None
        for i in range(top, len(m)):
            if m[i][col] != 0:
                w = _pivot_weight(m[i][col])
                if best is None or w < best[0]:
                    best = (w, i)
        if best is None:
            continue
        i = best[1]
        m[top], m[i] = m[i], m[top]
        inv = 1 / m[top][col]
        m[top] = [x * inv for x in m[top]]
        for j in range(len(m)):
            if j != top and m[j][col] != 0:
                f = m[j][col]
                m[j] = [a - f * b if b else a for a, b in zip(m[j], m[top])]
        pivots.append(col)
        top += 1
        if top == len(m):
            break
    return m[:top], pivots


def nullspace(rows: Iterable[Sequence], ncols: int) -> list[Vec]:
    """Canonical basis of {x in Q^ncols : A x = 0} for the matrix with given rows."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def solve_linear_system(rows: Iterable[Sequence], rhs: Sequence) -> list[Fraction]:
    """Unique exact solution x of A x = b; raises InternalError otherwise."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    ncols = len(aug[0]) - 1
    red, pivots = rref(aug)
    if ncols in pivots:
        raise InternalError("inconsistent linear system")
    if len(pivots) != ncols:
        raise InternalError("linear system does not have a unique solution")
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[-1]
    return x


class RowSpace:
    """Incrementally maintained canonical (RREF) basis of a subspace of Q^ncols.

    Rows are kept fully reduced with pivot entries 1 and pivot columns sorted,
    so the basis does not depend on insertion order.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence) -> list[Fraction]:
        v = [to_fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence) -> bool:
        return all(c == 0 for c in self.reduce(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert the vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        pivot = next((i for i, c in enumerate(v) if c != 0), None)
        if pivot is None:
            return False
        inv = 1 / v[pivot]
        v = [c * inv for c in v]
        for i in range(len(self.rows)):
            c = self.rows[i][pivot]
            if c != 0:
                self.rows[i] = [a - c * b for a, b in zip(self.rows[i], v)]
        at = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True

    def coordinates(self, vec: Sequence) -> list[Fraction] | None:
        """Coefficients of vec over self.rows, or None if vec is outside the span."""
        v = [to_fraction(x) for x in vec]
        coords = [v[p] for p in self.pivots]
        recon = [Fraction(0)] * self.ncols
        for c, row in zip(coords, self.rows):
            if c != 0:
                recon = [a + c * b for a, b in zip(recon, row)]
        if recon != v:
            return None
        return coords

    def basis_vectors(self) -> list[Vec]:
        return [tuple(row) for row in self.rows]


# ---------------------------------------------------------------------------
# graded subalgebras


class GradedSubalgebra:
    """Subalgebra of the r-component tuple ring generated by homogeneous tuples.

    The degree-d slice is the linear subspace V_d of Q^r spanned by the
    coefficient vectors of all degree-d products of generators (and the unit,
    when adjoined).  Slices are built by dynamic programming

        V_d = span( g o w : g generator of degree e <= d, w in V_{d-e} )

    (o = Hadamard product), seeded by V_0, then saturated under multiplication
    by degree-0 generators.  Slices are built bottom-up and cached as
    canonical RREF bases.

    When the all-ones degree-1 tuple (the element v) belongs to the algebra,
    the slices form a chain V_0 <= V_1 <= ..., so once some V_D is all of Q^r
    every later slice is too, and degrees 0..D decide every slice question.
    """

    def __init__(self, r: int, generators: Iterable[HomTuple] = (), contains_unit: bool = True):
        if r < 1:
            raise InputError("component count must be positive")
        self.r = int(r)
        gens = tuple(generators)
        for g in gens:
            if g.r != self.r:
                raise InputError("component-count mismatch between generators")
        self.generators = gens
        self.contains_unit = bool(contains_unit)
        self._slices: list[RowSpace] = []

    # -- slice construction --------------------------------------------------

    def _saturate_degree_zero(self, space: RowSpace) -> None:
        zero_gens = [g for g in self.generators if g.degree == 0]
        if not zero_gens:
            return
        changed = True
        while changed:
            changed = False
            for g in zero_gens:
                for row in [list(r) for r in space.rows]:
                    if space.add(_hadamard(g.coeffs, row)):
                        changed = True

    def _slice(self, d: int) -> RowSpace:
        """The degree-d slice; missing degrees are built bottom-up."""
        if d < 0:
            raise InputError("degree must be non-negative")
        while len(self._slices) <= d:
            k = len(self._slices)
            space = RowSpace(self.r)
            if k == 0 and self.contains_unit:
                space.add((Fraction(1),) * self.r)
            for g in self.generators:
                if 1 <= g.degree < k:
                    for row in self._slices[k - g.degree].rows:
                        space.add(_hadamard(g.coeffs, row))
                elif g.degree == k:
                    space.add(g.coeffs)
            self._saturate_degree_zero(space)
            self._slices.append(space)
        return self._slices[d]

    # -- the public operations -------------------------------------------------

    def graded_basis(self, d: int) -> list[HomTuple]:
        """Canonical row-reduced basis of the degree-d slice."""
        return [HomTuple(d, vec) for vec in self._slice(d).basis_vectors()]

    def hilbert_function(self, max_degree: int) -> list[int]:
        """[dim V_0, ..., dim V_max_degree]."""
        if max_degree < 0:
            raise InputError("degree bound must be non-negative")
        return [self._slice(d).dim for d in range(max_degree + 1)]

    def member(self, t: HomTuple) -> bool:
        """Exact membership of a homogeneous tuple in its degree slice."""
        if t.r != self.r:
            raise InputError("component-count mismatch")
        return self._slice(t.degree).contains(t.coeffs)

    def coordinates(self, t: HomTuple) -> list[Fraction] | None:
        """Coefficients of t over graded_basis(t.degree), or None if not a member."""
        if t.r != self.r:
            raise InputError("component-count mismatch")
        return self._slice(t.degree).coordinates(t.coeffs)

    def quotient_by_v_dims(self, max_degree: int) -> list[int]:
        """Dimensions of the quotient by the ideal (v), degree by degree.

        Entry d is dim V_d - dim V_{d-1}; under the chain property these are
        the (half-degree) Betti numbers of the underlying space.  Requires the
        all-ones degree-1 tuple to be a member, otherwise the quotient grading
        is undefined.
        """
        if not self.member(HomTuple.ones(self.r, 1)):
            raise InputError("the element v (all-ones tuple of degree 1) is not in the "
                             "algebra; quotient by (v) is undefined")
        h = self.hilbert_function(max_degree)
        out = [h[0]] + [h[d] - h[d - 1] for d in range(1, len(h))]
        if any(x < 0 for x in out):
            raise InternalError("chain property violated: Hilbert function decreased")
        return out

    def kernel_basis(self, labels: Iterable[int], d: int) -> list[HomTuple]:
        """Basis of {x in V_d : x_i = 0 for all i in labels} (labels are 1-based).

        This is the degree-d piece of the ideal of the sub-curve over the given
        components.
        """
        pos = sorted(set(int(i) for i in labels))
        if not pos:
            raise InputError("component subset must be nonempty")
        if pos[0] < 1 or pos[-1] > self.r:
            raise InputError(f"component labels must lie in 1..{self.r}")
        basis = self._slice(d).basis_vectors()
        if not basis:
            return []
        constraint = [[row[p - 1] for row in basis] for p in pos]
        combos = nullspace(constraint, len(basis))
        space = RowSpace(self.r)
        for c in combos:
            vec = [Fraction(0)] * self.r
            for a, row in zip(c, basis):
                if a != 0:
                    vec = [x + a * y for x, y in zip(vec, row)]
            space.add(vec)
        return [HomTuple(d, v) for v in space.basis_vectors()]

    def generator_support(self) -> set[int]:
        """1-based labels of components touched by some generator."""
        out = set()
        for g in self.generators:
            for i, c in enumerate(g.coeffs):
                if c != 0:
                    out.add(i + 1)
        return out

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "contains_unit": self.contains_unit,
            "generators": [g.to_json() for g in self.generators],
        }

    def __repr__(self):
        return f"GradedSubalgebra(r={self.r}, generators={len(self.generators)})"
