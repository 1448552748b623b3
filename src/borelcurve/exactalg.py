"""Exact linear algebra over Q and graded subalgebras of tuple rings.

The ambient object everywhere is the tuple ring Q[v] + ... + Q[v] (r copies,
componentwise operations), whose homogeneous elements (HomTuple) live in the
scalar layer `rational` together with the rationals; those names are
re-exported here, and the polynomials of `poly` on first access (PEP 562).
Every ring-theoretic question about a finitely generated graded subalgebra
reduces to exact linear algebra over Q^r, one degree slice at a time.

Degrees are half the cohomological degree (the torus weight convention makes
all weights even); presentation layers double them when reporting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError, InternalError, labels, to_int
from .rational import (  # noqa: F401  the scalar layer, re-exported for existing imports
    HomTuple, Vec, _hadamard, format_fraction, to_fraction)


def __getattr__(name):
    if name == "Poly":  # re-exported on first access, so no CLI run compiles it
        from .poly import Poly
        return Poly
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# exact linear algebra over Q


def rref(rows: Iterable[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    A subspace has one reduced echelon basis: its pivots are the columns at
    which the span's projection onto the leading coordinates grows, and each
    row is the one vector of the span that is 1 at its pivot and 0 at the
    others.  So it is the basis a RowSpace of the rows keeps.
    """
    m = [list(row) for row in rows]
    if any(len(row) != len(m[0]) for row in m):
        raise InputError("matrix rows differ in length")
    space = RowSpace(len(m[0]) if m else 0)
    for row in m:
        space.add(row)
    return space.rows, space.pivots


def nullspace(rows: Iterable[Sequence], ncols: int) -> list[Vec]:
    """Canonical basis of {x in Q^ncols : A x = 0} for the matrix with given rows."""
    rows = list(rows)
    if any(len(row) != ncols for row in rows):
        raise InputError(f"matrix rows must have {ncols} entries")
    red, pivots = rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
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
        if any(self.reduce(v)):
            return None
        return [v[p] for p in self.pivots]

    def basis_vectors(self) -> list[Vec]:
        return [tuple(row) for row in self.rows]


# ---------------------------------------------------------------------------
# graded subalgebras


class GradedSubalgebra:
    """Subalgebra of the r-component tuple ring generated by homogeneous tuples.

    The degree-d slice is the linear subspace V_d of Q^r spanned by the
    coefficient vectors of all degree-d products of generators and the unit.
    Slices are built by dynamic programming

        V_d = span( g o w : g generator of degree e <= d, w in V_{d-e} )

    (o = Hadamard product), seeded by V_0, then saturated under multiplication
    by degree-0 generators.  Slices are built bottom-up and cached as
    canonical RREF bases.

    When the all-ones degree-1 tuple (the element v) belongs to the algebra,
    the slices form a chain V_0 <= V_1 <= ..., so once some V_D is all of Q^r
    every later slice is too, and degrees 0..D decide every slice question.

    With v a generator the slices also stop at a plateau below Q^r.  Let K be
    the largest generator degree (K >= 1, as v has degree 1) and suppose
    V_(e-1-K) = ... = V_(e-1) = W (equal dimensions mean equal spaces on a
    chain).  A generator g of degree 1 <= k <= K gives
    g o V_(e-k) = g o V_(e-1-k) <= V_(e-1) = W, and W is already saturated
    under the degree-0 generators, so V_e <= W; v o W = W gives V_e >= W.
    So V_e = W, and by induction every later slice is W: K + 1 equal
    dimensions in a row certify the rest of the Hilbert function.
    """

    def __init__(self, r: int, generators: Iterable[HomTuple] = ()):
        self.r = to_int(r, 1, name="component count")
        gens = tuple(generators)
        for g in gens:
            if g.r != self.r:
                raise InputError("component-count mismatch between generators")
        self.generators = gens
        self._slices: list[RowSpace] = []

    # -- slice construction --------------------------------------------------

    def _saturate_degree_zero(self, space: RowSpace) -> None:
        # each vector that enlarges the span is multiplied by every degree-0
        # generator once, so the span ends closed under all of them
        zero_gens = [g.coeffs for g in self.generators if g.degree == 0]
        queue = list(space.rows) if zero_gens else []
        while queue:
            w = queue.pop()
            for g in zero_gens:
                if space.add(product := _hadamard(g, w)):
                    queue.append(product)

    def _slice(self, d: int) -> RowSpace:
        """The degree-d slice; missing degrees are built bottom-up."""
        to_int(d, 0, name="degree")
        while len(self._slices) <= d:
            k = len(self._slices)
            space = RowSpace(self.r)
            if k == 0:
                space.add((Fraction(1),) * self.r)
            for g in self.generators:
                if 1 <= g.degree <= k:  # V_0 holds the unit, so g itself when k = deg g
                    for row in self._slices[k - g.degree].rows:
                        space.add(_hadamard(g.coeffs, row))
            self._saturate_degree_zero(space)
            self._slices.append(space)
        return self._slices[d]

    # -- the public operations -------------------------------------------------

    def graded_basis(self, d: int) -> list[HomTuple]:
        """Canonical row-reduced basis of the degree-d slice."""
        return [HomTuple(d, vec) for vec in self._slice(d).basis_vectors()]

    def hilbert_function(self, max_degree: int) -> list[int]:
        """[dim V_0, ..., dim V_max_degree]; with v a generator no slice past the
        first full one, or past K + 1 equal ones, is built (the chain above)."""
        to_int(max_degree, 0, name="degree bound")
        chain = HomTuple.ones(self.r, 1) in self.generators
        plateau = max(g.degree for g in self.generators) + 1 if chain else 0
        out: list[int] = []
        for d in range(max_degree + 1):
            out.append(self._slice(d).dim)
            if chain and (out[-1] == self.r or out[-plateau:] == [out[-1]] * plateau):
                return out + [out[-1]] * (max_degree - d)
        return out

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

    def kernel_basis(self, subset: Iterable[int], d: int) -> list[HomTuple]:
        """Canonical basis of {x in V_d : x_i = 0 for i in subset} (1-based
        labels), the degree-d piece of the ideal of the sub-curve over them.

        The reduced echelon rows of the span of (x on the subset, x), x in V_d,
        with a pivot past the first |subset| columns are 0 there and span every
        such vector; dropping those columns leaves them reduced, so canonical.
        """
        pos = labels(subset, self.r, "component labels")
        space = RowSpace(len(pos) + self.r)
        for row in self._slice(d).rows:
            space.add([row[p - 1] for p in pos] + row)
        return [HomTuple(d, row[len(pos):])
                for row, p in zip(space.rows, space.pivots) if p >= len(pos)]
