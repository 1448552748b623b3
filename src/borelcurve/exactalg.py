"""Exact linear algebra over Q and graded subalgebras of tuple rings.

The ambient object everywhere is the tuple ring Q[v] + ... + Q[v] (r copies,
componentwise operations), whose homogeneous elements (HomTuple) live in the
scalar layer `rational` together with the rationals; those names are
re-exported here, and the polynomials of `poly` on first access (PEP 562).
Every ring-theoretic question about a finitely generated graded subalgebra
reduces to exact linear algebra over Q^r, one degree slice at a time, kept
as integer echelon rows; only `rref` builds a reduced basis over Q.

Degrees are half the cohomological degree (the torus weight convention makes
all weights even); presentation layers double them when reporting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError, InternalError, labels, to_int
from .rational import HomTuple, Vec, _cleared, _hadamard, to_fraction


def __getattr__(name):
    if name == "Poly":  # re-exported on first access, so no CLI run compiles it
        from .poly import Poly
        return Poly
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# exact linear algebra over Q


def rref(rows: Iterable[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    A subspace has one reduced echelon basis, whatever rows span it: its
    pivots are the columns at which the span's projection onto the leading
    coordinates grows, and each row is the one vector of the span that is 1
    at its pivot and 0 at the others.  Back-substitution over Fraction, from
    the last row up, reads it off the echelon rows of a RowSpace.
    """
    m = [[to_fraction(x) for x in row] for row in rows]
    space = RowSpace(len(m[0]) if m else 0)
    for row in m:
        space.add(row)
    red = [[Fraction(x, row[p]) for x in row] for row, p in zip(space.rows, space.pivots)]
    for i in reversed(range(len(red))):
        for j in range(i):
            c = red[j][space.pivots[i]]
            if c:
                red[j] = [a - c * b for a, b in zip(red[j], red[i])]
    return red, space.pivots


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


class RowSpace:
    """Fraction-free echelon basis of a subspace of Q^ncols: each row is a list
    of ints with gcd 1, positive at its pivot and 0 before it, pivots increase
    down the rows, and no row is edited once inserted.  `reduce` clears a
    vector's denominators and each pivot by x <- a x - c row (a the row's pivot
    entry, c the entry of x there): an integer multiple of its remainder, zero
    exactly when it lies in the span.  `add` inserts that over its gcd, and returns it.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence) -> list[int]:
        if len(vec) != self.ncols:
            raise InputError("matrix rows differ in length")
        v = list(_cleared((vec,))[1][0])
        for row, p in zip(self.rows, self.pivots):
            a, c = row[p], v[p]
            if c:
                v = [a * x - c * y for x, y in zip(v, row)]
        return v

    def add(self, vec: Sequence) -> list[int] | None:
        """Insert the vector; returns the row stored in `rows`, or None if in the span."""
        v = self.reduce(vec)
        pivot = next((i for i, c in enumerate(v) if c), None)
        if pivot is None:
            return None
        g = 0
        for c in reversed(v):  # ends at the pivot: g = its sign times the gcd
            if c:  # the denominator of g / c is |c| / gcd(g, c)
                g = c // Fraction(g, c).denominator
        at = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        row = [c // g for c in v]
        self.rows.insert(at, row)
        self.pivots.insert(at, pivot)
        return row


# ---------------------------------------------------------------------------
# graded subalgebras


class GradedSubalgebra:
    """The Q[v]-subalgebra of the r-component tuple ring generated by
    homogeneous tuples of positive degree.

    v, the all-ones tuple of degree 1, belongs whether or not it is listed.
    The degree-d slice is the linear subspace V_d of Q^r spanned by the
    coefficient vectors of all degree-d products of v and the generators.
    As v o V_(d-1) = V_(d-1) (o = Hadamard product), the slices form a chain
    V_0 <= V_1 <= ...  Let N_j be the rows that degree j's adds stored (N_0
    the unit): the rows of V_j whose pivots V_(j-1) lacks.  With V_(j-1) they
    span V_j, and g o V_(k-e-1) <= V_(k-1) for a generator g of degree e, so

        V_k = V_(k-1) + span( g o w : g a generator other than v, w in N_(k-e) ).

    Slices are built bottom-up as RowSpaces, each N_j the rows `add` returned;
    V_k starts from a copy of V_(k-1), v's share, so no product by v is formed.

    Once some V_D is all of Q^r every later slice is too.  Below Q^r the
    slices stop at a plateau: with K the largest generator degree (K >= 1, as
    v has degree 1), V_e reads only N_(e-K), ..., N_(e-1), so K empty N's in a
    row stay empty, and K + 1 equal dimensions in a row make every later slice
    equal to the last.  So no slice past the first full one, or past K + 1
    equal ones, is built: that last slice answers every later degree, for
    every question below.
    """

    def __init__(self, r: int, generators: Iterable[HomTuple] = ()):
        self.r = to_int(r, 1, name="component count")
        gens = tuple(generators)
        for g in gens:
            if g.r != self.r:
                raise InputError("component-count mismatch between generators")
            to_int(g.degree, 1, name="generator degree")
        self.generators = gens
        # (degree, g cleared of denominators) for each generator g but v
        self._products = tuple((g.degree, _cleared((g.coeffs,))[1][0])
                               for g in gens if g != HomTuple.ones(self.r, 1))
        self._k = max((g.degree for g in gens), default=1)
        self._slices: list[RowSpace] = []
        self._new: list[list[list[int]]] = []  # N_0, N_1, ...
        self._stopped = False

    # -- slice construction --------------------------------------------------

    def _slice(self, d: int) -> RowSpace:
        """The degree-d slice.  Missing degrees are built bottom-up, up to d or
        the certified stop, whose slice answers every later degree."""
        to_int(d, 0, name="degree")
        built = self._slices
        while len(built) <= d and not self._stopped:
            k = len(built)
            below = built[-1] if built else RowSpace(self.r)  # V_(k-1), 0 below V_0
            space = RowSpace(self.r)  # starts as v's share V_(k-1); no row is ever edited
            space.rows, space.pivots = list(below.rows), list(below.pivots)
            new = [space.add((1,) * self.r)] if k == 0 else []
            new += [space.add(_hadamard(g, w))
                    for e, g in self._products if e <= k for w in self._new[k - e]]
            self._new.append([row for row in new if row is not None])
            built.append(space)
            self._stopped = space.dim == self.r or (
                k >= self._k and built[k - self._k].dim == space.dim)
        return built[min(d, len(built) - 1)]

    # -- the public operations -------------------------------------------------

    def graded_basis(self, d: int) -> list[HomTuple]:
        """Canonical basis of the degree-d slice: the rref of its rows."""
        return [HomTuple(d, row) for row in rref(self._slice(d).rows)[0]]

    def hilbert_function(self, max_degree: int) -> list[int]:
        """[dim V_0, ..., dim V_max_degree]: the dimensions of the slices built
        up to the bound or the stop, then the last one repeated."""
        to_int(max_degree, 0, name="degree bound")
        self._slice(max_degree)
        dims = [space.dim for space in self._slices[:max_degree + 1]]
        return dims + [dims[-1]] * (max_degree + 1 - len(dims))

    def member(self, t: HomTuple) -> bool:
        """Exact membership of a homogeneous tuple in its degree slice."""
        return self.coordinates(t) is not None

    def coordinates(self, t: HomTuple) -> list[Fraction] | None:
        """Coefficients of t over graded_basis(t.degree), or None if not a member:
        t's entries at the pivots, once t reduces to zero."""
        if t.r != self.r:
            raise InputError("component-count mismatch")
        space = self._slice(t.degree)
        return None if any(space.reduce(t.coeffs)) else [t.coeffs[p] for p in space.pivots]

    def quotient_by_v_dims(self, max_degree: int) -> list[int]:
        """Dimensions of the quotient by the ideal (v), degree by degree: entry d is
        dim V_d - dim V_(d-1), a (half-degree) Betti number of the underlying space."""
        h = self.hilbert_function(max_degree)
        out = [h[0]] + [h[d] - h[d - 1] for d in range(1, len(h))]
        if any(x < 0 for x in out):
            raise InternalError("chain property violated: Hilbert function decreased")
        return out

    def kernel_basis(self, subset: Iterable[int], d: int) -> list[HomTuple]:
        """Canonical basis of {x in V_d : x_i = 0 for i in subset} (1-based
        labels), the degree-d piece of the ideal of the sub-curve over them.

        The rref rows of the span of (x on the subset, x), x in V_d, with a
        pivot past the first |subset| columns are 0 there and span every such
        vector; dropping those columns leaves them reduced, so canonical.
        """
        pos = labels(subset, self.r, "component labels")
        red, pivots = rref([row[p - 1] for p in pos] + row for row in self._slice(d).rows)
        return [HomTuple(d, row[len(pos):]) for row, p in zip(red, pivots) if p >= len(pos)]
