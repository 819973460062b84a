"""Exact integer linear algebra.

Everything is computed with Python's arbitrary-precision integers, and every
elimination is fraction-free (Bareiss steps, each division exact).  Solves
read the adjugate: ``adj.b`` divided exactly by det is the integral solution,
and ``Fraction`` enters only in the final division of ``solve_rational``.
The same adjugate gives every facet row of a simplex (``geometry``), where
one more row-by-row Bareiss elimination (``geometry._affine_basis``) picks a
point sequence's affine basis and the coordinates its hull projects onto.
There is deliberately no floating point anywhere: every predicate downstream
(membership, unimodularity, volumes) reduces to the exact operations here.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, SingularMatrixError

#: Hard cap on matrix rows and columns and, in ``geometry``, on the ambient
#: dimension: desk-scale, so huge inputs fail fast instead of hanging.
DIM_CAP = 8
_RATIONAL = frozenset((int, Fraction))  # a rational entry's types, exactly


class IntMatrix:
    """Immutable dense integer matrix, row-major, arbitrary precision."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(row) for row in rows)
        if not data or not data[0]:
            raise DimensionMismatchError("matrix dimensions must be at least 1x1")
        ncols = len(data[0])
        for row in data:
            if len(row) != ncols:
                raise DimensionMismatchError("ragged rows in matrix")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"matrix entries must be int, got {x!r}")
        if len(data) > DIM_CAP or ncols > DIM_CAP:
            raise DimensionMismatchError(
                f"matrix dimensions capped at {DIM_CAP}, got {len(data)}x{ncols}"
            )
        self.rows = len(data)
        self.cols = ncols
        self.data = data

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        if not columns:
            raise DimensionMismatchError("need at least one column")
        return cls(tuple(zip(*columns)))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def columns(self) -> tuple:
        return tuple(zip(*self.data))

    def diagonal(self) -> tuple:
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.data))

    def mul_vector(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length does not match column count")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.data)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError("inner dimensions do not match")
        cols = other.columns()
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.data)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]})"


def _bareiss(rows: Sequence[Sequence[int]], jordan: bool) -> tuple:
    """(det, adj) of a square integer matrix m, given as rows, by one
    fraction-free elimination; (0, None) if singular.

    At each pivot the rows below it (with `jordan`, all other rows of [m | I])
    take a Bareiss step, (pivot * row - lead * pivot row) / previous pivot,
    exact because every entry stays a minor.  The last pivot d is det up to
    the sign of the row swaps.  With `jordan` the pass ends at [d*I | d*inv(m)],
    whose right block times that sign is adj(m); without it adj is None.
    The empty matrix has det 1 and the empty adjugate.  The rows are copied,
    not changed.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    if jordan:
        for i, row in enumerate(a):
            row.extend(int(i == j) for j in range(n))
    width = 2 * n if jordan else n
    sign, prev = 1, 1
    for k in range(n):
        for r in range(k, n):
            if a[r][k]:
                break
        else:
            return 0, None
        if r != k:
            a[k], a[r] = a[r], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for i in range(0 if jordan else k + 1, n):
            if i != k:
                row = a[i]
                f = row[k]
                for j in range(k + 1, width):  # columns up to k are not read again
                    row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = pivot
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a) if jordan else None


def determinant(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination (no rounding, no rational blow-up)."""
    if m.rows != m.cols:
        raise DimensionMismatchError("determinant requires a square matrix")
    return _bareiss(m.data, False)[0]


def _adj_times(m: IntMatrix, b: Sequence) -> tuple:
    """(det(m), adj(m).b) for a solve of m @ x = b; SingularMatrixError when
    det(m) = 0, TypeError for an entry of b that is not an int or a Fraction."""
    if m.rows != m.cols:
        raise DimensionMismatchError("solve requires a square matrix")
    if len(b) != m.rows:
        raise DimensionMismatchError("right-hand side length does not match")
    for x in b:
        if type(x) not in _RATIONAL:
            raise TypeError(f"right-hand side entries must be int or Fraction, got {x!r}")
    d, adj = _bareiss(m.data, True)
    if not d:
        raise SingularMatrixError("matrix is singular")
    return d, [sum(map(mul, row, b)) for row in adj]


def solve_rational(m: IntMatrix, b: Sequence) -> tuple:
    """Exact solution x of ``m @ x = b`` as a tuple of Fractions, adj(m).b / det(m).

    Raises SingularMatrixError when det(m) = 0.  The right-hand side may be
    integer or rational; the entries of the result are in lowest terms.
    """
    d, x = _adj_times(m, b)
    return tuple(Fraction(v, d) for v in x)


def integral_solution(m: IntMatrix, b: Sequence[int]):
    """Integer solution w of ``m @ w = b``, or None when none exists.

    Raises SingularMatrixError when det(m) = 0; otherwise the unique solution
    adj(m).b / det(m) is integral iff det(m) divides adj(m).b.
    """
    d, x = _adj_times(m, b)
    return None if any(v % d for v in x) else tuple(v // d for v in x)


def _ext_gcd(a: int, b: int) -> tuple:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_normal_form(m: IntMatrix) -> tuple:
    """Column-style Hermite normal form.

    Returns (H, U) with U unimodular (|det U| = 1) and ``m @ U == H``, so H
    is obtained from m by integer column operations and generates the same
    integer column span.  Convention: pivots are positive, sit on the
    leading columns, entries to the left of each pivot are reduced into
    [0, pivot), and all-zero columns are pushed to the right.
    """
    nrows, ncols = m.rows, m.cols
    # H's rows, then U's: every column operation acts on [H; U] at once
    rows = [list(row) for row in m.data] + [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    pivot = 0
    for i in range(nrows):
        if pivot >= ncols:
            break
        h = rows[i]
        j0 = next((j for j in range(pivot, ncols) if h[j] != 0), None)
        if j0 is None:
            continue
        if j0 != pivot:
            for row in rows:
                row[pivot], row[j0] = row[j0], row[pivot]
        for j in range(pivot + 1, ncols):
            if h[j] == 0:
                continue
            a, b = h[pivot], h[j]
            g, s, t = _ext_gcd(a, b)
            p, q = -(b // g), a // g
            # columns (pivot, j) <- (s*col_pivot + t*col_j, p*col_pivot + q*col_j)
            for row in rows:
                ca, cb = row[pivot], row[j]
                row[pivot], row[j] = s * ca + t * cb, p * ca + q * cb
        if h[pivot] < 0:
            for row in rows:
                row[pivot] = -row[pivot]
        for j in range(pivot):
            q = h[j] // h[pivot]
            if q:
                for row in rows:
                    row[j] -= q * row[pivot]
        pivot += 1
    return IntMatrix(rows[:nrows]), IntMatrix(rows[nrows:])
