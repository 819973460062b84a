"""Exact integer linear algebra on plain integer rows.

Everything is computed with Python's arbitrary-precision integers, and every
elimination is fraction-free (Bareiss steps, each division exact).  One
Gauss-Jordan pass gives the adjugate, which gives every facet row of a
simplex (``geometry``), where one more row-by-row Bareiss elimination
(``geometry._affine_basis``) picks a point sequence's affine basis and the
coordinates its hull projects onto.  The public entry points, the
determinant and the Hermite normal form, take any sequence of integer rows
and check them on entry.
There is deliberately no floating point anywhere: every predicate downstream
(membership, unimodularity, volumes) reduces to the exact operations here.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatchError

#: Hard cap on matrix rows and columns and, in ``geometry``, on the ambient
#: dimension: desk-scale, so huge inputs fail fast instead of hanging.
DIM_CAP = 8


def _int_rows(rows: Sequence[Sequence[int]]) -> tuple:
    """rows as a tuple of int tuples: at least 1x1, rectangular, every entry
    an int (not a bool), at most DIM_CAP rows and columns."""
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
    return data


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


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square matrix given as integer rows, by Bareiss
    fraction-free elimination (no rounding, no rational blow-up)."""
    data = _int_rows(m)
    if len(data) != len(data[0]):
        raise DimensionMismatchError("determinant requires a square matrix")
    return _bareiss(data, False)[0]


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


def hermite_normal_form(m: Sequence[Sequence[int]]) -> tuple:
    """Column-style Hermite normal form of a matrix m given as integer rows.

    Returns (H, U), each a tuple of row tuples, with U unimodular
    (|det U| = 1) and m·U = H, so H is obtained from m by integer column
    operations and generates the same integer column span.  Convention:
    pivots are positive, sit on the leading columns, entries to the left of
    each pivot are reduced into [0, pivot), and all-zero columns are pushed
    to the right.
    """
    data = _int_rows(m)
    nrows, ncols = len(data), len(data[0])
    # H's rows, then U's: every column operation acts on [H; U] at once
    rows = [list(row) for row in data] + [[int(i == j) for j in range(ncols)] for i in range(ncols)]
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
    return tuple(map(tuple, rows[:nrows])), tuple(map(tuple, rows[nrows:]))
