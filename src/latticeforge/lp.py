"""The exact margin LP: simplex phase 2 from the first cell's facet basis.

Its one use is the pairwise interior-disjointness test in ``unimodular``.
Solved as its dual from a known basis, it needs no phase 1; the general
two-phase solver is kept in the tests as an oracle.

The tableau is kept on integers, each row d times its rational row over one
common denominator d > 0.  A pivot on p sets every other entry to
(p*x - f*y) // d, an exact division, and then d = p (fraction-free
pivoting: Bareiss, 1968; the integer pivoting of Avis's lrs).  Bland's rule
reads only signs and ratios, so it makes the rational tableau's pivots: the
solver terminates and every verdict is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import LatticeForgeError

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def _pivot(tab, basis, row, col, d):
    """Pivot every row of `tab`, held over d, on tab[row][col]; return the new d.

    A negative pivot row is negated first, so the pivot p is positive.  The
    pivot row then stays as it is, and every other row becomes
    (p*x - f*y) // d, f its entry in `col`, y the pivot row's.
    """
    if tab[row][col] < 0:
        tab[row] = [-x for x in tab[row]]
    pivot_row = tab[row]
    p = pivot_row[col]
    for r, cur in enumerate(tab):
        if r != row:
            f = cur[col]
            tab[r] = [(p * x - f * y) // d for x, y in zip(cur, pivot_row)]
    basis[row] = col
    return p


def _minimize(tab, basis, ncols, d):
    """Run Bland-rule pivots until the objective has no negative reduced cost.

    `tab` holds the constraint rows (rhs last) and then the objective row
    (its rhs entry is minus the current objective value), all over d.
    Returns (OPTIMAL or UNBOUNDED, d), mutating tab and basis in place.
    """
    while True:
        col = next((j for j in range(ncols) if tab[-1][j] < 0), None)
        if col is None:
            return OPTIMAL, d
        best = None
        for r, var in enumerate(basis):
            a = tab[r][col]
            if a > 0:
                if best is None:
                    best = r
                    continue
                # ratios tab[r][-1] / a against the best row's, cross-multiplied
                lhs, rhs = tab[r][-1] * tab[best][col], tab[best][-1] * a
                if lhs < rhs or (lhs == rhs and var < basis[best]):
                    best = r
        if best is None:
            return UNBOUNDED, d
        d = _pivot(tab, basis, best, col, d)


def max_min_margin(ineqs: Sequence, n: int) -> Fraction:
    """Exact value of  max over x in R^n  of  min_i (a_i . x - beta_i).

    `ineqs` lists integer rows (a, beta), each the half-space a . x >= beta,
    the first n + 1 those of a full-dimensional simplex (_simplex_facets).
    The interiors meet iff the result is > 0.

    Solved as the dual, whose optimum is the margin: minimize -beta . y
    subject to sum y_i a_i = 0, sum y_i = 1, y >= 0, a bounded region.  The
    simplex's rows are a feasible basis (y = 1/(n + 1) on each): they are
    pivoted in, and Bland-rule phase 2 runs from there.
    """
    if len(ineqs) < n + 1:
        raise LatticeForgeError(f"margin LP start: {len(ineqs)} rows, fewer than n + 1 = {n + 1}")
    tab = [[normal[j] for normal, _ in ineqs] + [0] for j in range(n)]
    tab.append([1] * len(ineqs) + [1])
    tab.append([-beta for _, beta in ineqs] + [0])
    basis, d = [None] * (n + 1), 1
    for col in range(n + 1):
        row = next((r for r, var in enumerate(basis) if var is None and tab[r][col]), None)
        if row is None:
            raise LatticeForgeError("margin LP start: the first n + 1 rows are singular")
        d = _pivot(tab, basis, row, col, d)
    if any(row[-1] < 0 for row in tab[:-1]):
        raise LatticeForgeError("margin LP start: a basic value of the first n + 1 rows is negative")
    status, d = _minimize(tab, basis, len(ineqs), d)
    if status != OPTIMAL:
        raise LatticeForgeError("margin LP did not solve: unbounded")
    return Fraction(-tab[-1][-1], d)
