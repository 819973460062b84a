"""Small exact linear-programming core (dense two-phase simplex method).

The tableau is kept on integers, each row d times its rational row over one
common denominator d > 0.  A pivot on p sets every other entry to
(p*x - f*y) // d, an exact division, and then d = p (fraction-free
pivoting: Bareiss, 1968; the integer pivoting of Avis's lrs).  Bland's rule
reads only signs and ratios, so it makes the rational tableau's pivots: the
solver terminates and every verdict is exact.  ``Fraction`` only converts
rational input and returns x and the value.  Sized for desk-scale systems
(tens of rows), its one use is the margin LP of the pairwise
interior-disjointness test in ``unimodular``, solved as its dual, for cell
pairs that neither the bounding-box nor the separating-facet test separates.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import LatticeForgeError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _integral(values) -> tuple:
    """(ints, den): the exact rationals `values` times their least common denominator."""
    fr = [Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr], den


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


def solve_min(c: Sequence, a: Sequence[Sequence], b: Sequence):
    """min c.x  subject to  a @ x = b, x >= 0.

    Returns (status, x, value); x and value are None unless status is
    OPTIMAL.  Everything exact: the rows are scaled by one common
    denominator and the costs by their own.
    """
    n = len(c)
    rows = [[*row, rhs] for row, rhs in zip(a, b)]
    if any(len(row) != n + 1 for row in rows):
        raise LatticeForgeError("constraint row length does not match variable count")
    flat, _ = _integral(x for row in rows for x in row)
    m = len(rows)

    # Phase 1: artificial variable per row (rhs made >= 0), minimize their sum.
    tab = []
    for i in range(m):
        row = flat[i * (n + 1) : (i + 1) * (n + 1)]
        if row[-1] < 0:
            row = [-x for x in row]
        tab.append(row[:-1] + [int(j == i) for j in range(m)] + row[-1:])
    total = n + m
    tab.append([int(n <= j < total) - sum(row[j] for row in tab) for j in range(total + 1)])
    basis = list(range(n, total))
    status, d = _minimize(tab, basis, total, 1)
    if status != OPTIMAL:
        raise LatticeForgeError("phase 1 reported unbounded, but it is bounded below by 0")
    if tab.pop()[-1]:
        return INFEASIBLE, None, None

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j]), None)
            if col is None:
                continue  # redundant constraint
            d = _pivot(tab, basis, r, col, d)
        keep.append(r)
    tab = [tab[r][:n] + tab[r][-1:] for r in keep]
    basis = [basis[r] for r in keep]

    # Phase 2 on the real objective, its reduced costs over d times the costs' denominator.
    cost, den = _integral(c)
    obj = [d * x for x in cost] + [0]
    for row, var in zip(tab, basis):
        if cost[var]:
            obj = [x - cost[var] * y for x, y in zip(obj, row)]
    tab.append(obj)
    status, d = _minimize(tab, basis, n, d)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for row, var in zip(tab, basis):
        x[var] = Fraction(row[-1], d)
    return OPTIMAL, tuple(x), Fraction(-tab[-1][-1], d * den)


def max_min_margin(ineqs: Sequence, n: int) -> Fraction:
    """Exact value of  max over x in R^n  of  min_i (a_i . x - beta_i).

    `ineqs` is a list of (a, beta) pairs meaning the half-space
    a . x >= beta.  Used to decide strict joint feasibility: the interiors
    of the half-space intersection are nonempty iff the result is > 0.
    The caller must pass a system whose margins are bounded above (true for
    facet systems of bounded full-dimensional simplices).

    Solved as the dual, already in standard form: minimize -beta . y
    subject to sum y_i a_i = 0, sum y_i = 1, y >= 0.  By strong duality its
    optimum is the margin.  The primal is always feasible, so the dual is
    infeasible exactly when the margin is unbounded.
    """
    a = [[normal[j] for normal, _ in ineqs] for j in range(n)] + [[1] * len(ineqs)]
    status, _, value = solve_min([-beta for _, beta in ineqs], a, [0] * n + [1])
    if status != OPTIMAL:
        raise LatticeForgeError("margin LP did not solve: unbounded")
    return value
