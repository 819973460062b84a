"""Small exact linear-programming core (dense two-phase simplex method).

All arithmetic is over ``fractions.Fraction`` and pivoting follows Bland's
rule, so the solver terminates and every verdict is exact.  It is sized for
desk-scale systems (tens of rows).  Its one use is the fallback of the
pairwise interior-disjointness test for simplicial covers, reached only by
cell pairs that neither the bounding-box nor the separating-facet test in
``unimodular`` separates; hull membership is an integer facet test in
``geometry``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import LatticeForgeError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(tab, basis, row, col):
    inv = 1 / tab[row][col]
    tab[row] = [x * inv for x in tab[row]]
    pivot_row = tab[row]
    for r in range(len(tab)):
        if r != row and tab[r][col]:
            factor = tab[r][col]
            tab[r] = [x - factor * y for x, y in zip(tab[r], pivot_row)]
    basis[row] = col


def _minimize(tab, basis, obj, ncols):
    """Run Bland-rule pivots until `obj` has no negative reduced cost.

    `tab` holds the constraint rows (rhs last); `obj` is the reduced-cost
    row (its rhs entry is minus the current objective value).  Returns
    OPTIMAL or UNBOUNDED, mutating tab/basis/obj in place.
    """
    m = len(tab)
    while True:
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        best = None
        for r in range(m):
            a = tab[r][col]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best[0] or (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            return UNBOUNDED
        row = best[1]
        _pivot(tab, basis, row, col)
        factor = obj[col]
        obj[:] = [x - factor * y for x, y in zip(obj, tab[row])]


def solve_min(c: Sequence, a: Sequence[Sequence], b: Sequence):
    """min c.x  subject to  a @ x = b, x >= 0.

    Returns (status, x, value); x and value are None unless status is
    OPTIMAL.  Everything exact.
    """
    m = len(a)
    n = len(c)
    tab = []
    for row, rhs in zip(a, b):
        if len(row) != n:
            raise LatticeForgeError("constraint row length does not match variable count")
        fr = [Fraction(x) for x in row] + [Fraction(rhs)]
        if fr[-1] < 0:
            fr = [-x for x in fr]
        tab.append(fr)

    # Phase 1: artificial variable per row, minimize their sum.
    total = n + m
    for i in range(m):
        tab[i] = tab[i][:-1] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [tab[i][-1]]
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * (total + 1)
    for j in range(n):
        obj[j] = -sum(tab[i][j] for i in range(m))
    obj[-1] = -sum(tab[i][-1] for i in range(m))
    status = _minimize(tab, basis, obj, total)
    if status != OPTIMAL:
        raise LatticeForgeError("phase 1 reported unbounded, but it is bounded below by 0")
    if -obj[-1] != 0:
        return INFEASIBLE, None, None

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _pivot(tab, basis, r, col)
        keep.append(r)
    tab = [tab[r][:n] + [tab[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]

    # Phase 2 on the real objective.
    obj = [Fraction(x) for x in c] + [Fraction(0)]
    for r, var in enumerate(basis):
        if obj[var]:
            factor = obj[var]
            obj = [x - factor * y for x, y in zip(obj, tab[r])]
    status = _minimize(tab, basis, obj, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        x[var] = tab[r][-1]
    return OPTIMAL, tuple(x), -obj[-1]


def max_min_margin(ineqs: Sequence, n: int) -> Fraction:
    """Exact value of  max over x in R^n  of  min_i (a_i . x - beta_i).

    `ineqs` is a list of (a, beta) pairs meaning the half-space
    a . x >= beta.  Used to decide strict joint feasibility: the interiors
    of the half-space intersection are nonempty iff the result is > 0.
    The caller must pass a system whose margins are bounded above (true for
    facet systems of bounded full-dimensional simplices).
    """
    m = len(ineqs)
    # Variables: u(n), w(n) with x = u - w; g, f with margin = g - f; slack per row.
    nvars = 2 * n + 2 + m
    rows = []
    rhs = []
    for k, (a, beta) in enumerate(ineqs):
        row = [Fraction(0)] * nvars
        for j in range(n):
            row[j] = Fraction(a[j])
            row[n + j] = Fraction(-a[j])
        row[2 * n] = Fraction(-1)      # g
        row[2 * n + 1] = Fraction(1)   # f
        row[2 * n + 2 + k] = Fraction(-1)  # slack: a.x - margin - s = beta
        rows.append(row)
        rhs.append(Fraction(beta))
    c = [Fraction(0)] * nvars
    c[2 * n] = Fraction(-1)
    c[2 * n + 1] = Fraction(1)
    status, _, value = solve_min(c, rows, rhs)
    if status != OPTIMAL:
        raise LatticeForgeError(f"margin LP did not solve: {status}")
    return -value
