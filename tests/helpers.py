"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own computation paths:
determinants by cofactor expansion, facet normals by one determinant per
cofactor minor, hull membership by exhaustive Caratheodory search, h-fold
sums by naive iteration, decompositions by multiset enumeration.  They are
slow and obviously correct.  Some are the library's own earlier, slower
implementations, kept to cross-check the paths that replaced them: the
bounding-box scan, tuple sumsets by repeated doubling, the per-h IDP check,
the IDP scan with every dilate enumerated as runs, where the library
enumerates only below the dimension and shifts the dilates above it,
a facet's cofactor normal by one fraction-free elimination per facet
(_facet_normal, and _cell_facet orienting it against the opposite vertex),
where the library reads all of a simplex's facet rows off one adjugate,
ranks and affine bases by rational elimination, dilates by a fresh hull
pass, cover certification by testing every pair of cells, facet matching with
facets keyed by sorted vertex tuples (tuple_keyed_facets_match), where the
library keys them by bitmasks of vertex indices, hulls read off a
placing triangulation (in sorted order with every generator a vertex
candidate, or extreme points first with the boundary points as candidates,
the affine-hull equations from _facet_normal), run enumeration by one
recursive call per coordinate, run bitsets from run ends and by pairwise
merges, enumeration rows as the facet rows relaxed over the bounding box
(box_rows), where the library eliminates the rows of each coordinate
projection, placing with one elimination per new boundary facet, the adjugate
refused when singular, off one Gauss-Jordan pass, where the library reads
the pass's rows as they come, exact solves (and the adjugate built from
them) by rational Gauss-Jordan elimination, a cell's facet rows from one
cofactor elimination per facet, whole placing triangulations in a given
order, non-unimodular cells kept (placing_cover), where the library stops an
order at its first non-unimodular cell, the general two-phase simplex method
on the integer tableau (solve_min), where the library runs phase 2 alone
from a known basis, and the simplex LP on a Fraction tableau, with the
margin LP in its primal encoding, and the LLL conditions by rational
Gram-Schmidt (fraction_lll_defects), where the library keeps integral
Gram-Schmidt data as it reduces, and packed points unpacked and framed
witnesses mapped back one point at a time (per_point_unpack,
per_point_map_back), where the library works a coordinate at a time.
Matrices are plain integer rows, as the library takes them; identity and
matmul are the two matrix operations only the tests need.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from latticeforge import (
    IdpReport,
    LatticePolytope,
    LatticeSimplex,
    SimplicialCover,
    contains,
    dilate,
    is_unimodular,
    lattice_index,
    lattice_points,
    normalized_volume,
    sumset,
    verify_cover,
)
from latticeforge.unimodular import (
    Certification,
    _draw,
    _interiors_intersect,
)
from latticeforge.errors import (
    DegeneratePolytopeError,
    DimensionMismatchError,
    LatticeForgeError,
)
from latticeforge.geometry import (
    Point,
    _affine_basis,
    _lattice_runs,
    _placing_cells,
    _primitive_row,
    vec_dot,
)
from latticeforge.linalg import _bareiss, determinant
from latticeforge.lp import OPTIMAL, UNBOUNDED, _minimize, _pivot


class SingularMatrix(LatticeForgeError):
    """The solve and adjugate oracles below were given a singular matrix."""


def cofactor_determinant(rows):
    """Textbook Laplace expansion; fine for dimensions <= 4."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


def _solve_unique(rows, rhs):
    """Exact solve of rows @ t = rhs; None if inconsistent or not unique."""
    m = len(rows)
    k = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if len(pivots) < k:
        return None
    for i in range(r, m):
        if aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for row_idx, c in enumerate(pivots):
        sol[c] = aug[row_idx][k]
    return sol


def identity(n):
    """The n x n identity matrix, as rows."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a, b):
    """The product a·b of two integer matrices given as rows, as rows."""
    if len(a[0]) != len(b):
        raise DimensionMismatchError("inner dimensions do not match")
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def fraction_solve(m, b):
    """The solution x of m·x = b, m given as rows, by rational Gauss-Jordan
    elimination: Fractions, lowest terms."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatchError("solve requires a square matrix")
    if len(b) != n:
        raise DimensionMismatchError("right-hand side length does not match")
    a = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(m, b)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrix("matrix is singular")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def adjugate(m):
    """adj(m) = det(m) * inverse(m) as rows, off one fraction-free
    Gauss-Jordan pass (linalg._bareiss), whose (det, adj) the library reads
    directly; refuses non-square and singular matrices."""
    if any(len(row) != len(m) for row in m):
        raise DimensionMismatchError("adjugate requires a square matrix")
    d, adj = _bareiss(m, True)
    if not d:
        raise SingularMatrix("adjugate of a singular matrix is not supported here")
    return adj


def fraction_adjugate(m):
    """adjugate as n rational solves: column j solves m·x = det(m) * e_j."""
    d = determinant(m)
    if d == 0:
        raise SingularMatrix("adjugate of a singular matrix is not supported here")
    n = len(m)
    cols = []
    for j in range(n):
        x = fraction_solve(m, [d if i == j else 0 for i in range(n)])
        if any(v.denominator != 1 for v in x):
            raise LatticeForgeError("adjugate column is not integral")
        cols.append(tuple(int(v) for v in x))
    return tuple(zip(*cols))


def _facet_normal(points: Sequence[Point]) -> tuple:
    """Integer normal of the hyperplane through n points in R^n (cofactors).

    Against the normal N, the simplex spanned by these points and one more
    point p has normalized volume |N.p - N.points[0]|.

    N_j is (-1)^j times the minor of the difference rows without column j.
    One fraction-free (Bareiss) elimination brings the rows to echelon form;
    its last pivot is, up to the sign of the row swaps, the minor on the
    pivot columns, which fixes N at the one free column q.  The other entries
    follow by back-substitution, each division exact because N is integral.
    Affinely dependent points give the zero vector.
    """
    n = len(points[0])
    base = points[0]
    rows = [[a - b for a, b in zip(q, base)] for q in points[1:]]
    pivots, free, sign, prev = [], [], 1, 1
    for c in range(n):
        r = len(pivots)
        for pr in range(r, n - 1):
            if rows[pr][c]:
                break
        else:
            free.append(c)
            if len(free) > 1:
                return (0,) * n
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        top = rows[r]
        d = top[c]
        for i in range(r + 1, n - 1):
            row = rows[i]
            f = row[c]
            rows[i] = [(d * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = d
    (q,) = free
    normal = [0] * n
    normal[q] = -sign * prev if q % 2 else sign * prev
    for row, c in zip(reversed(rows), reversed(pivots)):
        normal[c] = -vec_dot(row, normal) // row[c]
    return tuple(normal)


def _cell_facet(cell: Sequence[Point], skip: int) -> tuple:
    """Facet opposite cell[skip] as (points, normal, offset), normal.x <= offset on the cell."""
    fpts = cell[:skip] + cell[skip + 1 :]
    normal = _facet_normal(fpts)
    offset = vec_dot(normal, fpts[0])
    if vec_dot(normal, cell[skip]) > offset:
        return fpts, tuple(-x for x in normal), -offset
    return fpts, normal, offset


def cofactor_interior_rows(cell):
    """LatticeSimplex._weight_rows with one cofactor elimination per facet (_cell_facet)."""
    rows = []
    for skip in range(cell.dim + 1):
        _, normal, offset = _cell_facet(cell.vertices, skip)
        rows.append((tuple(-x for x in normal), -offset))
    return rows


def random_simplex(rng, dim, bound=2):
    """A seeded full-dimensional lattice simplex with coordinates in [-bound, bound]."""
    while True:
        pts = [tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(dim + 1)]
        try:
            return LatticeSimplex(pts)
        except DegeneratePolytopeError:
            continue


def caratheodory_contains(points, q):
    """Is q in conv(points)?  Exhaustive search over independent subsets.

    By Caratheodory's theorem a member point has a representation over an
    affinely independent subset of at most n+1 points, where barycentric
    weights are unique; so trying every subset is a complete decision.
    """
    q = tuple(Fraction(x) for x in q)
    pts = list(dict.fromkeys(tuple(p) for p in points))
    n = len(q)
    for size in range(1, min(len(pts), n + 1) + 1):
        for subset in itertools.combinations(pts, size):
            rows = [[subset[i][j] for i in range(size)] for j in range(n)]
            rows.append([1] * size)
            sol = _solve_unique(rows, list(q) + [1])
            if sol is not None and all(t >= 0 for t in sol):
                return True
    return False


INFEASIBLE = "infeasible"


def _integral(values) -> tuple:
    """(ints, den): the exact rationals `values` times their least common denominator."""
    fr = [Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr], den


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


def feasible_nonneg(a, b):
    """Is there x >= 0 with a @ x = b?  Phase 1 of the exact LP."""
    n = len(a[0]) if a else 0
    status, _, _ = solve_min([0] * n, a, b)
    return status == OPTIMAL


def _fraction_pivot(tab, basis, row, col):
    inv = 1 / tab[row][col]
    tab[row] = [x * inv for x in tab[row]]
    pivot_row = tab[row]
    for r in range(len(tab)):
        if r != row and tab[r][col]:
            factor = tab[r][col]
            tab[r] = [x - factor * y for x, y in zip(tab[r], pivot_row)]
    basis[row] = col


def _fraction_minimize(tab, basis, obj, ncols):
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
        _fraction_pivot(tab, basis, row, col)
        factor = obj[col]
        obj[:] = [x - factor * y for x, y in zip(obj, tab[row])]


def fraction_solve_min(c, a, b):
    """lp.solve_min on a Fraction tableau: the same two phases, Bland's rule
    on rational entries, each pivot row divided through by its pivot."""
    m = len(a)
    n = len(c)
    tab = []
    for row, rhs in zip(a, b):
        fr = [Fraction(x) for x in row] + [Fraction(rhs)]
        if fr[-1] < 0:
            fr = [-x for x in fr]
        tab.append(fr)
    total = n + m
    for i in range(m):
        tab[i] = tab[i][:-1] + [Fraction(int(j == i)) for j in range(m)] + [tab[i][-1]]
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * (total + 1)
    for j in range(n):
        obj[j] = -sum(tab[i][j] for i in range(m))
    obj[-1] = -sum(tab[i][-1] for i in range(m))
    _fraction_minimize(tab, basis, obj, total)
    if -obj[-1] != 0:
        return INFEASIBLE, None, None
    keep = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j] != 0), None)
            if col is None:
                continue
            _fraction_pivot(tab, basis, r, col)
        keep.append(r)
    tab = [tab[r][:n] + [tab[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    obj = [Fraction(x) for x in c] + [Fraction(0)]
    for r, var in enumerate(basis):
        if obj[var]:
            factor = obj[var]
            obj = [x - factor * y for x, y in zip(obj, tab[r])]
    if _fraction_minimize(tab, basis, obj, n) == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        x[var] = tab[r][-1]
    return OPTIMAL, tuple(x), -obj[-1]


def fraction_max_min_margin(ineqs, n):
    """lp.max_min_margin as the primal LP on the Fraction tableau: x = u - w,
    the margin g - f, one slack per row a.x - margin - s = beta."""
    m = len(ineqs)
    nvars = 2 * n + 2 + m
    rows = []
    rhs = []
    for k, (a, beta) in enumerate(ineqs):
        row = [Fraction(0)] * nvars
        for j in range(n):
            row[j] = Fraction(a[j])
            row[n + j] = Fraction(-a[j])
        row[2 * n] = Fraction(-1)
        row[2 * n + 1] = Fraction(1)
        row[2 * n + 2 + k] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(beta))
    c = [Fraction(0)] * nvars
    c[2 * n] = Fraction(-1)
    c[2 * n + 1] = Fraction(1)
    status, _, value = fraction_solve_min(c, rows, rhs)
    if status != OPTIMAL:
        raise LatticeForgeError(f"margin LP did not solve: {status}")
    return -value


def _hull_feasible(points, q, dim):
    """Is q a convex combination of `points`?  Exact LP feasibility.

    It shares nothing with the integer facet system that `contains` and
    `lattice_points` test, so it serves as that system's oracle.
    """
    if not points:
        return False
    rows = [[Fraction(p[j]) for p in points] for j in range(dim)]
    rows.append([Fraction(1)] * len(points))
    rhs = list(q) + [Fraction(1)]
    return feasible_nonneg(rows, rhs)


def box_scan_lattice_points(p):
    """Lattice points of p by testing every cell of its bounding box, lex order."""
    mins, maxs = p.bounding_box()
    rows = p.facets()
    box = itertools.product(*(range(lo, hi + 1) for lo, hi in zip(mins, maxs)))
    return tuple(x for x in box if all(sum(map(mul, a, x)) <= b for a, b in rows))


def cofactor_facet_normal(points):
    """Normal of the hyperplane through n points in R^n, one minor per entry."""
    n = len(points[0])
    if n == 1:
        return (1,)
    diffs = [tuple(a - b for a, b in zip(q, points[0])) for q in points[1:]]
    normal = []
    for j in range(n):
        minor = [[row[t] for t in range(n) if t != j] for row in diffs]
        d = determinant(minor)
        normal.append(d if j % 2 == 0 else -d)
    return tuple(normal)


def fraction_rank_of_rows(rows):
    """Rank over the rationals by Gauss-Jordan elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def fraction_affine_basis(points):
    """The first affinely independent points met in order, one rational rank per point."""
    start = [points[0]]
    for p in points[1:]:
        if len(start) == len(p) + 1:
            break
        diffs = [tuple(a - b for a, b in zip(q, start[0])) for q in start[1:] + [p]]
        if fraction_rank_of_rows(diffs) == len(diffs):
            start.append(p)
    return start


def rehull_dilate(p, h):
    """h*p by a fresh hull pass over the scaled vertices."""
    return LatticePolytope([tuple(h * x for x in v) for v in p.vertices])


def doubling_sumset(s, t):
    """{a + b : a in s, b in t} as sorted tuples, one tuple per pair."""
    return tuple(sorted({tuple(x + y for x, y in zip(a, b)) for a in s for b in t}))


def doubling_hfold_sumset(s, h):
    """The h-fold sumset of s by repeated doubling of tuple sets."""
    result = None
    power = tuple(sorted(set(map(tuple, s))))
    while h:
        if h & 1:
            result = power if result is None else doubling_sumset(result, power)
        h >>= 1
        if h:
            power = doubling_sumset(power, power)
    return result


def per_point_unpack(radix, values, offset):
    """sumsets._Radix.unpack one point at a time: each value's digits plus
    the offset, coordinate 0 the most significant."""
    digits = list(zip(radix.weights, radix.radices, offset))
    return tuple(tuple(v // w % r + o for w, r, o in digits) for v in values)


def per_point_map_back(rows, points):
    """The points rows * y for y in `points`, one point at a time, sorted."""
    return tuple(sorted(tuple(vec_dot(row, y) for row in rows) for y in points))


def per_h_idp_check(p, h):
    """The h-fold check from scratch: box-scanned points, doubled sums, set difference."""
    summed = set(doubling_hfold_sumset(box_scan_lattice_points(p), h))
    dilated = set(box_scan_lattice_points(dilate(p, h)))
    assert summed <= dilated
    witnesses = tuple(sorted(dilated - summed))
    return IdpReport(h, not witnesses, witnesses, len(summed), len(dilated))


def hull_projection_rows(p):
    """geometry._projection_rows with one hull per coordinate: per k, the
    facet rows of LatticePolytope(conv{v[:k+1]}) with a_k != 0, the
    projection's equations included when it is flat."""
    levels = []
    for k in range(p.dim):
        proj = p if k == p.dim - 1 else LatticePolytope([v[: k + 1] for v in p.vertices])
        levels.append([(a, b) for a, b in proj.facets() if a[k]])
    return levels


def box_rows(p):
    """The enumeration rows of geometry._lattice_runs with no elimination:
    per coordinate k, p's facet rows with a_k != 0, each row (a, b) bounding
    x_k as (a, b - the least value of sum_{i>k} a_i x_i over the bounding
    box).  Exact at the last coordinate; at the others a prefix that meets
    them may extend to no point, where the rows of the coordinate
    projections (geometry._projection_rows) visit none.  A row with a_k = 0
    says nothing of x_k, and its bound on the prefix was met one coordinate
    earlier (at k = 0 it holds because the hull lies in the box)."""
    mins, maxs = p.bounding_box()
    rows = p.facets()
    levels = []
    # rest[r]: the least value over the box of sum_{i>k} a_i x_i for row r
    rest = [0] * len(rows)
    for k in range(p.dim - 1, -1, -1):
        levels.append([(a, b - t) for (a, b), t in zip(rows, rest) if a[k]])
        rest = [t + min(a[k] * mins[k], a[k] * maxs[k]) for (a, _), t in zip(rows, rest)]
    return levels[::-1]


def box_rows_lattice_points(p):
    """geometry.lattice_points over the relaxed rows (box_rows)."""
    mins, maxs = p.bounding_box()
    runs = _lattice_runs(box_rows(p), mins, maxs)
    return tuple(prefix + (x,) for prefix, lo, hi in runs for x in range(lo, hi + 1))


def runs_idp_scan(p, h_max):
    """idp_scan with every dilate enumerated: h*p's points from
    geometry._lattice_runs over the hulls of p's coordinate projections
    (hull_projection_rows) scaled to (a, h*b), the sums carried across h as
    tuple sets (sumset), one IdpReport per h."""
    base = lattice_points(p)
    levels = hull_projection_rows(p)
    mins, maxs = p.bounding_box()
    summed, reports = base, []
    for h in range(1, h_max + 1):
        if h > 1:
            summed = sumset(summed, base)
        rows = [[(a, h * b) for a, b in level] for level in levels]
        runs = _lattice_runs(rows, [h * a for a in mins], [h * b for b in maxs])
        dilated = {prefix + (x,) for prefix, lo, hi in runs for x in range(lo, hi + 1)}
        if not set(summed) <= dilated:
            raise LatticeForgeError("a sum left the enumerated dilate")
        witnesses = tuple(sorted(dilated.difference(summed)))
        reports.append(IdpReport(h, not witnesses, witnesses, len(summed), len(dilated)))
    return tuple(reports)


def hull_unit_cube(n):
    """[0,1]^n as the hull of its vertex list: double description, lattice-point
    enumeration and a volume pass on first use, where fixtures.unit_cube
    comes with its facets, points and volume."""
    return LatticePolytope(list(itertools.product((0, 1), repeat=n)))


def random_point_set(rng, dim, flat, bound=2):
    """1-7 points in [-bound, bound]^dim; when `flat`, in the affine hull of at most dim of them."""
    if not flat:
        return [
            tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(rng.randint(1, 7))
        ]
    # integer affine combinations of at most dim points stay in their affine hull
    span = [tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(rng.randint(1, dim))]
    pts = list(span)
    for _ in range(rng.randint(0, 5)):
        coeffs = [rng.randint(-1, 2) for _ in span[1:]]
        q = tuple(
            a + sum(c * (s[j] - a) for c, s in zip(coeffs, span[1:]))
            for j, a in enumerate(span[0])
        )
        if all(-bound <= x <= bound for x in q):
            pts.append(q)
    return pts


def naive_hfold(points, h):
    """h-fold sumset by h-1 sequential pairwise sums (no doubling)."""
    base = [tuple(p) for p in points]
    acc = set(base)
    for _ in range(h - 1):
        acc = {tuple(a + b for a, b in zip(p, q)) for p in acc for q in base}
    return tuple(sorted(acc))


def multiset_decompositions(vertices, target, h):
    """Every h-multiset of `vertices` summing to `target`."""
    target = tuple(target)
    found = []
    for combo in itertools.combinations_with_replacement(vertices, h):
        if tuple(sum(c) for c in zip(*combo)) == target:
            found.append(combo)
    return found


def random_unimodular_simplex(rng, dim, spread):
    """Random unimodular simplex with bounded coordinate spread.

    Starts from the identity difference basis and applies +-1 column
    shears, so |det| stays 1; rejection keeps the bounding box small enough
    for fast enumeration of dilates.
    """
    while True:
        cols = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        if dim > 1:
            for _ in range(2 * dim):
                i, j = rng.sample(range(dim), 2)
                sign = rng.choice((-1, 1))
                cols[i] = [a + sign * b for a, b in zip(cols[i], cols[j])]
        base = [rng.randint(-2, 2) for _ in range(dim)]
        verts = [tuple(base)] + [tuple(b + c for b, c in zip(base, col)) for col in cols]
        lo = [min(v[j] for v in verts) for j in range(dim)]
        hi = [max(v[j] for v in verts) for j in range(dim)]
        if max(h - l for l, h in zip(lo, hi)) <= spread:
            return LatticeSimplex(verts)


def random_polytope(rng, dim, bound=3, max_points=8):
    npts = rng.randint(2, max_points)
    pts = {tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(npts)}
    return LatticePolytope(pts)


def random_rational_point(rng, dim, bound=4, denominator_max=4):
    return tuple(
        Fraction(rng.randint(-bound * denominator_max, bound * denominator_max),
                 rng.randint(1, denominator_max))
        for _ in range(dim)
    )


def clip_convex(subject, a, b):
    """Clip a convex polygon (vertex list, ccw or cw) by a.x <= b, exactly."""
    out = []
    m = len(subject)
    for i in range(m):
        p = subject[i]
        q = subject[(i + 1) % m]
        fp = a[0] * p[0] + a[1] * p[1] - b
        fq = a[0] * q[0] + a[1] * q[1] - b
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = Fraction(fp, fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def shoelace_area2(polygon):
    """Twice the signed area of a polygon, exact."""
    total = Fraction(0)
    m = len(polygon)
    for i in range(m):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % m]
        total += x1 * y2 - x2 * y1
    return total


def triangle_overlap_area2(t1, t2):
    """Twice the area of the intersection of two triangles in the plane.

    Independent oracle for interior-disjointness: positive iff the
    interiors intersect.  Clips t1 by the three edge half-planes of t2.
    """
    t1 = [tuple(Fraction(c) for c in v) for v in t1]
    t2 = [tuple(Fraction(c) for c in v) for v in t2]
    region = t1
    for skip in range(3):
        p, q = [t2[i] for i in range(3) if i != skip]
        # half-plane with normal (q-p) rotated, oriented to contain t2
        normal = (q[1] - p[1], p[0] - q[0])
        offset = normal[0] * p[0] + normal[1] * p[1]
        opp = t2[skip]
        if normal[0] * opp[0] + normal[1] * opp[1] > offset:
            normal = (-normal[0], -normal[1])
            offset = -offset
        region = clip_convex(region, normal, offset)
        if not region:
            return Fraction(0)
    return abs(shoelace_area2(region))


def placing_cover(p, order=None):
    """The placing triangulation of p's lattice points in `order` (default:
    their lexicographic order) as an uncertified cover, every cell kept,
    non-unimodular ones included; DegeneratePolytopeError for a flat p."""
    cells = _placing_cells(lattice_points(p) if order is None else order)
    return SimplicialCover(target=p, cells=tuple(LatticeSimplex(c) for c, _ in cells))


def full_placing_search(p, attempts=20, seed=0):
    """find_unimodular_triangulation without its early abort.

    Builds the whole placing triangulation for each insertion order and
    only then checks that every cell is unimodular.  The orders are the
    search's: lexicographic, then orders drawn by unimodular._draw from one
    random.Random(seed), each drawn in full here.  The search draws a point
    only when placing reads it: up to the first simplex's last point, then
    one point at a time until a point's cell fails.  So after a failed order
    the generator is set back to its state after the point at which the
    search stopped: the latest drawn point of the first cell or of the
    earliest failing cell.  Returns the first certified cover, or None.
    """
    pts = list(lattice_points(p))
    rng = random.Random(seed)
    for k in range(attempts):
        order, states = pts, []
        if k:
            order = pts[:]
            for _ in _draw(rng, order):
                states.append(rng.getstate())
        cover = placing_cover(p, order)
        if all(is_unimodular(c) for c in cover.cells):
            if verify_cover(cover).status == "certified":
                return cover._replace(certified="certified")
        elif k:
            position = {q: i for i, q in enumerate(order)}
            read = max(position[v] for v in cover.cells[0].vertices)
            failed = min(
                max(position[v] for v in c.vertices) for c in cover.cells if not is_unimodular(c)
            )
            rng.setstate(states[max(read, failed)])
    return None


def pairwise_verify_cover(cover):
    """verify_cover with no facet matching: every pair of cells is tested.

    The same checks and problem messages, in the same order; a triangulation
    that passes them all is certified only after all C(cells, 2) pairs are
    found interior-disjoint.
    """
    problems = []
    target = cover.target
    if not cover.cells:
        problems.append("cover has no cells")
    inside = {}
    dimension_mismatch = False
    for i, cell in enumerate(cover.cells):
        if cell.dim != target.dim:
            problems.append(f"cell {i} has dimension {cell.dim}, target has {target.dim}")
            dimension_mismatch = True
            continue
        for v in cell.vertices:
            if v not in inside:
                inside[v] = contains(target, v)
            if not inside[v]:
                problems.append(f"cell {i} vertex {list(v)} lies outside the target")
                break
        if not is_unimodular(cell):
            problems.append(f"cell {i} is not unimodular (index {lattice_index(cell)})")
    if cover.kind == "general-cover":
        status = "vertices-only" if not problems else "uncertified"
        return Certification(status=status, problems=tuple(problems))
    if cover.kind != "triangulation":
        return Certification(status="uncertified", problems=(f"unknown cover kind {cover.kind!r}",))
    if not dimension_mismatch:
        total = sum(lattice_index(c) for c in cover.cells)
        vol = normalized_volume(target)
        if total != vol:
            problems.append(
                f"cell volumes sum to {total} but the target has normalized volume {vol}"
            )
        cells = cover.cells
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                if _interiors_intersect(cells[i], cells[j]):
                    problems.append(f"cells {i} and {j} share an interior point")
    status = "certified" if not problems else "uncertified"
    return Certification(status=status, problems=tuple(problems))


def tuple_keyed_facets_match(cells, target):
    """unimodular._facets_match with each facet keyed by its sorted vertex
    tuple and each side read in lexicographic vertex order, where the
    library keys a facet by the bitmask of its vertex indices and reads the
    side in index order."""
    unshared, shared = {}, set()
    for cell in cells:
        verts = cell.vertices
        flip = (cell.det < 0) ^ (sum(a > b for a, b in itertools.combinations(verts, 2)) & 1)
        ordered = tuple(sorted(verts))
        for k in range(len(ordered)):
            key = ordered[:k] + ordered[k + 1 :]
            side = flip ^ (k & 1)
            if key in shared:
                return False
            first = unshared.pop(key, None)
            if first is None:
                unshared[key] = side
            elif first == side:
                return False
            else:
                shared.add(key)
    rows = target.facets()
    return all(
        any(all(vec_dot(a, v) == b for v in key) for a, b in rows) for key in unshared
    )


def staircase_cells(dim):
    """The staircase triangulation of [0,1]^dim: one cell 0 < e_s1 < e_s1 + e_s2 < ... per permutation s."""
    cells = []
    for perm in itertools.permutations(range(dim)):
        v = [0] * dim
        cell = [tuple(v)]
        for axis in perm:
            v[axis] = 1
            cell.append(tuple(v))
        cells.append(cell)
    return cells


def placing_boundary(points):
    """The hull boundary facets that geometry._placing_cells returns once every point is placed."""
    cells = _placing_cells(points)
    try:
        while True:
            next(cells)
    except StopIteration as done:
        return done.value


def extremes_first(points):
    """The points, those that maximize (s.x, x) for a sign vector s first.

    One point per s in {1, -1}^dim, each a vertex of the hull, in the order
    of the sign vectors; the rest follow in their given order.
    """
    first = {}
    for signs in itertools.product((1, -1), repeat=len(points[0])):
        first[max(points, key=lambda x: (vec_dot(signs, x), x))] = None
    return [*first, *(p for p in points if p not in first)]


def sorted_placing_hull(points, extremes=False):
    """LatticePolytope(points) as built by placing the generators in sorted
    order and testing every generator as a vertex against all the others,
    its facet rows read off the placing boundary and its volume summed over
    the boundary facets.  With `extremes`, the generators are placed extreme
    points first and only those on a boundary facet are vertex candidates."""
    gens = sorted(set(tuple(p) for p in points))
    dim = len(gens[0])
    start = _affine_basis(gens)[0]
    hull_dim = len(start) - 1
    diffs = [tuple(a - b for a, b in zip(q, start[0])) for q in start[1:]]
    cols = []
    for j in range(dim):
        if fraction_rank_of_rows([[row[c] for c in cols + [j]] for row in diffs]) > len(cols):
            cols.append(j)

    def lift(normal, coords):
        at = dict(zip(coords, normal))
        return [at.get(c, 0) for c in range(dim)]

    rows = set()
    for j in range(dim):
        if j not in cols:
            coords = cols + [j]
            normal = lift(_facet_normal([tuple(v[c] for c in coords) for v in start]), coords)
            a, b = _primitive_row(normal, vec_dot(normal, start[0]))
            rows.update({(a, b), (tuple(-x for x in a), -b)})
    volume = 0
    candidates = gens
    if hull_dim:
        proj = [tuple(g[c] for c in cols) for g in gens]
        boundary = placing_boundary(extremes_first(proj) if extremes else proj)
        for _, normal, offset in boundary:
            volume += offset - vec_dot(normal, proj[0])
            rows.add(_primitive_row(lift(normal, cols), offset))
        if extremes:
            on_boundary = {q for fpts, _, _ in boundary for q in fpts}
            candidates = [g for g, q in zip(gens, proj) if q in on_boundary]

    # g is a vertex iff it alone maximizes the sum of its tight facet normals
    def is_vertex(g):
        tight = [a for a, b in rows if vec_dot(a, g) == b]
        direction = [sum(col) for col in zip(*tight)] or [0] * dim
        top = vec_dot(direction, g)
        return all(vec_dot(direction, h) < top for h in candidates if h != g)

    vertices = tuple(g for g in candidates if is_vertex(g))
    volume = volume if hull_dim == dim else 0
    return LatticePolytope._from_parts(vertices, tight_rows(vertices, rows), hull_dim, volume=volume)


def tight_rows(vertices, rows):
    """Each row (a, b) mapped to the bitmask of the vertices on its hyperplane."""
    return {(a, b): sum(1 << i for i, v in enumerate(vertices) if vec_dot(a, v) == b) for a, b in rows}


def recursive_lattice_runs(levels, mins, maxs):
    """geometry._lattice_runs with one recursive call and slack list per
    prefix, the last coordinate's included."""
    last = len(levels) - 1
    flat = [row for level in levels for row in level]
    ends = list(itertools.accumulate(map(len, levels)))
    coefs = [[a[k] for a, _ in level] for k, level in enumerate(levels)]
    cols = [[a[k] for a, _ in flat[end:]] for k, end in enumerate(ends)]
    runs = []

    def lift(k, prefix, slack):
        lo, hi = mins[k], maxs[k]
        for c, room in zip(coefs[k], slack):
            if c > 0:
                hi = min(hi, room // c)
            else:
                lo = max(lo, -(room // -c))
        if k == last:
            if lo <= hi:
                runs.append((prefix, lo, hi))
            return
        rest = slack[len(coefs[k]) :]
        for x in range(lo, hi + 1):
            lift(k + 1, prefix + (x,), [s - c * x for s, c in zip(rest, cols[k])])

    lift(0, (), [b for _, b in flat])
    return runs


def runs_bitset(runs, width):
    """The int with bits start..start+length-1 set for each disjoint
    (start, length) run, start + length <= width: the sum of the runs' stop
    bits less the sum of their start bits, filled in two bytearrays."""
    starts, stops = bytearray(width // 8 + 1), bytearray(width // 8 + 1)
    for start, length in runs:
        stop = start + length
        starts[start >> 3] |= 1 << (start & 7)
        stops[stop >> 3] |= 1 << (stop & 7)
    return int.from_bytes(stops, "little") - int.from_bytes(starts, "little")


def pairwise_bitset(runs):
    """The int with bits start..start+length-1 set for each (start, length),
    starts ascending, by merging neighbours pairwise."""
    terms = [(s, (1 << n) - 1) for s, n in runs]
    if not terms:
        return 0
    while len(terms) > 1:
        odd = terms[-1:] if len(terms) % 2 else []
        terms = [(s, m | t << (u - s)) for (s, m), (u, t) in zip(terms[::2], terms[1::2])] + odd
    start, mask = terms[0]
    return mask << start


def elimination_placing_cells(points):
    """geometry._placing_cells with every boundary facet's row from its own
    elimination (_cell_facet), all of the first simplex's before its yield,
    and the horizon found by counting the ridges of the visible facets."""
    dim = len(points[0])
    start = _affine_basis(points)[0]
    if len(start) < dim + 1:
        raise DegeneratePolytopeError("points do not span the ambient dimension")
    boundary = {}

    def add_facets(cell, skips):
        for skip in skips:
            facet = _cell_facet(cell, skip)
            boundary[frozenset(facet[0])] = facet

    first = tuple(start)
    add_facets(first, range(dim + 1))
    _, normal, offset = boundary[frozenset(first[1:])]
    yield first, offset - vec_dot(normal, first[0])
    starters = set(start)
    for p in points:
        if p in starters:
            continue
        visible = []
        for key, (_, normal, offset) in boundary.items():
            height = vec_dot(normal, p) - offset
            if height > 0:
                visible.append((key, height))
        ridges = Counter(key - {q} for key, _ in visible for q in key)
        new_cells = []
        for key, height in visible:
            fpts = boundary.pop(key)[0]
            cell = fpts + (p,)
            new_cells.append((cell, height))
            add_facets(cell, [s for s in range(dim) if ridges[key - {fpts[s]}] == 1])
        yield from new_cells
    return list(boundary.values())


def width_form(vertices):
    """P's width form sum_i (m v_i - s)(m v_i - s)^T over its m vertices, s their sum."""
    m, total = len(vertices), [sum(col) for col in zip(*vertices)]
    deviations = [[m * x - t for x, t in zip(v, total)] for v in vertices]
    n = len(total)
    return [[sum(d[i] * d[j] for d in deviations) for j in range(n)] for i in range(n)]


def fraction_lll_defects(rows, gram):
    """The LLL conditions (delta = 3/4) that the basis `rows` fails under the
    Gram matrix `gram`, by Gram-Schmidt on Fractions: ("size", k, j) for
    |mu_kj| > 1/2, ("lovasz", k) for |b*_k|^2 < (3/4 - mu_k,k-1^2) |b*_{k-1}|^2."""
    def dot(x, y):
        return sum(a * g * b for a, row in zip(x, gram) for g, b in zip(row, y))

    stars, norms, defects = [], [], []
    for k, row in enumerate(rows):
        star = [Fraction(x) for x in row]
        mu = []
        for s, n in zip(stars, norms):
            mu.append(dot(row, s) / n)
            star = [x - mu[-1] * y for x, y in zip(star, s)]
        defects += [("size", k, j) for j, m in enumerate(mu) if abs(m) > Fraction(1, 2)]
        norm = dot(star, star)
        if k and norm < (Fraction(3, 4) - mu[-1] ** 2) * norms[-1]:
            defects.append(("lovasz", k))
        stars.append(star)
        norms.append(norm)
    return defects


def random_shear(rng, dim, steps, reach=2):
    """A unimodular integer matrix, as rows: the identity after `steps`
    random row additions row_i += c * row_j, 1 <= |c| <= reach."""
    rows = [list(r) for r in identity(dim)]
    for _ in range(steps if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice([c for c in range(-reach, reach + 1) if c])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))
