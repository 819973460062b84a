"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own computation paths:
determinants by cofactor expansion, hull membership by exhaustive
Caratheodory search, h-fold sums by naive iteration, decompositions by
multiset enumeration.  They are slow and obviously correct.  Some are the
library's own earlier, slower implementations, kept to cross-check the
paths that replaced them: the bounding-box scan, tuple sumsets by repeated
doubling, the per-h IDP check, facet normals from cofactor minors, ranks
and affine bases by rational elimination, dilates by a fresh hull pass, and
cover certification by testing every pair of cells.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from operator import mul

from latticeforge import (
    IdpReport,
    LatticePolytope,
    LatticeSimplex,
    contains,
    dilate,
    is_unimodular,
    lattice_index,
    lattice_points,
    lp,
    normalized_volume,
    placing_triangulation,
    verify_cover,
)
from latticeforge.unimodular import Certification, _interior_inequalities, _interiors_intersect
from latticeforge.linalg import IntMatrix, determinant


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


def feasible_nonneg(a, b):
    """Is there x >= 0 with a @ x = b?  Phase 1 of the exact LP."""
    n = len(a[0]) if a else 0
    status, _, _ = lp.solve_min([0] * n, a, b)
    return status == lp.OPTIMAL


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
        d = determinant(IntMatrix(minor))
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


def per_h_idp_check(p, h):
    """The h-fold check from scratch: box-scanned points, doubled sums, set difference."""
    summed = set(doubling_hfold_sumset(box_scan_lattice_points(p), h))
    dilated = set(box_scan_lattice_points(dilate(p, h)))
    assert summed <= dilated
    witnesses = tuple(sorted(dilated - summed))
    return IdpReport(h, not witnesses, witnesses, len(summed), len(dilated))


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


def full_placing_search(p, attempts=20, seed=0):
    """find_unimodular_triangulation without its early abort.

    Builds the whole placing triangulation for each insertion order (the
    same orders: lexicographic, then seeded shuffles) and only then checks
    that every cell is unimodular.  Returns the first certified cover, or
    None.
    """
    pts = list(lattice_points(p))
    for k in range(attempts):
        if k == 0:
            order = pts
        else:
            order = pts[:]
            random.Random(f"{seed}:{k}").shuffle(order)
        cover = placing_triangulation(p, order)
        if all(is_unimodular(c) for c in cover.cells):
            if verify_cover(cover).status == "certified":
                return replace(cover, certified="certified")
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
        rows = [_interior_inequalities(c) for c in cells]
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                if _interiors_intersect(cells[i], cells[j], rows[i], rows[j]):
                    problems.append(f"cells {i} and {j} share an interior point")
    status = "certified" if not problems else "uncertified"
    return Certification(status=status, problems=tuple(problems))


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
