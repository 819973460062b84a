"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own computation paths:
determinants by cofactor expansion, hull membership by exhaustive
Caratheodory search, h-fold sums by naive iteration, decompositions by
multiset enumeration.  They are slow and obviously correct.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

from latticeforge import (
    LatticePolytope,
    LatticeSimplex,
    is_unimodular,
    lattice_points,
    lp,
    placing_triangulation,
    verify_cover,
)


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
