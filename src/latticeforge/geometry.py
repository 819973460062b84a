"""Lattice points, simplices and polytopes with exact geometric predicates.

Points are plain tuples of Python ints; rational query points are tuples of
``fractions.Fraction``.  Membership, barycentric coordinates, dilation and
lattice-point enumeration are all decided exactly:

* simplices answer membership through their (cached) integer adjugate,
* general polytopes in dimension <= 3 go through a facet system obtained by
  Fourier-Motzkin elimination of the convex-combination variables,
* dimensions 4..8 fall back to exact rational simplex-method feasibility.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from . import lp
from .errors import (
    DegeneratePolytopeError,
    DimensionMismatchError,
    LatticeForgeError,
    ResourceLimitError,
)
from .linalg import IntMatrix, adjugate, determinant, rank_of_rows

Point = tuple  # tuple[int, ...]
RatPoint = tuple  # tuple[Fraction, ...]

#: Enumeration works by scanning the integer bounding box, which is
#: exponential in the dimension; these caps turn runaway inputs into errors.
DIM_CAP = 8
BOX_CAP = 10**7

_FM_ROW_CAP = 20000


def as_point(p: Sequence[int]) -> Point:
    pt = tuple(p)
    if not pt:
        raise DimensionMismatchError("points must have dimension >= 1")
    for x in pt:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"lattice point coordinates must be int, got {x!r}")
    return pt


def as_rat_point(q: Sequence, dim: int) -> RatPoint:
    qt = tuple(Fraction(x) for x in q)
    if len(qt) != dim:
        raise DimensionMismatchError(f"expected a point of dimension {dim}, got {len(qt)}")
    return qt


def vec_add(p: Point, q: Point) -> Point:
    return tuple(a + b for a, b in zip(p, q))


def vec_sub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q))


def vec_scale(p: Point, c: int) -> Point:
    return tuple(c * a for a in p)


def vec_dot(p: Sequence, q: Sequence):
    return sum(a * b for a, b in zip(p, q))


def _check_uniform(points) -> int:
    dims = {len(p) for p in points}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed point dimensions: {sorted(dims)}")
    return dims.pop()


def is_affinely_independent(points: Iterable[Sequence[int]]) -> bool:
    """True iff the difference vectors from the first point are independent."""
    pts = [as_point(p) for p in points]
    if not pts:
        raise DimensionMismatchError("need at least one point")
    _check_uniform(pts)
    if len(pts) == 1:
        return True
    diffs = [vec_sub(p, pts[0]) for p in pts[1:]]
    return rank_of_rows(diffs) == len(diffs)


class LatticeSimplex:
    """n+1 affinely independent lattice points in Z^n, in a fixed order."""

    __slots__ = ("vertices", "dim", "difference_matrix", "det", "_adj_rows")

    def __init__(self, vertices: Iterable[Sequence[int]]):
        verts = tuple(as_point(v) for v in vertices)
        dim = _check_uniform(verts)
        if dim > DIM_CAP:
            raise ResourceLimitError(f"ambient dimension capped at {DIM_CAP}, got {dim}")
        if len(verts) != dim + 1:
            raise DimensionMismatchError(
                f"a simplex in dimension {dim} needs {dim + 1} vertices, got {len(verts)}"
            )
        if len(set(verts)) != len(verts):
            raise DegeneratePolytopeError("simplex vertices must be distinct")
        diff = IntMatrix.from_columns([vec_sub(v, verts[0]) for v in verts[1:]])
        det = determinant(diff)
        if det == 0:
            raise DegeneratePolytopeError("simplex vertices are affinely dependent")
        self.vertices = verts
        self.dim = dim
        self.difference_matrix = diff
        self.det = det
        self._adj_rows = None

    def _adjugate_rows(self):
        if self._adj_rows is None:
            self._adj_rows = adjugate(self.difference_matrix).data
        return self._adj_rows

    def barycentric(self, q: Sequence) -> tuple:
        """Exact affine weights (t_0..t_n) with sum 1 recombining to q.

        Entries may be negative; q lies in the simplex iff all are >= 0.
        """
        qt = as_rat_point(q, self.dim)
        r = [x - v for x, v in zip(qt, self.vertices[0])]
        d = self.det
        tail = [sum(a * x for a, x in zip(row, r)) / Fraction(d) for row in self._adjugate_rows()]
        return (1 - sum(tail), *tail)

    def contains_point(self, q: Sequence) -> bool:
        return all(t >= 0 for t in self.barycentric(q))

    def contains_lattice_point(self, p: Point) -> bool:
        """Integer-only membership test (hot path for box scans)."""
        v0 = self.vertices[0]
        r = [a - b for a, b in zip(p, v0)]
        nums = [sum(a * x for a, x in zip(row, r)) for row in self._adjugate_rows()]
        d = self.det
        if d > 0:
            return all(x >= 0 for x in nums) and sum(nums) <= d
        return all(x <= 0 for x in nums) and sum(nums) >= d

    def hull(self) -> "LatticePolytope":
        return LatticePolytope(self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeSimplex) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"LatticeSimplex({[list(v) for v in self.vertices]})"


def barycentric(s: LatticeSimplex, q: Sequence) -> tuple:
    return s.barycentric(q)


def _hull_feasible(points: Sequence[Point], q: RatPoint, dim: int) -> bool:
    """Is q a convex combination of `points`?  Exact LP feasibility."""
    if not points:
        return False
    rows = [[Fraction(p[j]) for p in points] for j in range(dim)]
    rows.append([Fraction(1)] * len(points))
    rhs = list(q) + [Fraction(1)]
    return lp.feasible_nonneg(rows, rhs)


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection: from "q is a convex combination of the
# vertices" to a facet system over the ambient coordinates alone.
# ---------------------------------------------------------------------------


def _normalize_row(lam, xc, rhs, is_eq):
    """Scale a row to coprime integer coefficients; canonical sign for ==."""
    coeffs = list(lam) + list(xc) + [rhs]
    mult = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    ints = [int(c * mult) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    if is_eq:
        lead = next((v for v in ints if v != 0), 0)
        if lead < 0:
            ints = [-v for v in ints]
    k = len(lam)
    n = len(xc)
    return tuple(ints[:k]), tuple(ints[k : k + n]), ints[k + n]


def fourier_motzkin_facets(vertices: Sequence[Point], dim: int):
    """Facet system of conv(vertices) as rows (a, b) meaning a.x <= b.

    Obtained by eliminating the convex-combination multipliers from the
    system {x = sum_i l_i v_i, sum_i l_i = 1, l_i >= 0} with exact
    Fourier-Motzkin steps.  Degenerate hulls come out as pairs of opposite
    inequalities (the affine hull).  Redundant rows may remain; they do not
    affect membership verdicts.
    """
    k = len(vertices)
    zero_x = (Fraction(0),) * dim

    # rows: (is_eq, lam coeffs, x coeffs, rhs) encoding lam.l + xc.x (<=|==) rhs
    rows = []
    for j in range(dim):
        lam = tuple(Fraction(v[j]) for v in vertices)
        xc = tuple(Fraction(-1) if t == j else Fraction(0) for t in range(dim))
        rows.append((True, lam, xc, Fraction(0)))
    rows.append((True, (Fraction(1),) * k, zero_x, Fraction(1)))
    for i in range(k):
        lam = tuple(Fraction(-1) if t == i else Fraction(0) for t in range(k))
        rows.append((False, lam, zero_x, Fraction(0)))

    # Substitute equalities to remove multipliers wherever possible.
    while True:
        picked = None
        for idx, (is_eq, lam, _, _) in enumerate(rows):
            if is_eq:
                var = next((v for v in range(k) if lam[v] != 0), None)
                if var is not None:
                    picked = (idx, var)
                    break
        if picked is None:
            break
        idx, var = picked
        _, elam, exc, erhs = rows[idx]
        coef = elam[var]
        new_rows = []
        for r, (is_eq, lam, xc, rhs) in enumerate(rows):
            if r == idx:
                continue
            if lam[var] == 0:
                new_rows.append((is_eq, lam, xc, rhs))
                continue
            f = lam[var] / coef
            new_rows.append(
                (
                    is_eq,
                    tuple(a - f * b for a, b in zip(lam, elam)),
                    tuple(a - f * b for a, b in zip(xc, exc)),
                    rhs - f * erhs,
                )
            )
        rows = new_rows

    # Fourier-Motzkin elimination of the multipliers left in inequalities.
    for var in range(k):
        eqs = [r for r in rows if r[0]]
        ineqs = [r for r in rows if not r[0]]
        pos = [r for r in ineqs if r[1][var] > 0]
        neg = [r for r in ineqs if r[1][var] < 0]
        zero = [r for r in ineqs if r[1][var] == 0]
        combined = []
        for _, plam, pxc, prhs in pos:
            for _, nlam, nxc, nrhs in neg:
                cp = plam[var]
                cn = -nlam[var]
                lam = tuple(cn * a + cp * b for a, b in zip(plam, nlam))
                xc = tuple(cn * a + cp * b for a, b in zip(pxc, nxc))
                combined.append((False, lam, xc, cn * prhs + cp * nrhs))
        seen = set()
        rows = eqs
        for is_eq, lam, xc, rhs in zero + combined:
            lam_i, xc_i, rhs_i = _normalize_row(lam, xc, rhs, is_eq)
            if not any(lam_i) and not any(xc_i):
                if rhs_i < 0:
                    raise LatticeForgeError("contradictory row while projecting a nonempty hull")
                continue
            key = (lam_i, xc_i, rhs_i)
            if key in seen:
                continue
            seen.add(key)
            rows.append(
                (
                    is_eq,
                    tuple(Fraction(v) for v in lam_i),
                    tuple(Fraction(v) for v in xc_i),
                    Fraction(rhs_i),
                )
            )
        if len(rows) > _FM_ROW_CAP:
            raise ResourceLimitError("facet projection grew past the desk-scale cap")

    facets = set()
    for is_eq, lam, xc, rhs in rows:
        if any(lam):
            raise LatticeForgeError("a multiplier survived Fourier-Motzkin elimination")
        a, b = _normalize_row((), xc, rhs, is_eq)[1:]
        if not any(a):
            continue
        facets.add((a, b))
        if is_eq:
            facets.add((tuple(-v for v in a), -b))
    return tuple(sorted(facets))


class LatticePolytope:
    """Convex hull of a finite set of lattice points (V-representation)."""

    __slots__ = ("generators", "vertices", "dim", "_simplex", "_facets")

    def __init__(self, points: Iterable[Sequence[int]]):
        gens = sorted(set(as_point(p) for p in points))
        if not gens:
            raise DimensionMismatchError("a polytope needs at least one point")
        dim = _check_uniform(gens)
        if dim > DIM_CAP:
            raise ResourceLimitError(f"ambient dimension capped at {DIM_CAP}, got {dim}")
        self.generators = tuple(gens)
        self.dim = dim
        self.vertices = tuple(
            g
            for i, g in enumerate(gens)
            if not _hull_feasible(
                gens[:i] + gens[i + 1 :], tuple(Fraction(x) for x in g), dim
            )
        )
        self._simplex = None
        if len(self.vertices) == dim + 1:
            try:
                self._simplex = LatticeSimplex(self.vertices)
            except DegeneratePolytopeError:
                self._simplex = None
        self._facets = None

    def as_simplex(self) -> Optional[LatticeSimplex]:
        """The polytope as a simplex, when it is one (n+1 independent vertices)."""
        return self._simplex

    def is_full_dimensional(self) -> bool:
        diffs = [vec_sub(v, self.vertices[0]) for v in self.vertices[1:]]
        return rank_of_rows(diffs) == self.dim if diffs else self.dim == 0

    def facets(self):
        if self._facets is None:
            self._facets = fourier_motzkin_facets(self.vertices, self.dim)
        return self._facets

    def bounding_box(self):
        mins = tuple(min(v[j] for v in self.vertices) for j in range(self.dim))
        maxs = tuple(max(v[j] for v in self.vertices) for j in range(self.dim))
        return mins, maxs

    def translate(self, t: Sequence[int]) -> "LatticePolytope":
        tv = as_point(t)
        return LatticePolytope([vec_add(v, tv) for v in self.vertices])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticePolytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.vertices))

    def __repr__(self) -> str:
        return f"LatticePolytope(vertices={[list(v) for v in self.vertices]})"


def contains(p: LatticePolytope, q: Sequence) -> bool:
    """Exact membership of a (rational) point in the polytope."""
    qt = as_rat_point(q, p.dim)
    simplex = p.as_simplex()
    if simplex is not None:
        return simplex.contains_point(qt)
    if p.dim <= 3:
        return all(sum(a * x for a, x in zip(row, qt)) <= b for row, b in p.facets())
    return _hull_feasible(p.vertices, qt, p.dim)


def dilate(p: LatticePolytope, h: int) -> LatticePolytope:
    """Polytope scaled by a positive integer factor."""
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise ValueError(f"dilation factor must be a positive integer, got {h!r}")
    return LatticePolytope([vec_scale(v, h) for v in p.vertices])


def lattice_points(p: LatticePolytope) -> tuple:
    """All integer points of the hull, in lexicographic order.

    Scans the integer bounding box with an exact membership test per point;
    raises ResourceLimitError when the box exceeds the volume cap.
    """
    mins, maxs = p.bounding_box()
    volume = 1
    for lo, hi in zip(mins, maxs):
        volume *= hi - lo + 1
        if volume > BOX_CAP:
            raise ResourceLimitError(
                f"bounding box exceeds the enumeration cap of {BOX_CAP} cells"
            )
    simplex = p.as_simplex()
    if simplex is not None:
        test = simplex.contains_lattice_point
    elif p.dim <= 3:
        facet_rows = p.facets()

        def test(pt, _rows=facet_rows):
            for row, b in _rows:
                if sum(a * x for a, x in zip(row, pt)) > b:
                    return False
            return True

    else:
        def test(pt):
            return _hull_feasible(p.vertices, tuple(Fraction(x) for x in pt), p.dim)

    ranges = [range(lo, hi + 1) for lo, hi in zip(mins, maxs)]
    return tuple(pt for pt in itertools.product(*ranges) if test(pt))
