"""Lattice points, simplices and polytopes with exact geometric predicates.

Points are plain tuples of Python ints; rational query points are tuples of
``fractions.Fraction``.  Membership, barycentric coordinates, dilation and
lattice-point enumeration are all decided exactly.

One integer kernel answers every hull question: a beneath-beyond placing
routine (``_placing_cells``) that keeps the hull boundary as oriented integer
facet rows.  ``LatticePolytope`` runs it once over its generators, in a
coordinate projection that is injective on their affine hull, and keeps the
facet rows, the affine equations, the vertices and the normalized volume.
Membership of a rational point and lattice-point enumeration then test that
integer facet system in every dimension; no LP is involved.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DegeneratePolytopeError, DimensionMismatchError, ResourceLimitError
from .linalg import IntMatrix, adjugate, determinant, rank_of_rows

Point = tuple  # tuple[int, ...]
RatPoint = tuple  # tuple[Fraction, ...]

#: Enumeration works by scanning the integer bounding box, which is
#: exponential in the dimension; these caps turn runaway inputs into errors.
DIM_CAP = 8
BOX_CAP = 10**7


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
    return sum(map(mul, p, q))


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
    return len(_affine_basis(pts)) == len(pts)


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


# ---------------------------------------------------------------------------
# The hull kernel: integer beneath-beyond placing.
# ---------------------------------------------------------------------------


def _facet_normal(points: Sequence[Point]) -> tuple:
    """Integer normal of the hyperplane through n points in R^n (cofactors).

    Against the normal N, the simplex spanned by these points and one more
    point p has normalized volume |N.p - N.points[0]|.
    """
    n = len(points[0])
    if n == 1:
        return (1,)
    diffs = [vec_sub(q, points[0]) for q in points[1:]]
    normal = []
    for j in range(n):
        minor = [[row[t] for t in range(n) if t != j] for row in diffs]
        d = determinant(IntMatrix(minor))
        normal.append(d if j % 2 == 0 else -d)
    return tuple(normal)


def _cell_facet(cell: Sequence[Point], skip: int) -> tuple:
    """Facet opposite cell[skip] as (points, normal, offset), normal.x <= offset on the cell."""
    fpts = cell[:skip] + cell[skip + 1 :]
    normal = _facet_normal(fpts)
    offset = vec_dot(normal, fpts[0])
    if vec_dot(normal, cell[skip]) > offset:
        return fpts, tuple(-x for x in normal), -offset
    return fpts, normal, offset


def _affine_basis(points: Sequence[Point]) -> list:
    """The first affinely independent points met in order, spanning conv(points)."""
    start = [points[0]]
    for p in points[1:]:
        if len(start) == len(p) + 1:
            break
        diffs = [vec_sub(q, start[0]) for q in start[1:]] + [vec_sub(p, start[0])]
        if rank_of_rows(diffs) == len(diffs):
            start.append(p)
    return start


def _placing_cells(points: Sequence[Point], dim: int):
    """Incremental (beneath-beyond) triangulation of conv(points).

    Points are inserted in the given order; a point strictly outside the
    current hull cones onto every strictly visible boundary facet.  Points
    inside or on the hull extend nothing (they simply do not become cell
    vertices).  The cells, yielded as they are made, tile the hull with
    disjoint interiors.  A yielded cell is never removed later, so a caller
    may stop at the first cell it rejects.

    The hull boundary is kept as it changes, each boundary facet with its
    outward integer row computed once.  When the generator is exhausted it
    returns that boundary: a dict from facet vertex set to (facet points,
    outward normal, offset), meaning normal.x <= offset on the hull.
    """
    start = _affine_basis(points)
    if len(start) < dim + 1:
        raise DegeneratePolytopeError("points do not span the ambient dimension")
    boundary = {}

    def add_facets(cell, skips):
        for skip in skips:
            facet = _cell_facet(cell, skip)
            boundary[frozenset(facet[0])] = facet

    first = tuple(start)
    yield first
    add_facets(first, range(dim + 1))
    starters = set(start)
    for p in points:
        if p in starters:
            continue
        visible = [
            key for key, (_, normal, offset) in boundary.items() if vec_dot(normal, p) > offset
        ]
        # A ridge of exactly one visible facet is on the horizon: its cone
        # over p is a new boundary facet.  Ridges of two visible facets
        # become interior.
        ridges = Counter(key - {q} for key in visible for q in key)
        new_cells = []
        for key in visible:
            fpts = boundary.pop(key)[0]
            cell = fpts + (p,)
            new_cells.append(cell)
            add_facets(cell, [s for s in range(dim) if ridges[key - {fpts[s]}] == 1])
        yield from new_cells
    return boundary


def _placing_boundary(points: Sequence[Point], dim: int) -> dict:
    """The hull boundary that _placing_cells returns once every point is placed."""
    cells = _placing_cells(points, dim)
    try:
        while True:
            next(cells)
    except StopIteration as done:
        return done.value


def _primitive_row(normal: Sequence[int], offset: int) -> tuple:
    """(a, b) with a the primitive multiple of the nonzero normal; b stays exact."""
    g = gcd(*normal)
    return tuple(x // g for x in normal), offset // g


class LatticePolytope:
    """Convex hull of a finite set of lattice points (V-representation)."""

    __slots__ = ("generators", "vertices", "dim", "_simplex", "_facets", "_hull_dim", "_volume")

    def __init__(self, points: Iterable[Sequence[int]]):
        gens = sorted(set(as_point(p) for p in points))
        if not gens:
            raise DimensionMismatchError("a polytope needs at least one point")
        dim = _check_uniform(gens)
        if dim > DIM_CAP:
            raise ResourceLimitError(f"ambient dimension capped at {DIM_CAP}, got {dim}")
        self.generators = tuple(gens)
        self.dim = dim

        # Coordinates `cols` on which the affine hull projects injectively.
        start = _affine_basis(gens)
        hull_dim = len(start) - 1
        diffs = [vec_sub(q, start[0]) for q in start[1:]]
        cols = []
        for j in range(dim):
            if rank_of_rows([[row[c] for c in cols + [j]] for row in diffs]) > len(cols):
                cols.append(j)

        def lift(normal, coords):
            at = dict(zip(coords, normal))
            return [at.get(c, 0) for c in range(dim)]

        # Each other coordinate is an affine function of `cols` on the hull:
        # one equation, kept as a pair of opposite rows.
        rows = set()
        for j in range(dim):
            if j not in cols:
                coords = cols + [j]
                normal = lift(_facet_normal([tuple(v[c] for c in coords) for v in start]), coords)
                a, b = _primitive_row(normal, vec_dot(normal, start[0]))
                rows.update({(a, b), (tuple(-x for x in a), -b)})

        volume = 0
        if hull_dim:
            proj = [tuple(g[c] for c in cols) for g in gens]
            for _, normal, offset in _placing_boundary(proj, hull_dim).values():
                # cone from a hull point over each boundary facet tiles the hull
                volume += offset - vec_dot(normal, proj[0])
                rows.add(_primitive_row(lift(normal, cols), offset))
        self._facets = tuple(sorted(rows))
        self._hull_dim = hull_dim
        self._volume = volume if hull_dim == dim else 0

        # g is a vertex iff it alone maximizes the sum of its tight facet
        # normals: that sum lies inside g's normal cone exactly when the cone
        # is full-dimensional, and is constant on the face g is interior to.
        def is_vertex(g):
            tight = [a for a, b in self._facets if vec_dot(a, g) == b]
            direction = [sum(col) for col in zip(*tight)] or [0] * dim
            top = vec_dot(direction, g)
            return all(vec_dot(direction, h) < top for h in gens if h != g)

        self.vertices = tuple(g for g in gens if is_vertex(g))
        full = hull_dim == dim and len(self.vertices) == dim + 1
        self._simplex = LatticeSimplex(self.vertices) if full else None

    def as_simplex(self) -> Optional[LatticeSimplex]:
        """The polytope as a simplex, when it is one (n+1 independent vertices)."""
        return self._simplex

    def is_full_dimensional(self) -> bool:
        return self._hull_dim == self.dim

    def facets(self):
        """Sorted primitive integer rows (a, b), meaning a.x <= b on the hull.

        The affine hull of a lower-dimensional polytope appears as pairs of
        opposite rows.
        """
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


def normalized_volume(p: LatticePolytope) -> int:
    """n! times Euclidean volume as an exact integer; 0 for flat polytopes."""
    return p._volume


def contains(p: LatticePolytope, q: Sequence) -> bool:
    """Exact membership of a (rational) point in the polytope."""
    qt = as_rat_point(q, p.dim)
    den = lcm(*(x.denominator for x in qt))
    num = [x.numerator * (den // x.denominator) for x in qt]
    return all(vec_dot(a, num) <= b * den for a, b in p.facets())


def dilate(p: LatticePolytope, h: int) -> LatticePolytope:
    """Polytope scaled by a positive integer factor."""
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise ValueError(f"dilation factor must be a positive integer, got {h!r}")
    return LatticePolytope([vec_scale(v, h) for v in p.vertices])


def lattice_points(p: LatticePolytope) -> tuple:
    """All integer points of the hull, in lexicographic order.

    Scans the integer bounding box against the facet rows; raises
    ResourceLimitError when the box exceeds the volume cap.
    """
    mins, maxs = p.bounding_box()
    volume = 1
    for lo, hi in zip(mins, maxs):
        volume *= hi - lo + 1
        if volume > BOX_CAP:
            raise ResourceLimitError(
                f"bounding box exceeds the enumeration cap of {BOX_CAP} cells"
            )
    rows = p.facets()
    ranges = [range(lo, hi + 1) for lo, hi in zip(mins, maxs)]
    return tuple(
        pt
        for pt in itertools.product(*ranges)
        if all(sum(map(mul, a, pt)) <= b for a, b in rows)
    )
