"""Lattice points, simplices and polytopes with exact geometric predicates.

Points are plain tuples of Python ints; rational query points are tuples of
ints and ``fractions.Fraction``s, nothing else.  Membership, barycentric
coordinates, dilation and lattice-point enumeration are decided exactly.

``LatticePolytope`` finds its facet rows by double description
(``_facet_rows``): starting from a simplex, each further generator keeps the
integer rows it does not violate and joins each adjacent pair of a violated
and a kept row into one row through it.  Rows carry the bitmask of the
generators tight on them, which decides adjacency and, afterwards, which
generators are vertices; the polytope keeps each row's mask over its
vertices.  The rows of its coordinate projections come from its own rows
and masks, one exact elimination per coordinate (``_eliminate``), with no
hull pass; it joins adjacent pairs by the same step (``_combine``).

The placing routine (``_placing_cells``), a beneath-beyond pass that
keeps the hull boundary as oriented integer facet rows, triangulates any
iterable of points, read one at a time; it
eliminates only for its first simplex, whose volume is the last pivot of
the Bareiss elimination that picks its points (``_affine_basis``, which
also starts the double description, its pivot columns being the
coordinates a hull projects onto injectively), and each new facet's row
comes from its two neighbours.  It yields a point's cells before it
updates the boundary, so a caller that stops at a cell pays for no update
there.  It gives the normalized volume, on first use.  Every facet row of
a simplex, there, at the start of the double description and in a
``LatticeSimplex`` (which keeps them: row i at x is |det| times x's
barycentric weight t_i), comes from one fraction-free Gauss-Jordan
adjugate of its difference columns (``_simplex_facets``), which also
gives a flat hull's affine equations.
Membership of a rational point tests that integer facet system in every
dimension; lattice-point enumeration is nested, each coordinate bounded,
given the coordinates before it, by the rows of the coordinate projections,
and returns the last coordinate as runs, or sets their bits in a packed
bitset.  No LP is involved.

A polytope keeps its derived data, each computed on first read: its lattice
points, its projection rows and its normalized volume.  One method fills
every slot (``LatticePolytope._fill``), from the hull pass's parts or a
known polytope's.  A dilate keeps a link to its undilated base and reads
the base's rows and volume, computed once, scaled to h*P's.

A thin polytope, whose box holds more than ``FRAME_RATIO`` cells per
lattice point, has a frame (``_frame``) for the IDP scan (``sumsets``):
its image under the unimodular basis that integral LLL picks for its
width form, in a smaller box, built from its parts as a dilate is.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain
from math import gcd, lcm, prod
from operator import and_, mul, or_, sub
from typing import Iterable, Sequence

from .errors import DegeneratePolytopeError, DimensionMismatchError, ResourceLimitError
from .linalg import DIM_CAP, _bareiss, _lll_reduce

Point = tuple  # tuple[int, ...]
RatPoint = tuple  # a tuple of ints and Fractions
_RATIONAL = frozenset((int, Fraction))  # a rational coordinate's types, exactly

#: Caps that turn runaway inputs into errors: the ambient dimension
#: (``linalg.DIM_CAP``, shared with matrices), and the volume of the integer
#: bounding box that lattice-point enumeration accepts (a bound on the box,
#: not on the points the enumeration visits).
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
    qt = tuple(q)
    for x in qt:
        if type(x) not in _RATIONAL:
            raise TypeError(f"rational point coordinates must be int or Fraction, got {x!r}")
    _check_length(qt, dim)
    return qt


def _check_positive(value, what: str) -> int:
    """`value`, refusing anything but an int >= 1 (bool included) as `what`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def _check_length(q: tuple, dim: int) -> None:
    if len(q) != dim:
        raise DimensionMismatchError(f"expected a point of dimension {dim}, got {len(q)}")


def vec_sub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q))


def vec_scale(p: Point, c: int) -> Point:
    return tuple(c * a for a in p)


def vec_dot(p: Sequence, q: Sequence):
    return sum(map(mul, p, q))


def _bounds(points) -> tuple:
    """Per-coordinate (minima, maxima) of a nonempty point set, as tuples."""
    cols = tuple(zip(*points))
    return tuple(map(min, cols)), tuple(map(max, cols))


def _check_uniform(points) -> int:
    dims = {len(p) for p in points}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed point dimensions: {sorted(dims)}")
    return dims.pop()


class LatticeSimplex:
    """n+1 affinely independent lattice points in Z^n, in a fixed order.

    det is the determinant of the differences v_i - v_0, from one Bareiss
    elimination on them as rows (a matrix and its transpose share it),
    which _from_checked runs too.  Its facet rows (_simplex_facets), built
    on first read and kept, are its weight rows: row i at x is |det| times
    x's barycentric weight t_i.
    """

    __slots__ = ("vertices", "dim", "det", "_rows")

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
        if self._fill(verts).det == 0:
            raise DegeneratePolytopeError("simplex vertices are affinely dependent")

    def _fill(self, verts: tuple) -> LatticeSimplex:
        """Fill every slot and return self, det by its own elimination."""
        base = verts[0]
        self.vertices, self.dim, self._rows = verts, len(base), None
        self.det = _bareiss([[a - b for a, b in zip(v, base)] for v in verts[1:]], False)[0]
        return self

    @staticmethod
    def _from_checked(verts: tuple) -> LatticeSimplex:
        """The simplex on `verts`, d + 1 distinct lattice points in Z^d,
        d <= DIM_CAP, as a tuple the caller has checked (a placing pass's
        cell): __init__'s checks are skipped, not the elimination."""
        return LatticeSimplex.__new__(LatticeSimplex)._fill(verts)

    def _weight_rows(self) -> list:
        """The facet rows (a_i, b_i), a_i.x - b_i = |det| * t_i(x), kept after the first read."""
        if self._rows is None:
            self._rows = _simplex_facets(self.vertices, *_difference_adjugate(self.vertices))
        return self._rows

    def barycentric(self, q: Sequence) -> tuple:
        """Exact affine weights (t_0..t_n) with sum 1 recombining to q.

        Entries may be negative; q lies in the simplex iff all are >= 0.
        """
        qt = as_rat_point(q, self.dim)
        d = abs(self.det)
        return tuple(Fraction(vec_dot(a, qt) - b, d) for a, b in self._weight_rows())

    def contains_point(self, q: Sequence) -> bool:
        qt = as_rat_point(q, self.dim)
        return all(vec_dot(a, qt) >= b for a, b in self._weight_rows())

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeSimplex) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"LatticeSimplex({[list(v) for v in self.vertices]})"


# ---------------------------------------------------------------------------
# The hull kernels: integer beneath-beyond placing and double description.
# ---------------------------------------------------------------------------


def _difference_adjugate(vertices: Sequence[Point]) -> tuple:
    """(det, adj) of the matrix whose columns are v_i - v_0, from one
    fraction-free Gauss-Jordan pass (linalg._bareiss); (1, ()) for one vertex."""
    base = vertices[0]
    return _bareiss(list(zip(*[vec_sub(v, base) for v in vertices[1:]])), True)


def _simplex_facets(vertices: Sequence[Point], det: int, adj) -> list:
    """Facet rows of a simplex from its _difference_adjugate (det, adj).

    rows[i] = (a, b) means a.x >= b on the simplex, with equality on the
    facet opposite vertices[i]: a.x - b is |det| times x's barycentric
    weight t_i (row i >= 1 is sign(det) * adj_{i-1}, row 0 |det| minus
    their sum), the rows a LatticeSimplex keeps.  So a.x - b is the
    normalized volume of that facet coned to x, signed positive on the
    simplex's side, and the negated row (-a, -b) is the facet's outward
    cofactor row, the one integer row (N, c) with N.x - c zero on the facet
    and -|det| at the opposite vertex.
    """
    v0 = vertices[0]
    tail = [tuple(-x for x in row) if det < 0 else row for row in adj]
    head = tuple(-sum(col) for col in zip(*tail))
    return [(head, vec_dot(head, v0) - abs(det))] + [(a, vec_dot(a, v0)) for a in tail]


def _affine_basis(points: Iterable[Point]) -> tuple:
    """(start, skipped, pivot, cols): the first affinely independent points
    met in order, spanning conv(points); the other points read, in order;
    the last pivot of the elimination that chose them; and its pivot
    columns, one per kept point after the first, in the order kept.

    One fraction-free (Bareiss) elimination, a row per point: the difference
    r = p - start[0] is reduced against each row kept before it, in order,
    as r = (pivot_t * r - r[c_t] * row_t) // pivot_(t-1), with c_t row t's
    pivot column, pivot_t = row_t[c_t] and pivot_0 = 1.  Every entry is
    then a minor of the kept differences and r, so the division is exact
    (Sylvester's identity) and the kept rows' pivot columns are cleared.  p
    is kept iff r is nonzero, and r's first nonzero entry is the next pivot.
    Reading stops once len(start[0]) + 1 points are kept, so an iterator is
    left at the first point not read.  The last pivot is then +-det of the
    difference rows, the normalized volume of the simplex on `start`; with
    fewer points kept it is a minor of their differences (1 for no row).
    Each kept row is zero at every earlier pivot column and before its own,
    so the rows sorted by pivot column are an echelon form of the kept
    differences, and sorted(cols) is its rank profile: the leftmost
    coordinates on which conv(points) projects injectively.
    """
    it = iter(points)
    base = next(it)
    full = len(base) + 1
    start, skipped = [base], []
    cols, rows = [], []  # pivot column, row reduced against the rows before it
    for p in it:
        r = list(map(sub, p, base))
        prev = 1
        for c, row in zip(cols, rows):
            f, pivot = r[c], row[c]
            r = [(pivot * x - f * y) // prev for x, y in zip(r, row)]
            prev = pivot
        if not any(r):
            skipped.append(p)
            continue
        cols.append(r.index(next(filter(None, r))))
        rows.append(r)
        start.append(p)
        if len(start) == full:
            break
    return start, skipped, rows[-1][cols[-1]] if rows else 1, cols


def _placing_cells(points: Iterable[Point]):
    """Incremental (beneath-beyond) triangulation of conv(points) in Z^dim,
    dim that of the first point.

    Points are inserted in the order they arrive from the iterable, read
    one at a time: an order drawn lazily (unimodular._draw) is drawn only as
    far as the pass reads it.  Only the points met before the first simplex
    is complete are held back, and inserted after it in their order.  A
    point strictly outside the current hull cones onto every strictly
    visible boundary facet.  Points inside or on the hull extend nothing
    (they simply do not become cell vertices).  The cells tile the hull with
    disjoint interiors.  Each is yielded as it is made, as (cell, normalized
    volume): the volume of the cone from p over a visible facet is p's
    height N.p - offset above the facet row, so it costs nothing extra.  A
    yielded cell is never removed later, so a caller may stop at the first
    cell it rejects, and a point's cells are yielded right after its
    visibility scan, before the boundary is updated: a caller that stops
    there pays for no update.

    The hull boundary is kept as it changes, each boundary facet with its
    outward cofactor row (N, b): N.x - b is the signed normalized volume of
    the facet coned to x, positive outside.  Only the first simplex is
    eliminated.  The elimination that picks its points (_affine_basis) ends
    at a pivot of +-det, whose absolute value is the first cell's volume,
    yielded with no further pass; only when the caller resumes does one
    Gauss-Jordan pass give the outward rows of all its dim + 1 facets (the
    negated _simplex_facets).  Every later facet's row comes from its two
    neighbours.  Let p see the facet F = (N_F, b_F) at height
    eta = N_F.p - b_F > 0, and let the ridge R = F - {u} be shared with a
    boundary facet G = (N_G, b_G) that p does not see: g_p = N_G.p - b_G <= 0
    and g_u = b_G - N_G.u.  The new facet R + {p} gets the row

        ((eta * N_G - g_p * N_F) / g_u,  (eta * b_G - g_p * b_F) / g_u).

    Every row that vanishes on R is a combination of F's and G's rows.  This
    one vanishes at p, and at u it is -eta, minus the volume of the cell
    F + {p} on its inner side.  The outward cofactor row of R + {p} in the
    cell F + {p}, the negated _simplex_facets row opposite u, meets the same
    two conditions, so the two rows agree entry for entry, scale and sign
    included, and both divisions are exact because that row is integral.
    g_u > 0: u lies inside G, and not on G's hyperplane, since then F and G
    would be coplanar, p would see G too, and R would not be on the horizon.

    Boundary facets and ridges are keyed by the bitmask of their points'
    bits, so a ridge is its facet's key less one bit and a new facet its
    ridge's key plus p's bit.  The first simplex's points take the lowest
    bits after the first yield, and each later point the next bit when it
    sees a facet: a point that sees none is never a facet's point, and a
    repeated point sees none, so each facet point has one bit.  Next to the
    boundary, each ridge (dim - 1 points) maps to the keys of the two
    boundary facets that share it.  A ridge of a visible facet is on the
    horizon iff its other owner is not visible; otherwise it becomes
    interior and leaves the map.

    When the generator is exhausted it returns the boundary: a list of
    (facet points, outward normal, offset), meaning normal.x <= offset on
    the hull, in the order the facets joined it.
    """
    points = iter(points)
    start, skipped, pivot, _ = _affine_basis(points)
    if len(start) <= len(start[0]):
        raise DegeneratePolytopeError("points do not span the ambient dimension")
    first = tuple(start)
    yield first, abs(pivot)
    bit = {q: 1 << i for i, q in enumerate(first)}
    boundary = {}
    for skip, (a, b) in enumerate(_simplex_facets(first, *_difference_adjugate(first))):
        fpts = first[:skip] + first[skip + 1 :]
        boundary[sum(bit[q] for q in fpts)] = (fpts, tuple(-x for x in a), -b)
    ridges = {}
    for key, (fpts, _, _) in boundary.items():
        for q in fpts:
            ridges.setdefault(key ^ bit[q], []).append(key)
    for p in chain(skipped, points):
        visible = {}
        for key, (_, normal, offset) in boundary.items():
            height = sum(map(mul, normal, p)) - offset
            if height > 0:
                visible[key] = height
        if not visible:
            continue
        for key, height in visible.items():
            yield boundary[key][0] + (p,), height
        p_bit = bit[p] = 1 << len(bit)
        for key, height in visible.items():
            fpts, normal, offset = boundary.pop(key)
            for s, u in enumerate(fpts):
                ridge = key ^ bit[u]
                owners = ridges.get(ridge)
                if owners is None:
                    continue  # interior: its other owner, also visible, came first
                other = owners[owners[0] == key]  # the owner that is not key
                if other in visible:
                    del ridges[ridge]
                    continue
                _, g_normal, g_offset = boundary[other]
                g_p = sum(map(mul, g_normal, p)) - g_offset
                g_u = g_offset - sum(map(mul, g_normal, u))
                row = tuple((height * a - g_p * c) // g_u for a, c in zip(g_normal, normal))
                new_pts = fpts[:s] + fpts[s + 1 :] + (p,)
                new_key = ridge | p_bit
                boundary[new_key] = (new_pts, row, (height * g_offset - g_p * offset) // g_u)
                owners[owners[0] != key] = new_key
                for r in new_pts[:-1]:
                    ridges.setdefault(new_key ^ bit[r], []).append(new_key)
    return list(boundary.values())


def _facet_rows(points: Sequence[Point], start: Sequence[int], det: int, adj) -> tuple:
    """(rows, masks) of the full-dimensional conv(points) by double description.

    Motzkin et al. (1953): rows[k] = (a, b) is a primitive facet row,
    a.x <= b on the hull, and masks[k] the bitmask of the points tight on it.
    The outward rows of the simplex that `start` indexes begin, its negated
    _simplex_facets made primitive, read off (det, adj), its
    _difference_adjugate, which the caller has taken; each other point p,
    farthest from the bounding box's centre first, keeps the rows it does
    not violate and replaces the violated ones by _combine's rows through p
    at the heights a.p - b, each masked with p's bit.
    """
    inner = _simplex_facets([points[i] for i in start], det, adj)
    rows = [_primitive_row([-x for x in a], -b) for a, b in inner]
    masks = [sum(1 << j for j in start if j != i) for i in start]
    starters = set(start)
    # the points farthest from the box's centre first: they tend to be
    # vertices, and a point met inside the hull only has its tight bits set
    mins, maxs = _bounds(points)
    order = sorted(
        range(len(points)),
        key=lambda i: -sum((2 * x - a - b) ** 2 for x, a, b in zip(points[i], mins, maxs)),
    )
    for i in order:
        if i in starters:
            continue
        p = points[i]
        heights = [sum(map(mul, a, p)) - b for a, b in rows]
        masks = [z | (t == 0) << i for z, t in zip(masks, heights)]
        if max(heights) <= 0:
            continue
        new = _combine(rows, masks, heights, len(p), (1 << len(rows)) - 1)
        kept = [k for k, t in enumerate(heights) if t <= 0]
        rows = [rows[k] for k in kept] + [row for row, _ in new]
        masks = [masks[k] for k in kept] + [common | 1 << i for _, common in new]
    return rows, masks


def _combine(rows: Sequence, masks: Sequence, heights: Sequence, dim: int, facets: int) -> list:
    """(row, common) for each row F with heights[F] > 0 and row G with
    heights[G] < 0 whose facets meet in a ridge of the dim-dimensional
    polytope the rows bound, F ascending, then G: row is the primitive
    eta * G - g * F, eta = heights[F] and g = heights[G], and common is
    masks[F] & masks[G].  The double description (_facet_rows) passes the
    rows' heights at a new point, and Fourier-Motzkin elimination
    (_eliminate) their coefficients of the coordinate it drops.

    masks[k] is the bitmask of the points tight on row k; `facets` has a bit
    for each facet row, a flat polytope's affine-hull rows left out.  Two
    facets meet in a ridge iff they share at least dim - 1 tight points and
    no third facet is tight on all of them (Fukuda-Prodon 1996): their
    common points then span a face of dimension dim - 2, and no smaller face
    lies on only two facets.  With at[j] the rows tight at point j, the rows
    tight at dim - 1 or more of F's points come from a bit-sliced count over
    them, and the rows tight at every common point are one AND of their at[j].
    """
    upper = [f for f, t in enumerate(heights) if t > 0]
    lower = sum(1 << g for g, t in enumerate(heights) if t < 0)
    need = reduce(or_, [masks[f] for f in upper], 0)
    at = [0] * need.bit_length()
    for k, z in enumerate(masks):
        for j in _bits(z & need):
            at[j] |= 1 << k
    out = []
    for f in upper:
        mask, (n_f, b_f), eta = masks[f], rows[f], heights[f]
        # reach[c]: the rows tight at c or more of F's points
        reach = [facets] + [0] * (dim - 1)
        for j in _bits(mask):
            reach = [facets, *(r | fewer & at[j] for r, fewer in zip(reach[1:], reach))]
        for g in _bits(reach[-1] & lower):
            common = mask & masks[g]
            if reduce(and_, [at[j] for j in _bits(common)], facets).bit_count() <= 2:
                (n_g, b_g), t = rows[g], heights[g]
                normal = [eta * c - t * a for a, c in zip(n_f, n_g)]
                out.append((_primitive_row(normal, eta * b_g - t * b_f), common))
    return out


def _bits(z: int) -> list:
    """Positions of the set bits of z >= 0, lowest first, one step per set bit:
    0.5-1.3 us on the hull's masks (5-6 bits set in 8 to 720) against 1.2-4.5 us
    for sumsets._bit_indices, which reads the scan's wide sparse ints by bytes
    (81 us against 575 us here for 55 bits in 181,545; 2-vCPU Xeon, Python 3.11)."""
    out = []
    while z:
        low = z & -z
        out.append(low.bit_length() - 1)
        z ^= low
    return out


def _primitive_row(normal: Sequence[int], offset: int) -> tuple:
    """(a, b) with a the primitive multiple of the nonzero normal; b stays exact."""
    g = gcd(*normal)
    return tuple(x // g for x in normal), offset // g


class LatticePolytope:
    """Convex hull of a finite set of lattice points (V-representation).

    _facets holds its sorted primitive rows and _masks, slot for slot, the
    bitmask of the vertices tight on each (every vertex for a row of a flat
    hull's affine equations), as the double description found them.  The
    derived data are kept once read: _points (lattice_points), _projections
    (_projection_rows, the one row system its enumeration reads) and _volume
    (normalized_volume).  _base is (base, h) for h*base built by dilate,
    base undilated, and None otherwise.
    """

    __slots__ = (
        "vertices", "dim", "_facets", "_masks", "_hull_dim", "_points", "_projections", "_volume", "_base",
    )

    def __init__(self, points: Iterable[Sequence[int]]):
        gens = sorted(set(as_point(p) for p in points))
        if not gens:
            raise DimensionMismatchError("a polytope needs at least one point")
        dim = _check_uniform(gens)
        if dim > DIM_CAP:
            raise ResourceLimitError(f"ambient dimension capped at {DIM_CAP}, got {dim}")

        # The start simplex's elimination also gives `cols`, its sorted pivot
        # columns: the leftmost coordinates on which the affine hull projects
        # injectively, every coordinate for a full-dimensional hull.
        start, _, _, pivots = _affine_basis(gens)
        hull_dim = len(start) - 1
        cols = sorted(pivots)

        def lift(normal, coords):
            at = dict(zip(coords, normal))
            return [at.get(c, 0) for c in range(dim)]

        # One adjugate of the start simplex projected to `cols` serves the
        # affine hull and the facet rows.  Each other coordinate j is an
        # affine function of `cols` on the hull: with M the differences on
        # `cols` as columns and D_j their row j,
        # det(M) * (x_j - v0_j) = (D_j adj(M)) . (x_cols - v0_cols).  One
        # equation per j, kept as a pair of opposite rows; a single point
        # has det 1, no adjugate and x_j = v0_j.
        det, adj = _difference_adjugate([tuple(v[c] for c in cols) for v in start])
        equations = set()
        if hull_dim < dim:
            diffs = [vec_sub(q, start[0]) for q in start[1:]]
            for j in range(dim):
                if j not in cols:
                    normal = lift([vec_dot([d[j] for d in diffs], col) for col in zip(*adj)], cols)
                    normal[j] = -det
                    a, b = _primitive_row(normal, vec_dot(normal, start[0]))
                    equations.update({(a, b), (tuple(-x for x in a), -b)})

        vertices = gens
        tight = {}  # row -> the bitmask of the vertices tight on it
        if hull_dim:
            proj = [tuple(g[c] for c in cols) for g in gens]
            facets, masks = _facet_rows(proj, [gens.index(q) for q in start], det, adj)
            # g is a vertex iff no other generator is tight on every facet g
            # is tight on, the face those facets cut out then being {g}
            meet = [reduce(and_, (z for z in masks if z >> i & 1), -1) for i in range(len(gens))]
            keep = [i for i in range(len(gens)) if meet[i] == 1 << i]
            vertices = [gens[i] for i in keep]
            if len(keep) < len(gens):
                masks = [sum(1 << t for t, i in enumerate(keep) if z >> i & 1) for z in masks]
            tight = {(tuple(lift(a, cols)), b): z for (a, b), z in zip(facets, masks)}
        # every vertex is tight on an equation of the affine hull
        tight.update(dict.fromkeys(equations, (1 << len(vertices)) - 1))
        self._fill(tuple(vertices), tight, hull_dim)

    def _fill(self, vertices: tuple, tight: dict, hull_dim: int, points=None, volume=None, base=None):
        """Fill every slot and return self, from the sorted vertices, `tight`
        (each primitive row mapped to its tight mask), the affine dimension
        and, when known, the lattice points, volume and (base, h) link."""
        self.vertices, self.dim, self._hull_dim = vertices, len(vertices[0]), hull_dim
        self._facets = tuple(sorted(tight))
        self._masks = tuple(tight[row] for row in self._facets)
        self._points, self._projections, self._volume, self._base = points, None, volume, base
        return self

    @staticmethod
    def _from_parts(*parts, **known) -> LatticePolytope:
        """A polytope built from its parts (_fill), with no hull pass."""
        return LatticePolytope.__new__(LatticePolytope)._fill(*parts, **known)

    def is_full_dimensional(self) -> bool:
        return self._hull_dim == self.dim

    def facets(self):
        """Sorted primitive integer rows (a, b), meaning a.x <= b on the hull.

        The affine hull of a lower-dimensional polytope appears as pairs of
        opposite rows.
        """
        return self._facets

    def bounding_box(self):
        return _bounds(self.vertices)

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
    """n! times Euclidean volume as an exact integer; 0 for flat polytopes.

    Computed on first use, as the sum of the cell volumes of one placing
    pass over the vertices, and kept in the polytope; or kept from such a
    pass run elsewhere (_record_volume).  A dilate h*P reads P's, h^dim
    times larger, so a polytope and all its dilates share one pass.
    """
    if p._volume is None and p._base is not None:
        base, h = p._base
        p._volume = h**p.dim * normalized_volume(base)
    elif p._volume is None:
        p._volume = sum(v for _, v in _placing_cells(p.vertices)) if p.is_full_dimensional() else 0
    return p._volume


def _record_volume(p: LatticePolytope, order: Sequence[Point], volume: int) -> None:
    """Keep `volume`, the cell volume sum of a placing pass over `order` run
    to the end, as p's normalized volume, when `order` is exactly p.vertices;
    for a dilate h*P, keep P's too, h^dim times smaller.

    That pass is the one normalized_volume would run, so its sum is the
    value it would compute.  A pass over any other sequence, such as all the
    lattice points of p, is not recorded: a check of that pass's cells
    against p's volume would then be checking the pass against itself.
    """
    if p._volume is None and tuple(order) == p.vertices:
        p._volume = volume
        if p._base is not None:
            base, h = p._base
            base._volume = volume // h**p.dim


def contains(p: LatticePolytope, q: Sequence) -> bool:
    """Exact membership of a point in the polytope.

    A point of ints is tested against the integer facet rows as it is; any
    other must be ints and Fractions (as_rat_point), and is tested on their
    common-denominator numerators.
    """
    qt = tuple(q)
    if all(type(x) is int for x in qt):
        _check_length(qt, p.dim)
        return all(vec_dot(a, qt) <= b for a, b in p.facets())
    qt = as_rat_point(qt, p.dim)
    den = lcm(*(x.denominator for x in qt))
    num = [x.numerator * (den // x.denominator) for x in qt]
    return all(vec_dot(a, num) <= b * den for a, b in p.facets())


def dilate(p: LatticePolytope, h: int) -> LatticePolytope:
    """Polytope scaled by a positive integer factor.

    Built from p's parts, with no hull pass: h*P has the vertices h*v, the
    primitive rows (a, h*b) in the same sorted order with the same tight
    masks and the same affine dimension.  It links to the undilated base
    with the accumulated factor (dilate(dilate(P, 2), 3) to P with 6), whose
    projection rows and volume it reads, scaled, on first use.  The result
    equals LatticePolytope of the scaled vertices slot for slot, the derived
    data compared through lattice_points, _projection_rows and
    normalized_volume.
    """
    _check_positive(h, "dilation factor")
    base, factor = p._base or (p, 1)
    factor *= h
    vertices = tuple(vec_scale(v, factor) for v in base.vertices)
    rows = dict(zip(_scale_rows(base._facets, factor), base._masks))
    return LatticePolytope._from_parts(vertices, rows, base._hull_dim, base=(base, factor))


#: A full-dimensional polytope gets a frame (_frame) when its bounding box
#: holds more than this many cells per lattice point.  The box is what the
#: IDP scan's bitsets span, the lattice points what they hold.  Measured: the
#: needle conv{0, e1, e2, (7,7,6), (8,7,6)} has 63 (8 points in 504 cells);
#: cubes, their dilates and grids have 1, 3*a2 4.7, and the Reeve simplex
#: a2 = conv{0, e1, e2, (1,1,2)} and its dilates h*a2, h = 1..5, 3 to 5.2.
#: So only thin inputs are framed, and a box the scan fills is not reduced.
#: Without this gate a2's box shrinks from 12 cells to 8 and it is framed:
#: the benchmark's `probe` workload then took 33% longer and `bruteforce`
#: 6% (`wall_s` medians, 6 alternating pairs of 8 s runs, 2-vCPU Xeon).
FRAME_RATIO = 8


def _frame(p: LatticePolytope):
    """(U*P, U^-1) for a thin full-dimensional p, None for any other.

    p is thin when its bounding box holds more than FRAME_RATIO cells per
    lattice point (a box of at most FRAME_RATIO cells per vertex needs no
    count).  U's rows are an LLL-reduced basis of the integer linear forms
    under p's width form: with m vertices v_i and s their sum,
    G = sum_i (m v_i - s)(m v_i - s)^T, so a G a^T is m^2 times the sum of
    the squared deviations of a.x from its mean over the vertices, and a
    short form varies little over p.  U is used only when the box of U*P
    is smaller than p's at every dilation (_box_shrinks).  x -> Ux is a
    lattice isomorphism, so U*P has the lattice points U*L(P), the
    normalized volume and the sumsets of P, and P has the IDP at h iff U*P
    has.  U^-1 is det(U) adj(U), det(U) = +-1.

    The image is built from p's parts, as dilate builds h*P: the vertices
    U*v, sorted; p's primitive rows (a, b) as (a U^-1, b), primitive too,
    sorted, each with its tight mask over the sorted image vertices; U*L(P),
    sorted, as its lattice points (so L(P) is read in p, under p's own box
    cap); and p's normalized volume.  It equals LatticePolytope of U*P's
    vertices slot for slot, and saves the scan that hull pass and a volume
    of its own: on the benchmark's `bruteforce` workload, whose slowest
    request scans the needle, a fresh hull took the median `query_p90_ms`
    from 1.94 to 2.02 ms (10 alternating pairs of 20 s runs, 2-vCPU Xeon).
    """
    if not p.is_full_dimensional():
        return None
    mins, maxs = p.bounding_box()
    cells = _box_cells(mins, maxs)
    if cells <= FRAME_RATIO * len(p.vertices) or cells <= FRAME_RATIO * len(lattice_points(p)):
        return None
    m, total = len(p.vertices), [sum(col) for col in zip(*p.vertices)]
    cols = list(zip(*[[m * x - t for x, t in zip(v, total)] for v in p.vertices]))
    u = _lll_reduce([[vec_dot(a, b) for b in cols] for a in cols])

    def image(x):
        return tuple(vec_dot(row, x) for row in u)

    verts = [image(v) for v in p.vertices]
    if not _box_shrinks((mins, maxs), _bounds(verts)):
        return None
    det, adj = _bareiss(u, True)
    inverse = tuple(tuple(det * x for x in row) for row in adj)
    order = sorted(range(len(verts)), key=verts.__getitem__)
    at = {old: new for new, old in enumerate(order)}
    cols = list(zip(*inverse))
    rows = {
        (tuple(vec_dot(a, c) for c in cols), b): sum(1 << at[i] for i in _bits(z))
        for (a, b), z in zip(p._facets, p._masks)
    }
    points = tuple(sorted(map(image, lattice_points(p))))
    framed = LatticePolytope._from_parts(
        tuple(verts[i] for i in order), rows, p._hull_dim, points=points, volume=normalized_volume(p)
    )
    return framed, inverse


def _box_shrinks(box: tuple, image: tuple) -> bool:
    """Whether no elementary symmetric sum e_k of image's widths is larger
    than box's and one is smaller, each box a pair (mins, maxs).

    With widths w, h*box has prod_i (h w_i + 1) = sum_k e_k(w) h^k cells,
    so then h*image has fewer cells than h*box at every h >= 1 (a box
    below at every h may still fail: widths (1, 6) against (3, 3)).  One
    h is not enough: widths (1, 1, 7) give 32 cells against 27 for
    (2, 2, 2) at h = 1, but 725 against 729 at h = 4.
    """
    def terms(mins, maxs):
        out = [1]
        for lo, hi in zip(mins, maxs):
            out = [a + (hi - lo) * b for a, b in zip(out + [0], [0] + out)]
        return out

    old, new = terms(*box), terms(*image)
    return new != old and all(b <= a for a, b in zip(old, new))


def _scale_rows(rows: Sequence, h: int) -> tuple:
    """The rows (a, h*b) of h*P, in order, from P's rows (a, b)."""
    return tuple((a, h * b) for a, b in rows)


def _box_cells(mins: Sequence[int], maxs: Sequence[int]) -> int:
    """The number of integer cells of the box mins..maxs."""
    return prod(hi - lo + 1 for lo, hi in zip(mins, maxs))


def _check_box(mins: Sequence[int], maxs: Sequence[int]) -> None:
    if _box_cells(mins, maxs) > BOX_CAP:
        raise ResourceLimitError(f"bounding box exceeds the enumeration cap of {BOX_CAP} cells")


def _lattice_runs(bounds: Sequence, mins: Sequence[int], maxs: Sequence[int], weights=None):
    """Integer points of the box mins..maxs that satisfy per-coordinate rows, as runs.

    bounds[k] holds rows (a, b) that bound x_k given x_0..x_{k-1}: each
    means sum_{i<=k} a_i x_i <= b, has a_k != 0, and its entries past a_k
    are ignored.  Enumeration is nested: each prefix x_0..x_{k-1} met gets
    the interval of x_k its rows allow, and the last coordinate's interval
    is returned whole as a run (prefix, lo, hi), lo <= hi, in lexicographic
    order.  The last interval is worked out inline for each value of the
    second-to-last coordinate, from the last rows split by the sign of
    their last coefficient, so no call or slack list is made per run.  On
    the rows of a polytope's coordinate projections (_projection_rows),
    every prefix visited extends to a point of the real hull.

    Given packing `weights` (the last one 1), it returns instead the int
    with bit sum_k weights[k] * (x_k - mins[k]) set for each point x.  The
    packed prefix is carried down the nesting, so a run from lo to hi is
    the bit range start..stop - 1, start = base + lo, and it is set as it
    is found: its start bit into one bytearray and its stop bit into
    another.  The runs are disjoint, so they have distinct starts and
    distinct stops, and their union is the stops' int less the starts' int.
    No run tuple is built and no per-run dot product is taken.
    """
    last = len(bounds) - 1
    flat = [row for rows in bounds for row in rows]
    ends = list(accumulate(map(len, bounds)))
    coefs = [[a[k] for a, _ in rows] for k, rows in enumerate(bounds)]
    # cols[k]: the coefficients of x_k in the rows for the later coordinates
    cols = [[a[k] for a, _ in flat[end:]] for k, end in enumerate(ends)]
    runs = []
    bits = weights is not None
    steps = weights if bits else [0] * len(bounds)
    size = (sum(w * (b - a) for w, a, b in zip(steps, mins, maxs)) + 1) // 8 + 1
    starts, stops = bytearray(size), bytearray(size)

    def interval(k, slack):
        # slack: b - sum_{i<k} a_i x_i for the rows of bounds[k], bounds[k+1], ...
        lo, hi = mins[k], maxs[k]
        for c, room in zip(coefs[k], slack):
            if c > 0:
                t = room // c
                if t < hi:
                    hi = t
            else:
                t = -(room // -c)
                if t > lo:
                    lo = t
        return lo, hi

    def lift(k, prefix, base, slack):
        lo, hi = interval(k, slack)
        col, w = cols[k], steps[k]
        rest = slack[len(coefs[k]) :]
        if k + 1 < last:
            for x in range(lo, hi + 1):
                lift(k + 1, prefix + (x,), base + w * x, [s - c * x for s, c in zip(rest, col)])
            return
        # given the second-to-last coordinate x, a row of the last level with
        # coefficients (cx, c) for it and the last coordinate bounds the last
        # by (room - cx * x) / c: from above when c > 0, from below when c < 0
        upper = [(c, cx, room) for c, cx, room in zip(coefs[last], col, rest) if c > 0]
        lower = [(-c, cx, room) for c, cx, room in zip(coefs[last], col, rest) if c < 0]
        first, top = mins[last], maxs[last]
        for x in range(lo, hi + 1):
            u = top
            for c, cx, room in upper:
                t = (room - cx * x) // c
                if t < u:
                    u = t
            v = first
            for c, cx, room in lower:
                t = -((room - cx * x) // c)
                if t > v:
                    v = t
            if v <= u:
                if bits:
                    at = base + w * x
                    start, stop = at + v, at + u + 1
                    starts[start >> 3] |= 1 << (start & 7)
                    stops[stop >> 3] |= 1 << (stop & 7)
                else:
                    runs.append((prefix + (x,), v, u))

    slack = [b for _, b in flat]
    base = -sum(map(mul, steps, mins))
    if last:
        lift(0, (), base, slack)
    else:
        lo, hi = interval(0, slack)
        if lo <= hi:
            runs.append(((), lo, hi))
            if bits:
                return (1 << base + hi + 1) - (1 << base + lo)
    return int.from_bytes(stops, "little") - int.from_bytes(starts, "little") if bits else runs


def _projection_rows(p: LatticePolytope) -> tuple:
    """Per coordinate k, the rows of p's projection to x_0..x_k with a_k != 0.

    A prefix x_0..x_k meets them, given that x_0..x_{k-1} met the rows for
    the coordinates before, iff it lies in that projection (a row with
    a_k = 0 is a row of the projection one coordinate down), so
    _lattice_runs on them visits no dead prefix.  The rows for k = p.dim - 1
    are p's own, each with its tight mask over p's vertices; each projection
    below comes from the one above by one exact elimination (_eliminate).
    Where a projection is full-dimensional its rows are its primitive facet
    rows.  They are computed on first read and kept in p; a dilate h*P
    keeps P's, read once, as (a, h*b), with no elimination of its own.
    """
    if p._projections is None and p._base is not None:
        base, h = p._base
        p._projections = tuple(_scale_rows(r, h) for r in _projection_rows(base))
    elif p._projections is None:
        rows = dict(zip(p._facets, p._masks))
        full, dim = (1 << len(p.vertices)) - 1, p._hull_dim
        out = []
        for k in range(p.dim - 1, -1, -1):
            out.append(tuple(row for row in rows if row[0][k]))
            if k:
                rows, dim = _eliminate(rows, k, dim, full)
        p._projections = tuple(out[::-1])
    return p._projections


def _eliminate(rows: dict, k: int, dim: int, full: int) -> tuple:
    """(rows, dim) of the projection that drops x_k, the last coordinate of
    `rows`, from those of a dim-dimensional polytope.

    rows maps each row (a, b), a.x <= b, to the bitmask of the vertices
    tight on it, `full` for an equation of the affine hull.  When an
    equation has a_k != 0, x_k is an affine function of the rest on the
    hull: substituting it into every row keeps each row's value at every
    vertex, so the masks stay, the projection is one to one and dim stays.
    Otherwise x_k runs along the hull and the projection's facets are the
    images of the facets with a_k = 0 and of the ridges F & G where F has
    a_k > 0 and G a_k < 0: _combine's rows at the heights a_k, on the rows
    truncated to x_0..x_{k-1}.  At each vertex v such a row less its offset
    is f_k * (G(v) - b_G) - g_k * (F(v) - b_F), zero iff both are, so its
    mask is mask_F & mask_G.  Each row comes back truncated to
    x_0..x_{k-1}, primitive; an equation that became 0 <= 0 is dropped.
    """
    items = list(rows.items())
    out = {}
    # equations come in opposite pairs, so one has e_k > 0 if any has e_k != 0
    pivot = next(((a, b) for (a, b), z in items if z == full and a[k] > 0), None)
    if pivot is not None:
        e, b_e = pivot
        for (a, b), z in items:
            normal = [e[k] * x - a[k] * y for x, y in zip(a[:k], e)]
            if any(normal):
                out[_primitive_row(normal, e[k] * b - a[k] * b_e)] = z
        return out, dim
    for (a, b), z in items:
        if not a[k]:
            out[a[:k], b] = z
    # a segment along x_k projects to a point, which its equations bound
    if dim > 1:
        masks, cut = list(rows.values()), [(a[:k], b) for a, b in rows]
        facets = sum(1 << i for i, z in enumerate(masks) if z != full)
        out.update(_combine(cut, masks, [a[k] for a, _ in rows], dim, facets))
    return out, dim - 1


def lattice_points(p: LatticePolytope) -> tuple:
    """All integer points of the hull, in lexicographic order.

    Nested enumeration (_lattice_runs) over the rows of p's coordinate
    projections (_projection_rows), run on first read and kept in p.  Raises
    ResourceLimitError when the bounding box exceeds the volume cap, before
    any row is eliminated.
    """
    if p._points is None:
        mins, maxs = p.bounding_box()
        _check_box(mins, maxs)
        runs = _lattice_runs(_projection_rows(p), mins, maxs)
        p._points = tuple(prefix + (x,) for prefix, lo, hi in runs for x in range(lo, hi + 1))
    return p._points
