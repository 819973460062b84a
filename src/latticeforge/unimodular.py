"""Unimodularity tests, constructive decompositions, covers, dilation search.

The constructive side: inside a unimodular simplex, every lattice point of
the h-fold dilate is a nonnegative integer combination of the vertices with
weights summing to h, and the weights are unique: w_i = a_i.p - h*b_i,
integers read off the cell's cached facet rows (a_i, b_i), with no rational
solve.  Covers extend this to polytopes: a certified unimodular
triangulation yields a decomposition of any lattice point of the dilate by
locating a containing cell.

Placing triangulations come from the integer placing kernel in ``geometry``,
and the search builds their cells without re-checking the placed points.
Certification is exact throughout: volumes are compared as integers
(normalized volume = |det|), and a triangulation is first certified by
facet matching: every cell facet, keyed by the bitmask of its vertices'
int indices, is either shared by exactly two cells on opposite sides of it
or lies on a facet of the target, which with the volume sum proves that the
cells tile the target.  Only a cover that fails the
matching or another check (one that is not face to face, or not a tiling)
goes to the pairwise interior-disjointness test, decided by bounding-box and
separating-facet tests on integer data (each cell's cached facet rows,
from geometry's one kernel for a simplex's facet rows), with the margin
LP as the fallback for pairs neither test separates.  That fallback is the
only use of ``lp`` in the package: the LP's dual, solved exactly on an
integer tableau by simplex phase 2 alone, from the basis of the first
cell's facet rows, with no phase 1 (the general two-phase solver is a test
oracle).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, starmap
from operator import gt, le
from typing import NamedTuple, Optional, Sequence

from . import geometry, lp
from .errors import (
    CoverageError,
    DegeneratePolytopeError,
    DimensionMismatchError,
    NotUnimodularError,
    PointOutsideError,
    ResourceLimitError,
)
from .geometry import (
    LatticePolytope,
    LatticeSimplex,
    Point,
    _bounds,
    _check_positive,
    _placing_cells,
    _record_volume,
    as_point,
    contains,
    dilate,
    lattice_points,
    normalized_volume,
    vec_dot,
    vec_scale,
    vec_sub,
)
from .linalg import hermite_normal_form
from .sumsets import idp_scan


def lattice_index(s: LatticeSimplex) -> int:
    """|det| of the edge-difference matrix.

    This is the index in Z^n of the subgroup generated by the vertex
    differences, and also the normalized volume of the simplex; it equals 1
    exactly when the differences form a basis of Z^n.
    """
    return abs(s.det)


def is_unimodular(s: LatticeSimplex) -> bool:
    return lattice_index(s) == 1


def hnf_diagonal(s: LatticeSimplex) -> tuple:
    """Diagonal of the Hermite form of the difference matrix, whose columns
    are v_i - v_0.

    Diagnostic view of the difference subgroup: the product of the diagonal
    is the lattice index, and each entry shows the stretch along one basis
    direction (e.g. (1, 1, 2) for an index-2 subgroup).
    """
    base = s.vertices[0]
    h, _ = hermite_normal_form(zip(*[vec_sub(v, base) for v in s.vertices[1:]]))
    return tuple(h[i][i] for i in range(s.dim))


# a dataclass, not a NamedTuple: bench/selfcheck.py plants a wrong answer with dataclasses.replace
@dataclass(frozen=True)
class Decomposition:
    """p written as a weighted sum of the vertices of one simplex cell.

    weights pairs every cell vertex with its nonnegative integer weight
    (zeros included); the weights sum to h and the expanded multiset of
    parts sums to the decomposed point.
    """

    parts: tuple
    weights: tuple
    h: int
    cell: LatticeSimplex

    def point(self) -> Point:
        acc = tuple(0 for _ in range(self.cell.dim))
        for part in self.parts:
            acc = tuple(a + b for a, b in zip(acc, part))
        return acc


def decompose_in_simplex(s: LatticeSimplex, p: Sequence[int], h: int) -> Decomposition:
    """Unique weights w_i >= 0 with sum h and sum w_i * vertex_i = p.

    Requires s unimodular and p a lattice point of the h-fold dilate of s.
    Row i (a_i, b_i) of the cell's cached facet rows has a_i.x - b_i = |det|
    times x's barycentric weight t_i, so with |det| = 1 the weights of p are
    w_i = h * t_i(p / h) = a_i.p - h * b_i, integers; p lies in the dilate
    iff none is negative.
    """
    if not is_unimodular(s):
        raise NotUnimodularError(
            f"simplex has lattice index {lattice_index(s)}; decomposition needs index 1"
        )
    pt = as_point(p)
    if len(pt) != s.dim:
        raise DimensionMismatchError("point dimension does not match the simplex")
    _check_positive(h, "h")
    w = tuple(vec_dot(a, pt) - h * b for a, b in s._weight_rows())
    if any(x < 0 for x in w):
        raise PointOutsideError(f"{pt} is not in the {h}-fold dilate of the simplex")
    parts = []
    for vertex, weight in zip(s.vertices, w):
        parts.extend([vertex] * weight)
    return Decomposition(
        parts=tuple(sorted(parts)),
        weights=tuple(zip(s.vertices, w)),
        h=h,
        cell=s,
    )


class SimplicialCover(NamedTuple):
    """A list of simplices claimed to cover a target polytope."""

    target: LatticePolytope
    cells: tuple
    kind: str = "triangulation"  # "triangulation" | "general-cover"
    certified: str = "uncertified"  # "certified" | "vertices-only" | "uncertified"


class Certification(NamedTuple):
    status: str
    problems: tuple = ()


def _separates(rows, vertices) -> bool:
    """Does some facet row (a, b) of one cell have a.v <= b at every vertex v of the other?"""
    return any(all(vec_dot(normal, v) <= offset for v in vertices) for normal, offset in rows)


def _interiors_intersect(a: LatticeSimplex, b: LatticeSimplex) -> bool:
    """Exact test whether two full-dimensional simplices share an interior point.

    Cheap integer tests come first: disjoint open bounding boxes, then a
    facet hyperplane of one cell with the whole other cell on its closed
    outer side.  Only pairs that neither separates go to the exact margin
    LP, which is needed for completeness: in dimension >= 3 two cells may
    be separated only by a plane through an edge of each.  The last two
    read the cells' cached facet rows (a, b), a.x >= b on the cell and
    strict on its interior.
    """
    (a_lo, a_hi), (b_lo, b_hi) = _bounds(a.vertices), _bounds(b.vertices)
    if any(map(le, a_hi, b_lo)) or any(map(le, b_hi, a_lo)):
        return False
    rows_a, rows_b = a._weight_rows(), b._weight_rows()
    if _separates(rows_a, b.vertices) or _separates(rows_b, a.vertices):
        return False
    return lp.max_min_margin(rows_a + rows_b, a.dim) > 0


def _facets_match(cells, target: LatticePolytope) -> bool:
    """Do the cells glue face to face, with every unshared facet on the target's boundary?

    Each distinct vertex gets an int index when it is first met, and each
    facet of each cell is keyed by the bitmask of its vertex indices.  A key
    may occur at most twice; a key that occurs twice must have the two
    apexes strictly on opposite sides of it; a key that occurs once must be
    tight on one row of target.facets().  For full-dimensional cells inside
    the target, this makes the covering multiplicity constant on the
    target's interior: crossing a shared facet it changes by +1 and -1, and
    an unshared facet lies on a supporting hyperplane, which misses the
    interior.  Volumes that sum to the target's then make it 1, so the cells
    tile the target (De Loera, Rambau, Santos, Triangulations, ch. 4).

    The side needs no normal.  The orientation det(v_1 - v_0, ..., v_n - v_0)
    alternates under vertex permutations, so with the vertices w in index
    order it is the cell's det times the parity of that sort, and the apex
    w_k sits on the side of its facet (w without w_k, in order) given by
    that sign times (-1)^k.  Any one order of all the vertices gives each
    shared facet one orientation in both its cells, so the verdict does not
    depend on the order the indices follow.
    """
    sides = {}  # facet key -> side bit of its apex, 2 once two cells share it
    index = {}  # vertex -> its int index, in the order first met
    for cell in cells:
        ids = [index.setdefault(v, len(index)) for v in cell.vertices]
        flip = (cell.det < 0) ^ (sum(starmap(gt, combinations(ids, 2))) & 1)
        full = sum(map((1).__lshift__, ids))
        for k, i in enumerate(sorted(ids)):
            key = full ^ (1 << i)
            side = flip ^ (k & 1)
            first = sides.get(key)
            if first is None:
                sides[key] = side
            elif first == side ^ 1:
                sides[key] = 2
            else:
                return False  # a third cell, or two apexes on one side
    # per target row, the bit mask of the vertex indices tight on it
    tight = [sum(1 << i for i, v in enumerate(index) if vec_dot(a, v) == b) for a, b in target.facets()]
    return all(any(key & z == key for z in tight) for key, side in sides.items() if side != 2)


def verify_cover(cover: SimplicialCover) -> Certification:
    """Exact certification of a cover.

    Triangulations are fully checked: unimodular cells, containment in the
    target, cell volumes summing to the target's normalized volume, and
    disjoint interiors; success means "certified".  Disjointness comes from
    facet matching (_facets_match) when the other checks pass and the cells
    meet face to face, with no cell pair tested.  Otherwise every pair is
    tested (_interiors_intersect), which also certifies a valid dissection
    that is not face to face and names each overlapping pair.  General covers
    only get the unimodularity and containment checks ("vertices-only"),
    because exact coverage of an overlapping union is not decided here.
    """
    problems = []
    target = cover.target
    if not cover.cells:
        problems.append("cover has no cells")
    dimension_mismatch = False
    inside = {}  # vertex -> contains(target, vertex); cells share most vertices
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
        if problems or not _facets_match(cells, target):
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    if _interiors_intersect(cells[i], cells[j]):
                        problems.append(f"cells {i} and {j} share an interior point")
    status = "certified" if not problems else "uncertified"
    return Certification(status=status, problems=tuple(problems))


def find_unimodular_triangulation(
    p: LatticePolytope, attempts: int = 20, seed: int = 0
) -> Optional[SimplicialCover]:
    """Search for a certified all-unimodular placing triangulation.

    Tries the lexicographic insertion order first, then uniform random
    orders, drawn from one random.Random(seed) that the attempts share;
    when the lattice points are the n+1 vertices of a simplex, every order
    places that one simplex, so one order decides.  An order is abandoned
    at its first non-unimodular cell: placing only adds cells, so that cell
    would stay in the finished triangulation.  A drawn order is drawn front
    first, a point at a time as the placing routine reads it (_draw), so an
    abandoned order has drawn only the points it placed and the next
    attempt draws on from there.  The placing routine takes its first
    cell's volume from the elimination that picks that cell's points and
    yields each point's cells before it updates the hull boundary, so an
    order abandoned at its first cell pays for no facet row.
    Each cell's normalized volume comes with it from the placing routine,
    so simplices are built only for an order whose cells all have volume 1,
    by LatticeSimplex._from_checked: d + 1 lattice points of p per cell,
    each cell's det eliminated afresh for verify_cover.  When the
    lattice points are the vertices and p's volume is not yet known (a 0/1
    cube read from a polytope file; the built-in cube-n comes with n!), the
    lexicographic pass is the pass normalized_volume runs, so its cell count
    is kept as the target's volume and certifying places no second time.
    Returns the first certified cover, or None.  None is a proof of
    nonexistence only in that one-order case; _placing_search returns the
    verdict ("impossible" or "not-found") with the cover.
    """
    _check_positive(attempts, "attempts")
    _check_seed(seed)
    return _placing_search(p, attempts, seed)[1]


def _check_seed(seed) -> None:
    """Refuse a seed that is not an int, bool included: random.Random(None)
    seeds from the OS, so the search's verdict would change from run to run."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(f"seed must be an integer, got {seed!r}")


def _draw(rng: random.Random, order: list):
    """Permute `order` in place into a uniform random order, front first,
    yielding each entry as it is fixed.

    Fisher-Yates as Durstenfeld gives it (CACM 7, 1964), run from the
    front: step i swaps order[i] with order[j], j uniform in i..n-1, drawn
    exactly from rng.getrandbits with rejection (no floats).  The entries
    yielded so far are order's prefix, and a caller that stops early has
    drawn only for them; once exhausted, order is the whole permutation.
    """
    getrandbits = rng.getrandbits
    n = len(order)
    for i in range(n - 1):
        m = n - i
        k = (m - 1).bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        j += i
        order[i], order[j] = order[j], order[i]
        yield order[i]
    if n:
        yield order[-1]


def _placing_search(p: LatticePolytope, attempts: int, seed: int) -> tuple:
    """find_unimodular_triangulation with its verdict: (certificate, cover).

    The certificate is "certified" with the cover; "impossible" with None
    when the lattice points are the n+1 vertices of a simplex, which every
    order places as the one cell, so one order decides; otherwise
    "not-found" with None.
    """
    pts = lattice_points(p)
    if not p.is_full_dimensional():
        raise DegeneratePolytopeError("placing triangulation needs a full-dimensional polytope")
    forced = len(pts) == p.dim + 1
    rng = random.Random(seed)
    for k in range(1 if forced else attempts):
        order = list(pts) if k else pts
        cells = []
        for vertices, volume in _placing_cells(_draw(rng, order) if k else pts):
            if volume != 1:
                break
            cells.append(vertices)
        else:
            # each cell has volume 1, and the draw is complete; an order that
            # is p's vertices gives p's volume
            _record_volume(p, order, len(cells))
            cover = SimplicialCover(target=p, cells=tuple(map(LatticeSimplex._from_checked, cells)))
            if verify_cover(cover).status == "certified":
                return "certified", cover._replace(certified="certified")
    return ("impossible" if forced else "not-found"), None


def decompose(
    p: LatticePolytope, cover: SimplicialCover, point: Sequence[int], h: int
) -> Decomposition:
    """Decompose a lattice point of the h-fold dilate via a certified cover of p.

    Locates the first cell (in cover order) containing point/h and reads
    its integer weights there (decompose_in_simplex); the parts are h
    lattice points of p summing to the input.
    """
    pt = as_point(point)
    if len(pt) != p.dim:
        raise DimensionMismatchError("point dimension does not match the polytope")
    _check_positive(h, "h")
    if cover.certified != "certified":
        raise ValueError("decompose requires a cover with certified status")
    if cover.target != p:
        raise ValueError("decompose requires a cover whose target is the polytope")
    q = tuple(Fraction(x, h) for x in pt)
    for cell in cover.cells:
        if cell.contains_point(q):
            return decompose_in_simplex(cell, pt, h)
    if contains(p, q):
        raise CoverageError(
            f"no cell of the certified cover contains {pt} / {h}; the certificate is wrong"
        )
    raise PointOutsideError(f"{pt} is not a point of the {h}-fold dilate")


class EllProbe(NamedTuple):
    """One row of the dilation search: certificate vs direct verdicts at ell."""

    ell: int
    certificate: str  # "certified" | "not-found" | "impossible"
    cell_count: Optional[int]
    idp: tuple


class EllReport(NamedTuple):
    """Result of scanning dilation factors 1..ell_max."""

    ell: Optional[int]
    per_ell: tuple


def find_ell(
    p: LatticePolytope, ell_max: int, h_max: int, attempts: int = 20, seed: int = 0
) -> EllReport:
    """Search for the smallest dilation factor with a certified triangulation.

    Every factor in 1..ell_max gets a row pairing the certificate outcome
    with the direct h-fold verdicts for h = 1..h_max, so the two can be
    cross-checked; `ell` is the smallest certified factor, or None.  Each
    row's dilate reads p's projection rows and normalized volume, which
    geometry computes once, in p, and enumerates its own lattice points once
    for the search and the scan.

    ell_max is capped at isqrt(BOX_CAP), as the IDP scan caps h, before any
    row runs: a box with two or more positive widths has (ell+1)^2 cells or
    more, so the box cap refuses it by that ell anyway, and the bound binds
    only boxes that grow in at most one coordinate.  Then the box of
    ell_max*P is checked against BOX_CAP, also before any row runs: a
    dilate's box grows with ell, and the last row's lattice points would
    refuse it.
    """
    _check_positive(ell_max, "ell_max")
    _check_positive(attempts, "attempts")
    _check_seed(seed)
    _check_positive(h_max, "h_max")
    ell_bound = math.isqrt(geometry.BOX_CAP)
    if ell_max > ell_bound:
        raise ResourceLimitError(f"ell capped at {ell_bound}, got {ell_max}")
    mins, maxs = p.bounding_box()
    geometry._check_box(vec_scale(mins, ell_max), vec_scale(maxs, ell_max))
    rows = []
    found = None
    for ell in range(1, ell_max + 1):
        scaled = dilate(p, ell)
        certificate, cover = _placing_search(scaled, attempts, seed)
        if cover is not None and found is None:
            found = ell
        rows.append(
            EllProbe(
                ell=ell,
                certificate=certificate,
                cell_count=len(cover.cells) if cover is not None else None,
                idp=idp_scan(scaled, h_max),
            )
        )
    return EllReport(ell=found, per_ell=tuple(rows))
