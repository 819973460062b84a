"""Brute-force sumsets of finite lattice sets and the direct h-fold check.

Nothing here assumes unimodularity or any structural hypothesis: the verdicts
come from enumerating sums and lattice points outright, which is what makes
this module the independent check for every certified result.

Sums run on integers.  A point whose coordinate j, less an offset o_j, lies
in [0, R_j) packs into one int in mixed radix R (coordinate 0 the most
significant digit).  Packing is affine with weights fixed by R, so the sum
of two packed points packs their sum with the offsets added; the radices
are chosen wide enough that no digit of a sum carries.  Sorted packed ints
are then in lexicographic order, and unpacking is exact.

`sumset` and `hfold_sumset` take arbitrary sets, whose box can dwarf the
set, so they keep sets of packed ints.  The IDP check enumerates the
dilate's box anyway, so it keeps bitsets (bit v set iff v packs a member):
S_h = OR over a in S_1 of S_{h-1} << a, carried across h.  A dilate below
the dimension d of a full-dimensional P is enumerated by geometry over the
rows that enumerated P (its projections' rows, scaled to (a, h*b)), setting
the bits of its runs of consecutive packed values as it finds them.
From h = max(d, 2) on, the dilate is built by the same shift-OR from the
one before it: every lattice point of hP is one of (h-1)P plus one of P
when h - 1 >= d - 1 (Bruns, Gubeladze and Trung, J. reine angew. Math. 485,
1997), and each sum of such points lies in hP.  Once the sums S_{h-1} fill
L((h-1)P), both shift-ORs read the same int, so the sumset just built is
the dilate and the step shifts once.  The built set is then
checked against the Ehrhart count |L(hP)|, which it can only match by
being all of L(hP).  Each set is counted once per h; the guard that no
sum escapes the dilate (S_h & ~dilate) is one int operation, and when the
counts differ the witnesses (dilate & ~S_h) are read from that int's
non-zero bytes, low byte first, which is lexicographic order.

Every bitset spans the box of h_top*P.  The scan (_idp_reports) picks a
thin P's frame itself (geometry._frame): the image U*P under a unimodular
U, LLL-reduced under P's width form, whose box is smaller at every h.  U
is a lattice isomorphism, so the sizes and verdicts are P's.  Witnesses
are unpacked a coordinate at a time, one list per coordinate; a frame's
are mapped to x = U^-1 y one row of U^-1 at a time on those lists and then
sorted, so the reports are those of the scan in P's own coordinates.  The
box cap applies to the frame's box, so an h the scan in P's box reached is
reached in the frame too; P's lattice points are still enumerated in P's
own box, under its cap.  h is capped at isqrt(BOX_CAP) as well, a bound
that binds only boxes growing in at most one coordinate.
"""
from __future__ import annotations

import itertools
import math
from operator import add, mul
from typing import Iterable, NamedTuple, Optional, Sequence

from . import geometry
from .errors import DimensionMismatchError, LatticeForgeError, ResourceLimitError
from .geometry import (
    LatticePolytope,
    Point,
    _bounds,
    _box_cells,
    _check_box,
    _check_positive,
    _check_uniform,
    _frame,
    _lattice_runs,
    _projection_rows,
    _scale_rows,
    as_point,
    lattice_points,
    normalized_volume,
)

#: Intermediate point sets larger than this abort with a resource error.
POINTSET_CAP = 10**6
#: Guard on one sumset step, |S_{h-1}|*|S_1| pairs.  A bitset step shifts
#: S_{h-1} once per point of S_1 instead, but the bound is kept as it was so
#: that the same inputs are refused.
PAIR_CAP = 5 * 10**7


def point_set(points: Iterable[Sequence[int]]) -> tuple:
    """Deduplicated, lexicographically sorted tuple of lattice points."""
    pts = sorted(set(as_point(p) for p in points))
    if pts:
        _check_uniform(pts)
    return tuple(pts)


class _Radix:
    """Mixed-radix packing of lattice points into ints, radix R_j for coordinate j."""

    __slots__ = ("radices", "weights")

    def __init__(self, radices: Sequence[int]):
        self.radices = tuple(radices)
        weights = [1]
        for r in reversed(self.radices[1:]):
            weights.append(weights[-1] * r)
        self.weights = tuple(reversed(weights))

    def pack(self, points: Iterable[Point], offset: Sequence[int]) -> list:
        weights = self.weights
        shift = sum(map(mul, offset, weights))
        return [sum(map(mul, x, weights)) - shift for x in points]

    def columns(self, values: Sequence[int], offset: Sequence[int]) -> list:
        """Coordinate j of the points packed as `values`, one list per j."""
        return [[v // w % r + o for v in values] for w, r, o in zip(self.weights, self.radices, offset)]

    def unpack(self, values: Sequence[int], offset: Sequence[int]) -> tuple:
        return tuple(zip(*self.columns(values, offset)))


def _map_columns(rows: Sequence[Sequence[int]], columns: Sequence[list]) -> list:
    """The coordinate lists of rows * y, for the points y whose coordinate
    lists are `columns`: one row at a time, zero entries skipped; no row of
    an invertible matrix is all zero."""
    out = []
    for row in rows:
        acc = None
        for c, col in zip(row, columns):
            if c:
                term = col if c == 1 else list(map(c.__mul__, col))
                acc = term if acc is None else list(map(add, acc, term))
        out.append(acc)
    return out


def _check_pairs(m: int, n: int) -> None:
    if m * n > PAIR_CAP:
        raise ResourceLimitError("sumset would evaluate too many pairs")


def _check_points(n: int) -> None:
    if n > POINTSET_CAP:
        raise ResourceLimitError(f"sumset exceeded the {POINTSET_CAP}-point cap")


def _add(s, t) -> set:
    """{a + b : a in s, b in t} for packed points, under both caps."""
    _check_pairs(len(s), len(t))
    outer, inner = (s, t) if len(s) <= len(t) else (t, s)
    out = set()
    for a in outer:
        out.update(map(a.__add__, inner))
        _check_points(len(out))
    return out


def _hfold_radix(lo: Sequence[int], hi: Sequence[int], h_max: int) -> _Radix:
    """The radix for sums of up to h_max points in the box [lo, hi]: a sum of
    h of them less h*lo has digit j in [0, h_max*(hi_j - lo_j)], below R_j."""
    return _Radix([h_max * (b - a) + 1 for a, b in zip(lo, hi)])


def sumset(s: Sequence[Point], t: Sequence[Point]) -> tuple:
    """{a + b : a in s, b in t}, deduplicated and sorted; each operand is read by point_set."""
    s, t = point_set(s), point_set(t)
    if s and t and len(s[0]) != len(t[0]):
        raise DimensionMismatchError("sumset operands live in different dimensions")
    if not s or not t:
        return ()
    (slo, shi), (tlo, thi) = _bounds(s), _bounds(t)
    radix = _Radix([b - a + d - c + 1 for a, b, c, d in zip(slo, shi, tlo, thi)])
    summed = _add(radix.pack(s, slo), radix.pack(t, tlo))
    return radix.unpack(sorted(summed), [a + c for a, c in zip(slo, tlo)])


def hfold_sumset(s: Sequence[Point], h: int) -> tuple:
    """The h-fold sumset of s, built as S_h = S_{h-1} + s."""
    _check_positive(h, "number of summands")
    base = point_set(s)
    if not base:
        return ()
    lo, hi = _bounds(base)
    radix = _hfold_radix(lo, hi, h)
    packed = radix.pack(base, lo)
    summed = set(packed)
    for _ in range(h - 1):
        summed = _add(summed, packed)
    return radix.unpack(sorted(summed), [h * a for a in lo])


class IdpReport(NamedTuple):
    """Per-h verdict: does the h-fold sumset of lattice points fill the dilate?

    `witnesses` lists every lattice point of the h-dilate that is not a sum
    of h lattice points (exhaustive, not first-found); by the one-sided
    inclusion of sums of lattice points this is the only possible gap.
    """

    h: int
    holds: bool
    witnesses: tuple
    sum_size: int
    dilate_size: int


#: bytes.translate table that sends every non-zero byte to 1
_NONZERO = bytes([0]) + bytes([1]) * 255
#: the set bit positions of each byte value, lowest first
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def _bit_indices(x: int) -> list:
    """Positions of the set bits of x >= 0, lowest first.

    Read from x's little-endian bytes, lowest byte first: translate marks
    the non-zero bytes and find jumps from one to the next, at a cost that
    grows with x's width, not its bits set; geometry._bits, for short masks,
    gives the timings of both.
    """
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    marks = data.translate(_NONZERO)
    found = []
    i = marks.find(1)
    while i >= 0:
        found.extend(8 * i + j for j in _BYTE_BITS[data[i]])
        i = marks.find(1, i + 1)
    return found


def _shift_or(x: int, packed: Sequence[int]) -> int:
    """The bitset x + S_1: OR over a in the packed points of S_1 of x << a."""
    out = 0
    for a in packed:
        out |= x << a
    return out


def _next_sum(summed: int, size: int, packed: Sequence[int]) -> tuple:
    """(S_h, |S_h|) from S_{h-1}, its size and the packed points of S_1,
    under both caps, S_h counted once."""
    _check_pairs(size, len(packed))
    out = _shift_or(summed, packed)
    count = out.bit_count()
    _check_points(count)
    return out, count


def _ehrhart_counts(sizes: Sequence[int], volume: int):
    """|L(hP)| for h = d, d + 1, ..., from |L(hP)| for h = 0..d-1 (`sizes`,
    d = len(sizes)) and P's normalized volume.

    |L(hP)| is a polynomial of degree d in h whose leading coefficient is
    the Euclidean volume, so its d-th difference is the normalized volume.
    The table holds the backward differences at the last h, orders 0..d;
    each step adds every order's successor into it, top order first.
    """
    table = []
    for size in sizes:
        row = [size]
        for t in table:
            row.append(row[-1] - t)
        table = row
    table.append(volume)
    while True:
        for k in range(len(table) - 2, -1, -1):
            table[k] += table[k + 1]
        yield table[0]


def _idp_reports(p: LatticePolytope, h_max: int, every: bool):
    """IdpReports of p for h = 1..h_max (or only h_max when not `every`), in order.

    The sets below are those of q, _frame(p)'s U*P for a thin p and p
    otherwise; a frame's witnesses are mapped back to P's coordinates.

    h*q is enumerated over the rows of q's coordinate projections
    (_projection_rows, the rows its own enumeration read), each scaled to
    (a, h*b).  The radix is that of h_top*q, h_top the largest h <= h_max
    within BOX_CAP and at most isqrt(BOX_CAP), so no bitset is wider.  At
    h_top + 1 the pair cap is checked, then the box cap and the bound on h
    raised.  A box with two or more positive widths has (h+1)^2 cells or
    more, so only boxes growing in at most one coordinate meet the bound.
    A single h (not `every`) over either cap is refused at once, before
    q's lattice points are read.

    With `every` and p full-dimensional, of dimension d, only h = 2..d-1 are
    enumerated.  From h = max(d, 2) on, the dilate is the previous one
    shifted by q's points (_shift_or, under no cap but the box's, as the
    enumeration is), and from h = d on its size must equal the Ehrhart
    count (_ehrhart_counts, from the sizes below d and q's normalized
    volume); a mismatch means the scan is broken, and raises.  When the
    sums at h - 1 equal the dilate there, that shift is the one _next_sum
    has just made, under the sums' caps, and its result is taken as it is;
    the count check and the escape guard still run on it.  Each bitset is
    counted once per h: the sums in _next_sum, the dilate where it is built
    (not at all when it is the sums), and witnesses are read only when the
    counts differ.
    """
    q, inverse = _frame(p) or (p, None)
    mins, maxs = q.bounding_box()
    h_bound = math.isqrt(geometry.BOX_CAP)

    def box(h):
        return [h * a for a in mins], [h * b for b in maxs]

    def refuse(h):
        _check_box(*box(h))
        if h > h_bound:
            raise ResourceLimitError(f"h capped at {h_bound}, got {h}")

    if not every:
        refuse(h_max)
    base = lattice_points(q)
    h_top = 1
    while h_top < min(h_max, h_bound) and _box_cells(*box(h_top + 1)) <= geometry.BOX_CAP:
        h_top += 1
    radix = _hfold_radix(mins, maxs, h_top)
    packed = radix.pack(base, mins)
    # the packed points of h*q lie in [0, h * span], span that of q's top corner
    (span,) = radix.pack([maxs], mins)
    bits = bytearray(span // 8 + 1)
    for v in packed:
        bits[v >> 3] |= 1 << (v & 7)
    summed = dilated = int.from_bytes(bits, "little")
    sum_size = dilate_size = len(base)
    # the dilate sizes below shift_from (one point at h = 0) seed the
    # Ehrhart counts that each dilate from shift_from on must match
    shift_from = p.dim if every and p.is_full_dimensional() else h_max + 1
    sizes, counts = [1], None
    for h in range(1, h_top + 1):
        # S_{h-1} is all of L((h-1)P): the shift-OR below builds L(hP) too
        caught_up = summed == dilated
        if h > 1:
            summed, sum_size = _next_sum(summed, sum_size, packed)
        if not every and h < h_max:
            continue
        if 1 < h < shift_from:
            rows = [_scale_rows(r, h) for r in _projection_rows(q)]
            dilated = _lattice_runs(rows, *box(h), radix.weights)
            dilate_size = dilated.bit_count()
        elif h > 1:
            dilated = summed if caught_up else _shift_or(dilated, packed)
            dilate_size = sum_size if caught_up else dilated.bit_count()
        if h < shift_from:
            sizes.append(dilate_size)
        else:
            if counts is None:
                counts = _ehrhart_counts(sizes, normalized_volume(q))
            count = next(counts)
            if dilate_size != count:
                raise LatticeForgeError(
                    f"dilate at h={h} has {dilate_size} lattice points, "
                    f"its Ehrhart count is {count}: implementation bug"
                )
        if summed & ~dilated:
            # A sum of lattice points always lies in the dilated hull; reaching
            # here means enumeration or summation is broken, not mathematics.
            raise LatticeForgeError("sumset escaped the dilated hull: implementation bug")
        # the sums lie in the dilate, so they fill it iff the counts agree
        witnesses = ()
        if sum_size < dilate_size:
            columns = radix.columns(_bit_indices(dilated & ~summed), [h * a for a in mins])
            # packing keeps lexicographic order, so the witnesses come out
            # sorted; a frame's are mapped back to P's coordinates and sorted there
            if inverse is None:
                witnesses = tuple(zip(*columns))
            else:
                witnesses = tuple(sorted(zip(*_map_columns(inverse, columns))))
        yield IdpReport(
            h=h,
            holds=not witnesses,
            witnesses=witnesses,
            sum_size=sum_size,
            dilate_size=dilate_size,
        )
    if h_top < h_max:
        _check_pairs(sum_size, len(packed))
        refuse(h_top + 1)


def idp_check(p: LatticePolytope, h: int) -> IdpReport:
    """Brute-force comparison of h * (lattice points) against the h-dilate."""
    _check_positive(h, "number of summands")
    return next(_idp_reports(p, h, every=False))


def idp_scan(p: LatticePolytope, h_max: int) -> tuple:
    """idp_check for every h = 1..h_max, in order: each sumset is built from
    the one before, and so, from h = max(dim, 2) on for a full-dimensional
    p, is each dilate."""
    _check_positive(h_max, "h_max")
    reports = []
    try:
        for report in _idp_reports(p, h_max, every=True):
            reports.append(report)
    except ResourceLimitError as exc:
        h = len(reports) + 1
        raise ResourceLimitError(f"resource cap hit at h={h}: {exc}") from exc
    return tuple(reports)


def find_sum_decomposition(
    points: Sequence[Point], target: Sequence[int], h: int
) -> Optional[tuple]:
    """First h-multiset of `points` (lex order) summing to `target`, or None.

    Plain exhaustive search over combinations with repetition; used as the
    assumption-free fallback when no certified cover is available.
    """
    pts = point_set(points)
    target = as_point(target)
    if pts and len(pts[0]) != len(target):
        raise DimensionMismatchError("target dimension does not match the points")
    _check_positive(h, "number of parts")
    if math.comb(len(pts) + h - 1, h) > POINTSET_CAP:
        raise ResourceLimitError("multiset search space exceeds the desk-scale cap")
    for combo in itertools.combinations_with_replacement(pts, h):
        total = tuple(sum(c) for c in zip(*combo))
        if total == target:
            return combo
    return None
