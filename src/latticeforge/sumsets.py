"""Brute-force sumsets of finite lattice sets and the direct h-fold check.

Nothing here assumes unimodularity or any structural hypothesis: the verdicts
come from enumerating sums and lattice points outright, which is what makes
this module the independent check for every certified result.

Sums run on integers.  A point whose coordinate j, less an offset o_j, lies
in [0, R_j) packs into one int in mixed radix R (coordinate 0 the most
significant digit).  Packing is affine with weights fixed by R, so the sum
of two packed points packs their sum with the offsets added; the radices
are chosen wide enough that no digit of a sum carries.  Sorted packed ints
are then in lexicographic order, and unpacking is exact.  The h-fold sumset
is built as S_h = S_{h-1} + S_1, one set of ints carried across h.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError, LatticeForgeError, ResourceLimitError
from .geometry import LatticePolytope, Point, as_point, dilate, lattice_points

#: Intermediate point sets larger than this abort with a resource error.
POINTSET_CAP = 10**6
#: Guard on the number of pairwise sums evaluated in one sumset step.
PAIR_CAP = 5 * 10**7


def point_set(points: Iterable[Sequence[int]]) -> tuple:
    """Deduplicated, lexicographically sorted tuple of lattice points."""
    pts = sorted(set(as_point(p) for p in points))
    if pts:
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise DimensionMismatchError(f"mixed point dimensions: {sorted(dims)}")
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

    def unpack(self, values: Iterable[int], offset: Sequence[int]) -> tuple:
        digits = list(zip(self.weights, self.radices, offset))
        return tuple(tuple(v // w % r + o for w, r, o in digits) for v in values)


def _bounds(points: Sequence[Point]) -> tuple:
    """Per-coordinate (minima, maxima) of a nonempty point set."""
    cols = list(zip(*points))
    return [min(c) for c in cols], [max(c) for c in cols]


def _add(s, t) -> set:
    """{a + b : a in s, b in t} for packed points, under both caps."""
    if len(s) * len(t) > PAIR_CAP:
        raise ResourceLimitError("sumset would evaluate too many pairs")
    outer, inner = (s, t) if len(s) <= len(t) else (t, s)
    out = set()
    for a in outer:
        out.update(map(a.__add__, inner))
        if len(out) > POINTSET_CAP:
            raise ResourceLimitError(f"sumset exceeded the {POINTSET_CAP}-point cap")
    return out


def _hfold_radix(base: Sequence[Point], h_max: int) -> tuple:
    """(radix, lo) for sums of up to h_max points of the nonempty set `base`.

    With lo and hi the per-coordinate bounds of `base`, a sum of h points
    less h*lo has digit j in [0, h_max*(hi_j - lo_j)], below its radix.
    """
    lo, hi = _bounds(base)
    return _Radix([h_max * (b - a) + 1 for a, b in zip(lo, hi)]), lo


def _hfold_sums(packed: Sequence[int], h_max: int):
    """S_1, ..., S_{h_max} of packed points, S_h = S_{h-1} + S_1 as sets of ints."""
    summed = set(packed)
    yield summed
    for _ in range(h_max - 1):
        summed = _add(summed, packed)
        yield summed


def sumset(s: Sequence[Point], t: Sequence[Point]) -> tuple:
    """{a + b : a in s, b in t}, deduplicated and sorted."""
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
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise ValueError(f"number of summands must be a positive integer, got {h!r}")
    base = point_set(s)
    if not base:
        return ()
    radix, lo = _hfold_radix(base, h)
    for summed in _hfold_sums(radix.pack(base, lo), h):
        pass
    return radix.unpack(sorted(summed), [h * a for a in lo])


@dataclass(frozen=True)
class IdpReport:
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


def _idp_report(p: LatticePolytope, h: int, radix: _Radix, lo, summed: set, base) -> IdpReport:
    """Compare the packed h-fold sumset with the packed lattice points of h*p.

    `base` is the lattice points of p, which are those of h*p when h = 1.
    Every lattice point of h*p lies in h times the bounding box of p's lattice
    points, so it packs with the sumset's radix and offset h*lo.
    """
    offset = [h * a for a in lo]
    dilated = radix.pack(base if h == 1 else lattice_points(dilate(p, h)), offset)
    # packing keeps lexicographic order, so the witnesses come out sorted
    missing = [v for v in dilated if v not in summed]
    if len(dilated) - len(missing) != len(summed):
        # A sum of lattice points always lies in the dilated hull; reaching
        # here means enumeration or summation is broken, not mathematics.
        raise LatticeForgeError("sumset escaped the dilated hull: implementation bug")
    witnesses = radix.unpack(missing, offset)
    return IdpReport(
        h=h,
        holds=not witnesses,
        witnesses=witnesses,
        sum_size=len(summed),
        dilate_size=len(dilated),
    )


def idp_check(p: LatticePolytope, h: int) -> IdpReport:
    """Brute-force comparison of h * (lattice points) against the h-dilate."""
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise ValueError(f"number of summands must be a positive integer, got {h!r}")
    base = lattice_points(p)
    radix, lo = _hfold_radix(base, h)
    for summed in _hfold_sums(radix.pack(base, lo), h):
        pass
    return _idp_report(p, h, radix, lo, summed, base)


def idp_scan(p: LatticePolytope, h_max: int) -> tuple:
    """idp_check for every h = 1..h_max, in order, each sumset built once."""
    return _idp_scan(p, h_max, None)


def _idp_scan(p: LatticePolytope, h_max: int, base: Optional[tuple]) -> tuple:
    """idp_scan, given p's lattice points `base` when the caller has enumerated them."""
    if not isinstance(h_max, int) or isinstance(h_max, bool) or h_max < 1:
        raise ValueError(f"h_max must be a positive integer, got {h_max!r}")
    reports = []
    try:
        if base is None:
            base = lattice_points(p)
        radix, lo = _hfold_radix(base, h_max)
        for h, summed in enumerate(_hfold_sums(radix.pack(base, lo), h_max), 1):
            reports.append(_idp_report(p, h, radix, lo, summed, base))
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
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise ValueError(f"number of parts must be a positive integer, got {h!r}")
    if math.comb(len(pts) + h - 1, h) > POINTSET_CAP:
        raise ResourceLimitError("multiset search space exceeds the desk-scale cap")
    for combo in itertools.combinations_with_replacement(pts, h):
        total = tuple(sum(c) for c in zip(*combo))
        if total == target:
            return combo
    return None
