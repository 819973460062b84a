"""Brute-force sumsets of finite lattice sets and the direct h-fold check.

Nothing here assumes unimodularity or any structural hypothesis: the verdicts
come from enumerating sums and lattice points outright, which is what makes
this module the independent check for every certified result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError, ResourceLimitError
from .geometry import LatticePolytope, Point, as_point, dilate, lattice_points

#: Intermediate point sets larger than this abort with a resource error.
POINTSET_CAP = 10**6
#: Guard on the number of pairwise sums evaluated in one sumset call.
PAIR_CAP = 5 * 10**7


def point_set(points: Iterable[Sequence[int]]) -> tuple:
    """Deduplicated, lexicographically sorted tuple of lattice points."""
    pts = sorted(set(as_point(p) for p in points))
    if pts:
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise DimensionMismatchError(f"mixed point dimensions: {sorted(dims)}")
    return tuple(pts)


def sumset(s: Sequence[Point], t: Sequence[Point]) -> tuple:
    """{a + b : a in s, b in t}, deduplicated and sorted."""
    if s and t and len(s[0]) != len(t[0]):
        raise DimensionMismatchError("sumset operands live in different dimensions")
    if len(s) * len(t) > PAIR_CAP:
        raise ResourceLimitError("sumset would evaluate too many pairs")
    out = set()
    for a in s:
        for b in t:
            out.add(tuple(x + y for x, y in zip(a, b)))
        if len(out) > POINTSET_CAP:
            raise ResourceLimitError(f"sumset exceeded the {POINTSET_CAP}-point cap")
    return tuple(sorted(out))


def hfold_sumset(s: Sequence[Point], h: int) -> tuple:
    """The h-fold sumset of s, computed by repeated doubling."""
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise ValueError(f"number of summands must be a positive integer, got {h!r}")
    base = point_set(s)
    result = None
    power = base
    remaining = h
    while remaining:
        if remaining & 1:
            result = power if result is None else sumset(result, power)
        remaining >>= 1
        if remaining:
            power = sumset(power, power)
    return result


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


def idp_check(p: LatticePolytope, h: int) -> IdpReport:
    """Brute-force comparison of h * (lattice points) against the h-dilate."""
    base = lattice_points(p)
    summed = hfold_sumset(base, h)
    dilated = lattice_points(dilate(p, h))
    summed_set = set(summed)
    dilated_set = set(dilated)
    if not summed_set <= dilated_set:
        # A sum of lattice points always lies in the dilated hull; reaching
        # here means enumeration or summation is broken, not mathematics.
        raise AssertionError("sumset escaped the dilated hull: implementation bug")
    witnesses = tuple(sorted(dilated_set - summed_set))
    return IdpReport(
        h=h,
        holds=not witnesses,
        witnesses=witnesses,
        sum_size=len(summed),
        dilate_size=len(dilated),
    )


def idp_scan(p: LatticePolytope, h_max: int) -> tuple:
    """idp_check for every h = 1..h_max, in order."""
    if not isinstance(h_max, int) or isinstance(h_max, bool) or h_max < 1:
        raise ValueError(f"h_max must be a positive integer, got {h_max!r}")
    reports = []
    for h in range(1, h_max + 1):
        try:
            reports.append(idp_check(p, h))
        except ResourceLimitError as exc:
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
