"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them on
success) and enforces its wall-clock budget.
"""

import functools
import itertools
import random
import time

from helpers import fraction_affine_basis, multiset_decompositions, random_unimodular_simplex
from latticeforge import (
    LatticePolytope,
    decompose,
    decompose_in_simplex,
    dilate,
    find_ell,
    find_unimodular_triangulation,
    hfold_sumset,
    hnf_diagonal,
    idp_check,
    idp_scan,
    is_unimodular,
    lattice_index,
    lattice_points,
)
from latticeforge.fixtures import reeve_simplex, std_simplex, stretched_simplex, unit_cube, unit_square


def criterion(name, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL [{name}]")
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < budget_s, f"{name}: {elapsed:.1f}s exceeded the {budget_s}s budget"
            print(f"ACCEPTANCE PASS [{name}] ({elapsed:.2f}s)")
        return wrapper
    return deco


@criterion("stretched-simplex fixture: points, index, hnf diagonal", budget_s=1)
def test_stretched_simplex_fixture():
    p = stretched_simplex()
    assert lattice_points(p) == ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (1, 0, 0))
    s = p.as_simplex()
    assert lattice_index(s) == 2
    assert hnf_diagonal(s) == (1, 1, 2)


@criterion("reeve simplex fixture: points are vertices, index 2", budget_s=1)
def test_reeve_simplex_fixture():
    p = reeve_simplex()
    assert lattice_points(p) == p.vertices
    assert set(lattice_points(p)) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)}
    s = p.as_simplex()
    assert lattice_index(s) == 2
    assert not is_unimodular(s)


@criterion("counterexample: doubled reeve simplex misses (1,1,1)", budget_s=1)
def test_reeve_counterexample_with_independent_oracle():
    p = reeve_simplex()
    report = idp_check(p, 2)
    assert not report.holds
    assert (1, 1, 1) in report.witnesses
    # independent exhaustive check over all 2-multisets of the 4 points
    pts = lattice_points(p)
    assert multiset_decompositions(pts, (1, 1, 1), 2) == []
    for q in lattice_points(dilate(p, 2)):
        decomposable = bool(multiset_decompositions(pts, q, 2))
        assert decomposable == (q not in report.witnesses)


@criterion("unimodular decomposition: 100+ random simplices, h <= 4", budget_s=60)
def test_unimodular_simplex_decomposition_exhaustive():
    rng = random.Random(20260810)
    plan = [(2, 8, 40), (3, 6, 35), (4, 4, 30)]  # (dim, spread, count) -> 105 simplices
    assert sum(c for _, _, c in plan) >= 100
    for dim, spread, count in plan:
        for _ in range(count):
            s = random_unimodular_simplex(rng, dim, spread)
            hull = s.hull()
            for h in range(1, 5):
                enumerated = lattice_points(dilate(hull, h))
                summed = set()
                for combo in itertools.combinations_with_replacement(s.vertices, h):
                    summed.add(tuple(sum(c) for c in zip(*combo)))
                assert summed == set(enumerated)
                for p in enumerated:
                    d = decompose_in_simplex(s, p, h)
                    assert len(d.parts) == h
                    assert tuple(sum(c) for c in zip(*d.parts)) == p
                    assert sum(w for _, w in d.weights) == h


@criterion("certificate vs direct check on simplices, square, cube", budget_s=30)
def test_certificate_oracle_agreement():
    cases = [std_simplex(n) for n in (1, 2, 3, 4)] + [unit_square(), unit_cube(3)]
    for p in cases:
        cover = find_unimodular_triangulation(p)
        assert cover is not None and cover.certified == "certified"
        assert all(is_unimodular(c) for c in cover.cells)
        assert all(r.holds for r in idp_scan(p, 4))
    cube_cover = find_unimodular_triangulation(unit_cube(3))
    assert len(cube_cover.cells) == 6
    assert all(lattice_index(c) == 1 for c in cube_cover.cells)


@criterion("every decomposition has independent support and weights", budget_s=60)
def test_decomposition_support_clause():
    rng = random.Random(424242)
    checked = 0
    # via certified covers on the fixture polytopes
    for p in (std_simplex(2), std_simplex(3), unit_square(), unit_cube(3)):
        cover = find_unimodular_triangulation(p)
        base = set(lattice_points(p))
        for h in (1, 2, 3):
            for point in lattice_points(dilate(p, h)):
                d = decompose(p, cover, point, h)
                weights = [w for _, w in d.weights]
                assert all(isinstance(w, int) and w >= 0 for w in weights)
                assert sum(weights) == h
                assert len(d.parts) == h
                assert set(d.parts) <= base
                support = [v for v, w in d.weights if w > 0]
                assert fraction_affine_basis(support) == support
                checked += 1
    # and straight from random unimodular simplices
    for _ in range(20):
        dim = rng.choice((2, 3))
        s = random_unimodular_simplex(rng, dim, spread=5)
        for h in (1, 2, 3):
            for point in lattice_points(dilate(s.hull(), h)):
                d = decompose_in_simplex(s, point, h)
                support = [v for v, w in d.weights if w > 0]
                assert fraction_affine_basis(support) == support
                assert all(w >= 0 for _, w in d.weights)
                assert sum(w for _, w in d.weights) == h
                checked += 1
    assert checked > 500


@criterion("sums of lattice points always land in the dilate (200+ random)", budget_s=120)
def test_inclusion_never_fails():
    rng = random.Random(9001)
    built = 0
    while built < 200:
        dim = rng.choice((1, 2, 2, 3, 3))
        npts = rng.randint(2, 6 if dim == 3 else 8)
        pts = {tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(npts)}
        p = LatticePolytope(pts)
        base = lattice_points(p)
        for h in (1, 2, 3):
            left = hfold_sumset(base, h)
            right = set(lattice_points(dilate(p, h)))
            assert set(left) <= right
        built += 1


@criterion("dilation-factor probe on the reeve simplex", budget_s=300)
def test_dilation_probe_reeve_simplex():
    report = find_ell(reeve_simplex(), ell_max=4, h_max=3, attempts=20, seed=0)
    rows = report.per_ell
    assert [row.ell for row in rows] == [1, 2, 3, 4]
    # the ell = 1 row must record the h = 2 failure; with only 4 lattice
    # points the triangulation is unique, so the status is a proof
    assert rows[0].certificate == "impossible"
    assert rows[0].idp[0].holds
    assert not rows[0].idp[1].holds
    assert (1, 1, 1) in rows[0].idp[1].witnesses
    # certificate and direct check must agree on every row: a certified
    # triangulation forces every h to hold
    for row in rows:
        if row.certificate == "certified":
            assert all(r.holds for r in row.idp)
    # the smallest certified factor, when found, is consistent
    if report.ell is not None:
        assert rows[report.ell - 1].certificate == "certified"
        assert all(r.holds for r in rows[report.ell - 1].idp)
    else:
        assert all(row.certificate != "certified" for row in rows)
