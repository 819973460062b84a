import random

import pytest

from helpers import multiset_decompositions, naive_hfold, random_polytope
from latticeforge import (
    DimensionMismatchError,
    LatticePolytope,
    ResourceLimitError,
    dilate,
    hfold_sumset,
    idp_check,
    idp_scan,
    lattice_points,
    point_set,
    sumset,
)
from latticeforge.fixtures import reeve_simplex, std_simplex, stretched_simplex, unit_square
from latticeforge.geometry import vec_add, vec_scale
from latticeforge.sumsets import find_sum_decomposition


REEVE_VERTICES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2))


class TestPointSet:
    def test_sorted_dedup(self):
        assert point_set([(1, 0), (0, 0), (1, 0)]) == ((0, 0), (1, 0))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            point_set([(1, 0), (1, 0, 0)])


class TestSumset:
    def test_identity_element(self):
        s = point_set([(1, 2), (3, 4)])
        assert sumset(s, ((0, 0),)) == s

    def test_interval_addition(self):
        assert sumset(((0,), (1,)), ((0,), (1,))) == ((0,), (1,), (2,))

    def test_reeve_vertices_pairwise(self):
        got = sumset(REEVE_VERTICES, REEVE_VERTICES)
        # independent oracle: enumerate all 16 ordered pairs directly
        expected = sorted({vec_add(a, b) for a in REEVE_VERTICES for b in REEVE_VERTICES})
        assert list(got) == expected
        assert len(got) == 10

    def test_commutative_associative(self):
        rng = random.Random(15)
        for _ in range(30):
            dim = rng.choice((1, 2, 3))
            def rand_set():
                return point_set(
                    [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
                )
            a, b, c = rand_set(), rand_set(), rand_set()
            assert sumset(a, b) == sumset(b, a)
            assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sumset(((0, 0),), ((0, 0, 0),))


class TestHfoldSumset:
    def test_single_summand(self):
        s = point_set([(2, 1), (0, 0)])
        assert hfold_sumset(s, 1) == s

    def test_progression(self):
        s = ((0, 0), (1, 0))
        assert hfold_sumset(s, 3) == ((0, 0), (1, 0), (2, 0), (3, 0))

    def test_stretched_simplex_double_contains_midpoint_sum(self):
        pts = lattice_points(stretched_simplex())
        doubled = hfold_sumset(pts, 2)
        # (0,0,1) + (0,0,2) computed by direct pair enumeration
        assert (0, 0, 3) in doubled
        assert set(doubled) == {vec_add(a, b) for a in pts for b in pts}

    def test_doubling_matches_naive_iteration(self):
        rng = random.Random(31)
        for _ in range(40):
            dim = rng.choice((1, 2, 3))
            s = point_set(
                [tuple(rng.randint(-2, 3) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
            )
            h = rng.randint(1, 5)
            assert hfold_sumset(s, h) == naive_hfold(s, h)

    def test_split_additivity(self):
        rng = random.Random(32)
        for _ in range(25):
            dim = rng.choice((1, 2))
            s = point_set(
                [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
            )
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            assert hfold_sumset(s, a + b) == sumset(hfold_sumset(s, a), hfold_sumset(s, b))

    def test_h_zero_rejected(self):
        with pytest.raises(ValueError):
            hfold_sumset(((0,),), 0)


class TestIdpCheck:
    def test_h1_always_holds(self):
        rng = random.Random(60)
        for _ in range(20):
            p = random_polytope(rng, rng.choice((1, 2, 3)))
            assert idp_check(p, 1).holds

    def test_standard_simplex_holds(self):
        report = idp_check(std_simplex(3), 2)
        assert report.holds and report.witnesses == ()

    def test_reeve_simplex_fails_at_two(self):
        report = idp_check(reeve_simplex(), 2)
        assert not report.holds
        assert report.witnesses == ((1, 1, 1),)
        assert report.sum_size == 10 and report.dilate_size == 11

    def test_reeve_witness_confirmed_by_multiset_search(self):
        pts = lattice_points(reeve_simplex())
        assert multiset_decompositions(pts, (1, 1, 1), 2) == []
        # every non-witness point of the doubled simplex is a 2-sum
        for q in lattice_points(dilate(reeve_simplex(), 2)):
            found = multiset_decompositions(pts, q, 2)
            assert bool(found) == (q != (1, 1, 1))

    def test_report_invariants(self):
        rng = random.Random(61)
        for _ in range(25):
            p = random_polytope(rng, rng.choice((1, 2)), bound=2, max_points=5)
            h = rng.randint(1, 3)
            report = idp_check(p, h)
            assert report.holds == (report.witnesses == ())
            assert set(report.witnesses) <= set(lattice_points(dilate(p, h)))


class TestIdpScan:
    def test_standard_simplex_all_hold(self):
        assert all(r.holds for r in idp_scan(std_simplex(3), 4))

    def test_reeve_simplex_scan(self):
        reports = idp_scan(reeve_simplex(), 3)
        assert [r.h for r in reports] == [1, 2, 3]
        assert reports[0].holds
        assert not reports[1].holds

    def test_unit_square_all_hold(self):
        assert all(r.holds for r in idp_scan(unit_square(), 3))

    def test_resource_error_names_the_h(self):
        p = LatticePolytope([(0, 0, 0), (120, 120, 120)])
        with pytest.raises(ResourceLimitError, match="h=2"):
            idp_scan(p, 2)


class TestInclusionProperty:
    def test_sums_always_land_in_dilate(self):
        rng = random.Random(88)
        for _ in range(60):
            dim = rng.choice((1, 2, 3))
            p = random_polytope(rng, dim, bound=3, max_points=6)
            base = lattice_points(p)
            for h in (1, 2, 3, 4):
                left = hfold_sumset(base, h)
                assert set(left) <= set(lattice_points(dilate(p, h)))


class TestTranslationInvariance:
    def test_verdicts_and_witnesses_translate(self):
        rng = random.Random(70)
        for _ in range(20):
            dim = rng.choice((2, 3))
            p = random_polytope(rng, dim, bound=2, max_points=5)
            shift = tuple(rng.randint(-4, 4) for _ in range(dim))
            q = p.translate(shift)
            for h in (1, 2, 3):
                a = idp_check(p, h)
                b = idp_check(q, h)
                assert a.holds == b.holds
                translated = tuple(sorted(vec_add(w, vec_scale(shift, h)) for w in a.witnesses))
                assert translated == b.witnesses


class TestFindSumDecomposition:
    def test_finds_valid_parts(self):
        pts = lattice_points(unit_square())
        parts = find_sum_decomposition(pts, (2, 2), 2)
        assert parts == ((1, 1), (1, 1))

    def test_none_when_impossible(self):
        pts = lattice_points(reeve_simplex())
        assert find_sum_decomposition(pts, (1, 1, 1), 2) is None

    def test_target_dimension_mismatch_raises(self):
        # None would claim that no decomposition exists
        with pytest.raises(DimensionMismatchError):
            find_sum_decomposition([(0, 0), (1, 0)], (1, 0, 0), 1)
