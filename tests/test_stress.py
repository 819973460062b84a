"""Heavier randomized cross-checks between independent computation routes."""

import random
from fractions import Fraction

from helpers import (
    _hull_feasible,
    caratheodory_contains,
    placing_cover,
    random_polytope,
    random_rational_point,
    random_simplex,
    triangle_overlap_area2,
)
from latticeforge import (
    IntMatrix,
    LatticePolytope,
    LatticeSimplex,
    contains,
    determinant,
    hermite_normal_form,
    lattice_index,
    lattice_points,
    normalized_volume,
    verify_cover,
)
from latticeforge import lp
from latticeforge.errors import DegeneratePolytopeError
from latticeforge.linalg import _bareiss
from latticeforge.lp import max_min_margin
from latticeforge.unimodular import _interiors_intersect


class TestInteriorDisjointnessOracle:
    """The LP margin test against exact polygon clipping, in the plane."""

    def _random_triangle(self, rng, bound=3):
        while True:
            pts = [tuple(rng.randint(-bound, bound) for _ in range(2)) for _ in range(3)]
            try:
                return LatticeSimplex(pts)
            except DegeneratePolytopeError:
                continue

    def test_random_triangle_pairs(self):
        rng = random.Random(314159)
        for _ in range(250):
            a = self._random_triangle(rng)
            b = self._random_triangle(rng)
            expected = triangle_overlap_area2(a.vertices, b.vertices) > 0
            assert _interiors_intersect(a, b) == expected, (a, b)

    def test_adversarial_contact_configurations(self):
        cases = [
            # shared full edge, opposite sides: disjoint interiors
            (((0, 0), (2, 0), (0, 2)), ((2, 0), (0, 2), (2, 2)), False),
            # shared vertex only
            (((0, 0), (1, 0), (0, 1)), ((0, 0), (-1, 0), (0, -1)), False),
            # identical triangles
            (((0, 0), (2, 0), (0, 2)), ((0, 0), (2, 0), (0, 2)), True),
            # containment
            (((0, 0), (6, 0), (0, 6)), ((1, 1), (2, 1), (1, 2)), True),
            # collinear partial edge contact, bodies on the same side:
            # overlap without any proper edge crossing or strict vertex inside
            (((0, 0), (2, 0), (0, 2)), ((1, 0), (3, 0), (1, 1)), True),
            # far apart
            (((0, 0), (1, 0), (0, 1)), ((5, 5), (6, 5), (5, 6)), False),
        ]
        for va, vb, expected in cases:
            a = LatticeSimplex(va)
            b = LatticeSimplex(vb)
            assert _interiors_intersect(a, b) == expected, (va, vb)
            assert (triangle_overlap_area2(va, vb) > 0) == expected


class TestDisjointnessPrefilterAgainstLP:
    """Bounding-box and separating-facet tests, with their LP fallback,
    against the bare margin LP on every pair, in dimensions 3 and 4."""

    def _check(self, monkeypatch, dim, seed, pairs=300):
        fallbacks = []
        original = lp.max_min_margin

        def counting(ineqs, n):
            fallbacks.append(n)
            return original(ineqs, n)

        monkeypatch.setattr(lp, "max_min_margin", counting)
        rng = random.Random(seed)
        overlaps = 0
        for _ in range(pairs):
            a = random_simplex(rng, dim)
            b = random_simplex(rng, dim)
            rows = a._weight_rows() + b._weight_rows()
            expected = max_min_margin(rows, dim) > 0
            assert _interiors_intersect(a, b) == expected, (a, b)
            overlaps += expected
        # both branches run: some pairs are settled before the LP, some after
        assert 0 < len(fallbacks) < pairs
        assert 0 < overlaps < len(fallbacks)

    def test_random_pairs_dim3(self, monkeypatch):
        self._check(monkeypatch, 3, seed=2718)

    def test_random_pairs_dim4(self, monkeypatch):
        self._check(monkeypatch, 4, seed=1618)


class TestFacetSystemsOnLargerHulls:
    def test_disc_hull_facets_agree_with_lp(self):
        # all lattice points of a radius-3 disc: an 8-vertex polygon
        pts = [
            (x, y)
            for x in range(-3, 4)
            for y in range(-3, 4)
            if x * x + y * y <= 9
        ]
        p = LatticePolytope(pts)
        assert len(p.vertices) == 8
        rng = random.Random(5150)
        for _ in range(120):
            q = random_rational_point(rng, 2, bound=4, denominator_max=5)
            assert contains(p, q) == _hull_feasible(p.vertices, q, 2)

    def test_octahedron_like_hull(self):
        pts = [
            (x, y, z)
            for x in range(-2, 3)
            for y in range(-2, 3)
            for z in range(-2, 3)
            if abs(x) + abs(y) + abs(z) <= 2
        ]
        p = LatticePolytope(pts)
        assert set(p.vertices) == {
            (2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2),
        }
        assert len(lattice_points(p)) == len(pts)
        rng = random.Random(5151)
        for _ in range(60):
            q = random_rational_point(rng, 3, bound=3, denominator_max=3)
            assert contains(p, q) == caratheodory_contains(p.vertices, q)

    def test_membership_on_coarse_hull_with_redundant_generators(self):
        pts = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
        p = LatticePolytope(pts)  # the square [-3,3]^2 from 49 generators
        assert p.vertices == ((-3, -3), (-3, 3), (3, -3), (3, 3))
        assert len(lattice_points(p)) == 49


class TestPlacingTriangulationStress:
    def test_random_orders_always_tile(self):
        rng = random.Random(246)
        done = 0
        while done < 12:
            dim = rng.choice((2, 3))
            p = random_polytope(rng, dim, bound=2, max_points=7)
            if not p.is_full_dimensional():
                continue
            vol = normalized_volume(p)
            pts = list(lattice_points(p))
            for _ in range(4):
                rng.shuffle(pts)
                cover = placing_cover(p, order=pts)
                assert sum(lattice_index(c) for c in cover.cells) == vol
                cert = verify_cover(cover)
                geometry_problems = [
                    m for m in cert.problems if "unimodular" not in m
                ]
                assert geometry_problems == []
                # tiling: every lattice point of the target is in some cell
                for q in lattice_points(p):
                    assert any(c.contains_point(q) for c in cover.cells)
            done += 1


class TestArbitraryPrecision:
    def test_huge_entries_stay_exact(self):
        big = 10**30
        m = IntMatrix([[big, 1], [0, big]])
        assert determinant(m) == big * big
        h, u = hermite_normal_form(m)
        assert m @ u == h
        assert abs(determinant(u)) == 1
        # gcd of the first row is 1, so the column lattice reduces to
        # pivot 1 with the full determinant pushed onto the second pivot
        assert h.diagonal() == (1, big * big)
        assert 0 <= h.data[1][0] < big * big

    def test_huge_simplex_index(self):
        s = LatticeSimplex([(0, 0), (10**20, 0), (0, 10**20)])
        assert lattice_index(s) == 10**40

    def test_adjugate_with_huge_values(self):
        m = IntMatrix([[10**15, 0], [0, 10**15]])
        det, adj = _bareiss(m.data, True)
        assert det == 10**30
        assert IntMatrix(adj) @ m == IntMatrix([[det, 0], [0, det]])
