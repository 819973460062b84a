import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    _hull_feasible,
    caratheodory_contains,
    random_polytope,
    random_rational_point,
    random_unimodular_simplex,
)
from latticeforge import (
    DimensionMismatchError,
    LatticePolytope,
    LatticeSimplex,
    ResourceLimitError,
    barycentric,
    contains,
    dilate,
    is_affinely_independent,
    lattice_points,
)
from latticeforge import lp
from latticeforge.errors import DegeneratePolytopeError
from latticeforge.fixtures import reeve_simplex, stretched_simplex, unit_cube, unit_square


class TestAffineIndependence:
    def test_standard_basis(self):
        assert is_affinely_independent([(0, 0), (1, 0), (0, 1)])

    def test_collinear(self):
        assert not is_affinely_independent([(0, 0), (1, 0), (2, 0)])

    def test_reeve_vertices(self):
        assert is_affinely_independent([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            is_affinely_independent([(0, 0), (1, 0, 0)])

    def test_single_point(self):
        assert is_affinely_independent([(3, 4)])


class TestSimplex:
    def test_too_few_vertices(self):
        with pytest.raises(DimensionMismatchError):
            LatticeSimplex([(0, 0), (1, 0)])

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePolytopeError):
            LatticeSimplex([(0, 0), (1, 0), (2, 0)])

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            LatticeSimplex([(0.0, 0), (1, 0), (0, 1)])


class TestBarycentric:
    def test_vertex(self):
        s = LatticeSimplex([(2, 3), (5, 3), (2, 7)])
        assert s.barycentric((2, 3)) == (1, 0, 0)

    def test_centroid(self):
        s = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        third = Fraction(1, 3)
        assert barycentric(s, (third, third)) == (third, third, third)

    def test_reeve_half_point(self):
        s = LatticeSimplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
        q = (Fraction(1, 2),) * 3
        assert s.barycentric(q) == (Fraction(1, 4),) * 4

    def test_sum_one_and_recombination(self):
        rng = random.Random(7)
        for _ in range(150):
            dim = rng.randint(1, 4)
            s = random_unimodular_simplex(rng, dim, spread=6)
            q = random_rational_point(rng, dim)
            t = s.barycentric(q)
            assert sum(t) == 1
            recombined = tuple(
                sum(ti * Fraction(v[j]) for ti, v in zip(t, s.vertices)) for j in range(dim)
            )
            assert recombined == q

    def test_membership_iff_all_nonnegative(self):
        s = LatticeSimplex([(0, 0), (2, 0), (0, 2)])
        assert s.contains_point((Fraction(1, 2), Fraction(1, 2)))
        assert not s.contains_point((Fraction(3), Fraction(3)))
        assert any(t < 0 for t in s.barycentric((3, 3)))


class TestContains:
    def test_vertices_belong(self):
        p = unit_square()
        for v in p.vertices:
            assert contains(p, v)

    def test_square_center(self):
        assert contains(unit_square(), (Fraction(1, 2), Fraction(1, 2)))

    def test_square_outside(self):
        assert not contains(unit_square(), (Fraction(3, 2), Fraction(1, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            contains(unit_square(), (1, 1, 1))

    def test_matches_caratheodory_oracle_low_dim(self):
        rng = random.Random(42)
        for _ in range(60):
            dim = rng.choice((1, 2, 3))
            p = random_polytope(rng, dim, bound=3, max_points=7)
            for _ in range(6):
                q = random_rational_point(rng, dim, bound=4, denominator_max=3)
                assert contains(p, q) == caratheodory_contains(p.vertices, q)

    def test_matches_caratheodory_oracle_dim4(self):
        rng = random.Random(43)
        lp_route = 0
        for _ in range(12):
            p = random_polytope(rng, 4, bound=2, max_points=9)
            if p.as_simplex() is None:
                lp_route += 1
            for _ in range(4):
                q = random_rational_point(rng, 4, bound=3, denominator_max=2)
                assert contains(p, q) == caratheodory_contains(p.vertices, q)
        assert lp_route >= 3  # the rational-simplex path was actually exercised

    def test_facet_route_agrees_with_lp_route(self):
        rng = random.Random(44)
        for _ in range(40):
            dim = rng.choice((2, 3))
            p = random_polytope(rng, dim, bound=3, max_points=7)
            for _ in range(5):
                q = random_rational_point(rng, dim, bound=4, denominator_max=3)
                via_lp = _hull_feasible(p.vertices, q, dim)
                assert contains(p, q) == via_lp


class TestFourierMotzkin:
    def test_unit_square_facets(self):
        facets = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)]).facets()
        assert set(facets) == {((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1)}

    def test_degenerate_segment_gets_equality_pair(self):
        facets = LatticePolytope([(0, 0), (2, 0)]).facets()
        assert ((0, 1), 0) in facets and ((0, -1), 0) in facets

    def test_single_point(self):
        facets = LatticePolytope([(3, -1)]).facets()
        def member(q):
            return all(a[0] * q[0] + a[1] * q[1] <= b for a, b in facets)
        assert member((3, -1))
        assert not member((3, 0))


class TestMembershipLPCount:
    """Exact count of LP solves on the membership path: building a polytope,
    testing its vertices and enumerating its lattice points use the integer
    facet system alone."""

    def test_no_lp_solves(self, monkeypatch):
        calls = []
        original = lp.solve_min

        def counting(c, a, b):
            calls.append(len(a))
            return original(c, a, b)

        monkeypatch.setattr(lp, "solve_min", counting)
        cases = (
            (lambda: unit_cube(4), 16),
            (lambda: dilate(unit_cube(3), 2), 27),
            (reeve_simplex, 4),
            (lambda: LatticePolytope([(0, 0, 0), (3, 3, 3)]), 4),
        )
        for build, count in cases:
            p = build()
            assert all(contains(p, v) for v in p.vertices)
            assert len(lattice_points(p)) == count
        assert calls == []


class TestHullKernelAgainstLP:
    """Vertices, membership and lattice points from the integer facet system
    against exact LP feasibility, on seeded point sets in dimensions 1-5,
    about a third of them generated flat."""

    def _points(self, rng, dim, flat):
        if not flat:
            return [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 7))]
        # integer affine combinations of at most dim points stay in their affine hull
        span = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, dim))]
        pts = list(span)
        for _ in range(rng.randint(0, 5)):
            coeffs = [rng.randint(-1, 2) for _ in span[1:]]
            q = tuple(
                a + sum(c * (s[j] - a) for c, s in zip(coeffs, span[1:]))
                for j, a in enumerate(span[0])
            )
            if all(-2 <= x <= 2 for x in q):
                pts.append(q)
        return pts

    def test_random_point_sets(self):
        rng = random.Random(2024)
        flats = 0
        for k in range(60):
            dim = 1 + k % 5
            p = LatticePolytope(self._points(rng, dim, flat=rng.random() < 1 / 3))
            flats += not p.is_full_dimensional()
            gens = p.generators
            oracle_vertices = tuple(
                g for i, g in enumerate(gens)
                if not _hull_feasible(gens[:i] + gens[i + 1 :], tuple(map(Fraction, g)), dim)
            )
            assert p.vertices == oracle_vertices, gens
            queries = [random_rational_point(rng, dim, bound=3, denominator_max=3) for _ in range(3)]
            for _ in range(4):
                g, h = rng.choice(gens), rng.choice(gens)
                t = Fraction(rng.randint(-2, 5), 3)
                queries.append(tuple(t * a + (1 - t) * b for a, b in zip(g, h)))
            for q in queries:
                assert contains(p, q) == _hull_feasible(p.vertices, q, dim), (gens, q)
            if dim <= 3:
                mins, maxs = p.bounding_box()
                box = itertools.product(*(range(lo, hi + 1) for lo, hi in zip(mins, maxs)))
                expected = tuple(x for x in box if _hull_feasible(p.vertices, x, dim))
                assert lattice_points(p) == expected, gens
        assert flats >= 12


class TestDilate:
    def test_identity(self):
        p = unit_square()
        assert dilate(p, 1) == p

    def test_square_doubled(self):
        assert dilate(unit_square(), 2).vertices == ((0, 0), (0, 2), (2, 0), (2, 2))

    def test_reeve_doubled(self):
        assert dilate(reeve_simplex(), 2).vertices == ((0, 0, 0), (0, 2, 0), (2, 0, 0), (2, 2, 4))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            dilate(unit_square(), 0)
        with pytest.raises(ValueError):
            dilate(unit_square(), -1)

    def test_composition(self):
        rng = random.Random(3)
        for _ in range(25):
            p = random_polytope(rng, rng.choice((1, 2, 3)))
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            assert dilate(dilate(p, a), b).vertices == dilate(p, a * b).vertices


class TestLatticePoints:
    def test_stretched_simplex(self):
        assert lattice_points(stretched_simplex()) == (
            (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (1, 0, 0),
        )

    def test_reeve_simplex_vertices_only(self):
        p = reeve_simplex()
        assert lattice_points(p) == p.vertices

    def test_unit_square_corners(self):
        assert lattice_points(unit_square()) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_lexicographic_order(self):
        pts = lattice_points(unit_cube(3))
        assert list(pts) == sorted(pts)

    def test_degenerate_polytopes_enumerate(self):
        # a segment embedded in Z^2 and a triangle flat in Z^3
        seg = LatticePolytope([(0, 0), (3, 0)])
        assert lattice_points(seg) == ((0, 0), (1, 0), (2, 0), (3, 0))
        tri = LatticePolytope([(0, 0, 1), (2, 0, 1), (0, 2, 1)])
        assert lattice_points(tri) == (
            (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 1, 1), (2, 0, 1),
        )

    def test_unimodular_simplex_has_no_extra_points(self):
        rng = random.Random(11)
        for _ in range(40):
            dim = rng.choice((2, 3, 4))
            s = random_unimodular_simplex(rng, dim, spread=5)
            assert lattice_points(s.hull()) == tuple(sorted(s.vertices))

    def test_box_cap(self):
        p = LatticePolytope([(0, 0, 0), (1000, 1000, 1000)])
        with pytest.raises(ResourceLimitError):
            lattice_points(p)

    def test_dim_cap(self):
        with pytest.raises(ResourceLimitError):
            LatticePolytope([tuple(0 for _ in range(9)), tuple(1 for _ in range(9))])


class TestVertexExtraction:
    def test_interior_generator_dropped(self):
        p = LatticePolytope([(0, 0), (2, 0), (0, 2), (1, 1), (0, 1)])
        assert p.vertices == ((0, 0), (0, 2), (2, 0))
        assert set(p.vertices) <= set(p.generators)

    def test_single_point(self):
        p = LatticePolytope([(5, -2)])
        assert p.vertices == ((5, -2),)
        assert lattice_points(p) == ((5, -2),)

    def test_duplicates_collapse(self):
        p = LatticePolytope([(0, 0), (0, 0), (1, 0)])
        assert p.generators == ((0, 0), (1, 0))

    def test_all_generators_in_hull(self):
        rng = random.Random(13)
        for _ in range(30):
            p = random_polytope(rng, rng.choice((2, 3)))
            for g in p.generators:
                assert contains(p, g)


class TestMembershipTriangulationCrossCheck:
    def test_contains_iff_in_some_cell(self):
        # membership must agree with cell membership in a triangulation
        from latticeforge import placing_triangulation

        rng = random.Random(21)
        done = 0
        while done < 25:
            dim = rng.choice((2, 3))
            p = random_polytope(rng, dim, bound=3, max_points=7)
            if not p.is_full_dimensional():
                continue
            cover = placing_triangulation(p)
            for _ in range(8):
                q = random_rational_point(rng, dim, bound=4, denominator_max=3)
                in_cells = any(c.contains_point(q) for c in cover.cells)
                assert contains(p, q) == in_cells
            done += 1
