import itertools
import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import (
    _cell_facet,
    _facet_normal,
    _hull_feasible,
    box_rows,
    box_rows_lattice_points,
    box_scan_lattice_points,
    caratheodory_contains,
    cofactor_determinant,
    cofactor_facet_normal,
    elimination_placing_cells,
    extremes_first,
    fraction_affine_basis,
    fraction_rank_of_rows,
    hull_projection_rows,
    hull_unit_cube,
    identity,
    matmul,
    pairwise_bitset,
    placing_cover,
    random_point_set,
    random_polytope,
    random_rational_point,
    random_simplex,
    random_shear,
    random_unimodular_simplex,
    recursive_lattice_runs,
    rehull_dilate,
    sorted_placing_hull,
    width_form,
)
from latticeforge import (
    DimensionMismatchError,
    LatticePolytope,
    LatticeSimplex,
    ResourceLimitError,
    contains,
    dilate,
    lattice_points,
    normalized_volume,
)
from latticeforge import find_ell, find_unimodular_triangulation, geometry, linalg, lp, unimodular
from latticeforge.errors import DegeneratePolytopeError
from latticeforge.geometry import (
    FRAME_RATIO,
    _box_cells,
    _box_shrinks,
    _frame,
    _lattice_runs,
    _placing_cells,
    _primitive_row,
    _projection_rows,
    vec_dot,
    vec_scale,
    vec_sub,
)
from latticeforge.fixtures import reeve_simplex, stretched_simplex, unit_cube, unit_square


class TestAffineIndependence:
    """Affine independence as the tests read it (fraction_affine_basis keeps
    every point) and as LatticeSimplex enforces it on its vertices."""

    def test_standard_basis(self):
        points = [(0, 0), (1, 0), (0, 1)]
        assert fraction_affine_basis(points) == points
        assert LatticeSimplex(points).det == 1

    def test_collinear(self):
        points = [(0, 0), (1, 0), (2, 0)]
        assert fraction_affine_basis(points) == points[:2]
        with pytest.raises(DegeneratePolytopeError, match="affinely dependent"):
            LatticeSimplex(points)

    def test_reeve_vertices(self):
        points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]
        assert fraction_affine_basis(points) == points
        assert LatticeSimplex(points).det == 2

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError, match="mixed point dimensions"):
            LatticeSimplex([(0, 0), (1, 0, 0), (0, 1)])

    def test_single_point(self):
        assert fraction_affine_basis([(3, 4)]) == [(3, 4)]


class TestSimplex:
    def test_too_few_vertices(self):
        with pytest.raises(DimensionMismatchError):
            LatticeSimplex([(0, 0), (1, 0)])

    def test_empty_point_rejected(self):
        for build in (LatticeSimplex, LatticePolytope):
            with pytest.raises(DimensionMismatchError, match="^points must have dimension >= 1$"):
                build([()])

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePolytopeError):
            LatticeSimplex([(0, 0), (1, 0), (2, 0)])

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            LatticeSimplex([(0.0, 0), (1, 0), (0, 1)])


class TestSimplexDeterminant:
    """LatticeSimplex's det, one elimination on its difference rows, against
    linalg.determinant of the difference matrix (columns v_i - v_0, passed
    as rows) and the cofactor expansion in dims 1-8; dependent vertices and
    an over-cap dimension raise the errors they raised when the matrix came
    first."""

    def test_random_simplices(self):
        rng = random.Random(1313)
        signs = set()
        for dim in range(1, 9):
            for _ in range(16 if dim < 7 else 3):
                s = random_simplex(rng, dim)
                diffs = [tuple(a - b for a, b in zip(v, s.vertices[0])) for v in s.vertices[1:]]
                matrix = list(zip(*diffs))
                assert s.det == linalg.determinant(matrix)
                assert s.det == cofactor_determinant(matrix)
                signs.add(s.det > 0)
        assert signs == {True, False}

    def test_dependent_vertices(self):
        rng = random.Random(1314)
        checked = 0
        for dim in range(2, 9):
            for _ in range(10):
                verts = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)]
                # an integer affine combination of the others: dependent, and distinct
                c = [rng.randint(-2, 2) for _ in verts[1:]]
                extra = tuple(
                    a + sum(k * (v[j] - a) for k, v in zip(c, verts[1:])) for j, a in enumerate(verts[0])
                )
                verts.insert(rng.randint(0, dim), extra)
                if len(set(verts)) < len(verts):
                    continue
                with pytest.raises(DegeneratePolytopeError, match="affinely dependent"):
                    LatticeSimplex(verts)
                checked += 1
        assert checked >= 50
        with pytest.raises(DegeneratePolytopeError, match="distinct"):
            LatticeSimplex([(2,), (2,)])

    def test_over_cap_dimension(self):
        verts = [(0,) * 9] + [tuple(int(i == j) for j in range(9)) for i in range(9)]
        with pytest.raises(ResourceLimitError, match="capped at 8, got 9"):
            LatticeSimplex(verts)


class TestBarycentric:
    def test_vertex(self):
        s = LatticeSimplex([(2, 3), (5, 3), (2, 7)])
        assert s.barycentric((2, 3)) == (1, 0, 0)

    def test_centroid(self):
        s = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        third = Fraction(1, 3)
        assert s.barycentric((third, third)) == (third, third, third)

    def test_reeve_half_point(self):
        s = LatticeSimplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
        q = (Fraction(1, 2),) * 3
        assert s.barycentric(q) == (Fraction(1, 4),) * 4

    def test_sum_one_and_recombination(self):
        # unimodular simplices in dims 1-4, then random_simplex cells in dims
        # 1-8, each also with two vertices swapped: the swap flips det's sign,
        # and row 0 of the weight rows is |det| minus the others.  Each gets a
        # random point, a point inside and a vertex, on which contains_point
        # agrees with the signs of the weights.
        def check(s, q):
            t = s.barycentric(q)
            assert sum(t) == 1
            recombined = tuple(
                sum(ti * Fraction(v[j]) for ti, v in zip(t, s.vertices)) for j in range(s.dim)
            )
            assert recombined == tuple(q)
            inside = s.contains_point(q)
            assert inside == all(x >= 0 for x in t), (s, q)
            verdicts[inside] += 1

        rng = random.Random(7)
        verdicts = Counter()
        for _ in range(150):
            dim = rng.randint(1, 4)
            s = random_unimodular_simplex(rng, dim, spread=6)
            q = random_rational_point(rng, dim)
            check(s, q)
        for k in range(160):
            s = random_simplex(rng, 1 + k % 8)
            v = s.vertices
            for cell in (s, LatticeSimplex((v[1], v[0], *v[2:]))):
                w = [rng.randint(0, 3) for _ in v]
                w[0] += 1
                blend = tuple(Fraction(sum(c * x for c, x in zip(w, col)), sum(w)) for col in zip(*v))
                for q in (random_rational_point(rng, cell.dim), blend, v[rng.randrange(len(v))]):
                    check(cell, q)
        assert min(verdicts.values()) >= 150, verdicts

    def test_membership_iff_all_nonnegative(self):
        s = LatticeSimplex([(0, 0), (2, 0), (0, 2)])
        assert s.contains_point((Fraction(1, 2), Fraction(1, 2)))
        assert not s.contains_point((Fraction(3), Fraction(3)))
        assert any(t < 0 for t in s.barycentric((3, 3)))

    def test_integer_queries_give_fractions(self):
        # det 9: the weights of int points are thirds, exact Fractions, not
        # the floats an int numerator over |det| would give
        s = LatticeSimplex([(0, 0), (3, 0), (0, 3)])
        third = Fraction(1, 3)
        for q, expected in (((1, 1), (third, third, third)), ((4, 2), (-1, 4 * third, 2 * third))):
            t = s.barycentric(q)
            assert t == expected
            assert all(type(x) is Fraction for x in t), t

    def test_inexact_coordinates_refused(self):
        # bools, floats (inf included), strings and Decimals are not read as
        # rationals: each raises TypeError, as in a lattice point
        s = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        for q in ((0.1, 0.2), ("1/3", "1/3"), (True, False), (Decimal(1) / 3, 0), (float("inf"), 0)):
            for call in (s.barycentric, s.contains_point):
                with pytest.raises(TypeError, match="must be int or Fraction, got"):
                    call(q)


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

    def test_inexact_coordinates_refused(self):
        # a bool leaves the integer path and is refused with the others
        p = LatticePolytope([(0, 0), (1, 0), (0, 1)])
        for q in ((True, False), (1, True), (0.5, 0), ("1/3", "1/3"), (Fraction(1, 3), Decimal(0))):
            with pytest.raises(TypeError, match="must be int or Fraction, got"):
                contains(p, q)

    def test_integer_points_as_fractions(self):
        # a point of ints, tested as it is, gets the verdict of the same
        # point written with Fractions, on full and flat polytopes
        rng = random.Random(1415)
        verdicts = Counter()
        for k in range(200):
            dim = 1 + k % 8
            flat = k % 3 == 0
            gens = sorted(set(random_point_set(rng, dim, flat=flat)))
            p = LatticePolytope(gens)
            points = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(6)]
            for q in points + gens:
                inside = contains(p, q)
                assert inside == contains(p, tuple(map(Fraction, q))), (p, q)
                if dim <= 3:
                    assert inside == caratheodory_contains(p.vertices, q)
                verdicts[flat, inside] += 1
            for q in ((0,) * (dim + 1), (0,) * (dim - 1), (Fraction(1, 2),) * (dim + 1)):
                with pytest.raises(DimensionMismatchError, match=f"dimension {dim}, got {len(q)}"):
                    contains(p, q)
        assert min(verdicts.values()) >= 40, verdicts

    def test_integer_points_make_no_fraction(self, monkeypatch):
        # a certified search tests every cell vertex with contains; its
        # Fraction-free path is the one for points of ints
        def refuse(*args):
            pytest.fail(f"Fraction{args} constructed")

        monkeypatch.setattr(geometry, "Fraction", refuse)
        for p in (unit_cube(3), dilate(unit_cube(3), 2), stretched_simplex()):
            assert all(contains(p, q) for q in lattice_points(p))
            assert not contains(p, (3, 0, 0))
            assert find_unimodular_triangulation(p) is not None

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
            lp_route += not (p.is_full_dimensional() and len(p.vertices) == 5)
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
        original = lp.max_min_margin

        def counting(ineqs, n):
            calls.append(len(ineqs))
            return original(ineqs, n)

        monkeypatch.setattr(lp, "max_min_margin", counting)
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

    def test_random_point_sets(self):
        rng = random.Random(2024)
        flats = 0
        for k in range(60):
            dim = 1 + k % 5
            gens = tuple(sorted(set(random_point_set(rng, dim, flat=rng.random() < 1 / 3))))
            p = LatticePolytope(gens)
            flats += not p.is_full_dimensional()
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


# the derived-data slots, each read through the function that fills it on first read
READERS = {"_points": lattice_points, "_projections": _projection_rows, "_volume": normalized_volume}


def read_slot(p, slot):
    """p's slot, its derived data read through the function that fills it."""
    return READERS[slot](p) if slot in READERS else getattr(p, slot)


def count_calls(monkeypatch, *names):
    """Patch each geometry function in `names` to log its name on every call; the log."""
    calls = []
    for name in names:
        original = getattr(geometry, name)

        def counting(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(geometry, name, counting)
    return calls


def dilate_cases(seed, count):
    """Seeded polytopes in dimensions 1-5, about a third of them flat."""
    rng = random.Random(seed)
    return [
        LatticePolytope(random_point_set(rng, 1 + k % 5, flat=rng.random() < 1 / 3))
        for k in range(count)
    ]


class TestDilateAgainstRehull:
    """dilate builds h*P from P's parts; a fresh hull pass over the scaled
    vertices must give the same polytope slot for slot, the derived data
    read through the functions that fill them and the link to P left out,
    on seeded point sets in dimensions 1-5, about a third of them flat, for
    h = 1..4.  Once P's projection rows are read, a dilate's rows take no
    elimination."""

    def test_random_point_sets(self, monkeypatch):
        eliminations = count_calls(monkeypatch, "_eliminate")
        flats = simplices = 0
        for p in dilate_cases(4096, 300):
            flats += not p.is_full_dimensional()
            simplices += p.is_full_dimensional() and len(p.vertices) == p.dim + 1
            for h in range(1, 5):
                got, want = dilate(p, h), rehull_dilate(p, h)
                for slot in LatticePolytope.__slots__:
                    if slot != "_base":
                        assert read_slot(got, slot) == read_slot(want, slot), (p, h, slot)
            _projection_rows(p)
            eliminations.clear()
            rows = [_projection_rows(dilate(p, h)) for h in range(1, 5)]
            assert eliminations == [], p
            assert rows == [_projection_rows(rehull_dilate(p, h)) for h in range(1, 5)], p
        assert flats >= 75 and simplices >= 30


class TestDilateOfDilate:
    """dilate(dilate(P, 2), 3) links to P with factor 6: its lattice points,
    projection rows and volume are those of dilate(P, 6) and of a fresh hull
    of 6*P, and once P's are known it reads them with no elimination and no
    placing pass."""

    def test_random_point_sets(self, monkeypatch):
        calls = count_calls(monkeypatch, "_eliminate", "_placing_cells")
        for p in dilate_cases(6006, 150):
            twice = dilate(dilate(p, 2), 3)
            assert twice._base == (p, 6) and twice.vertices == dilate(p, 6).vertices
            for slot in READERS:
                want = read_slot(rehull_dilate(p, 6), slot)
                assert read_slot(twice, slot) == read_slot(dilate(p, 6), slot) == want, (p, slot)
            calls.clear()
            once_known = dilate(dilate(p, 2), 3)
            for read in READERS.values():
                read(once_known)
            assert calls == [], p


NEEDLE = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (7, 7, 6), (8, 7, 6))


class TestFrame:
    """_frame(P), for a thin full-dimensional P (more than FRAME_RATIO box
    cells per lattice point), builds U*P from P's parts as dilate builds
    h*P, U from LLL on P's width form: it equals a fresh hull of U*P's
    vertices slot for slot, the derived data read through the functions
    that fill them (so its kept lattice points U*L(P) meet an enumeration
    in its own box); U^-1 inverts U, and U*P's box is smaller at every
    dilation.  LLL on a dilate's width form h^2 G gives the same U."""

    def test_sheared_polytopes(self):
        rng = random.Random(2809)
        framed = 0
        for k in range(150):
            dim = 2 + k % 4
            grid = list(itertools.product(range(2), repeat=dim))
            pts = rng.sample(grid, rng.randint(dim + 1, min(len(grid), dim + 3)))
            shear = random_shear(rng, dim, rng.randint(dim, 3 * dim))
            p = LatticePolytope([tuple(vec_dot(row, q) for row in shear) for q in pts])
            frame = _frame(p)
            if frame is None:
                continue
            framed += 1
            image, inverse = frame
            u = linalg._lll_reduce(width_form(p.vertices))
            assert matmul(u, inverse) == identity(dim)
            assert image.vertices == tuple(sorted(tuple(vec_dot(row, v) for row in u) for v in p.vertices))
            assert image._points == tuple(sorted(tuple(vec_dot(row, x) for row in u) for x in lattice_points(p)))
            want = LatticePolytope(image.vertices)
            for slot in LatticePolytope.__slots__:
                assert read_slot(image, slot) == read_slot(want, slot), (p, slot)
            (lo, hi), (flo, fhi) = p.bounding_box(), image.bounding_box()
            for h in range(1, 9):
                assert _box_cells(vec_scale(flo, h), vec_scale(fhi, h)) < _box_cells(vec_scale(lo, h), vec_scale(hi, h))
            assert linalg._lll_reduce(width_form(dilate(p, 3).vertices)) == u
        assert framed >= 100, framed

    def test_selection(self):
        # flat inputs, cubes, grids and the Reeve simplex's dilates are not thin
        flat = LatticePolytope([(0, 0, 0, 0), (1, 0, 1, 2), (0, 1, 2, 1)])
        grid = LatticePolytope(itertools.product(range(4), repeat=3))
        unthin = [flat, unit_cube(4), dilate(unit_cube(3), 2), grid]
        unthin += [dilate(reeve_simplex(), h) for h in range(1, 6)]
        for p in unthin:
            assert _frame(p) is None, p
            ratio = _box_cells(*p.bounding_box()) / len(lattice_points(p))
            assert not p.is_full_dimensional() or ratio <= FRAME_RATIO, p
        # the needle: 8 lattice points in 504 box cells, 30 in its frame
        image, inverse = _frame(LatticePolytope(NEEDLE))
        assert image.bounding_box() == ((-1, -1, -3), (0, 1, 1))
        assert len(lattice_points(image)) == 8
        assert normalized_volume(image) == normalized_volume(LatticePolytope(NEEDLE)) == 12

    def test_frame_only_when_smaller(self, monkeypatch):
        # U is kept only when U*P's box is smaller than P's: the identity is not
        monkeypatch.setattr(geometry, "_lll_reduce", lambda gram: identity(len(gram)))
        assert _frame(LatticePolytope(NEEDLE)) is None

    def test_box_shrinks_at_every_dilation(self):
        # widths (1, 1, 7) against (2, 2, 2): 32 cells against 27 at h = 1,
        # 725 against 729 at h = 4, so neither box shrinks into the other
        cube, long = ((0, 0, 0), (2, 2, 2)), ((0, 0, 0), (1, 1, 7))
        assert not _box_shrinks(cube, long) and not _box_shrinks(long, cube)
        assert not _box_shrinks(cube, cube)
        # the needle's box, widths (8, 7, 6), and its frame's, (1, 2, 4)
        assert _box_shrinks(((0, 0, 0), (8, 7, 6)), ((-1, -1, -3), (0, 1, 1)))
        # a shrinking box has fewer cells than the other at each h = 1..12
        # (the test is sufficient: widths (1, 6) are below (3, 3) at every h)
        assert not _box_shrinks(((0, 0), (3, 3)), ((0, 0), (1, 6)))
        rng = random.Random(2810)
        shrinks = 0
        for _ in range(400):
            dim = rng.randint(1, 4)
            old, new = ([rng.randint(0, 6) for _ in range(dim)] for _ in range(2))
            if _box_shrinks(((0,) * dim, old), ((0,) * dim, new)):
                shrinks += 1
                for h in range(1, 13):
                    assert math.prod(h * w + 1 for w in new) < math.prod(h * w + 1 for w in old), (old, new, h)
        assert shrinks >= 100, shrinks


class TestDilateBuildCount:
    """Exact counts on dilation and the placing search: dilate runs no hull
    pass, and neither it nor the search constructs a Fraction."""

    CASES = (
        lambda: unit_cube(4),
        reeve_simplex,
        lambda: dilate(unit_cube(3), 2),
        lambda: LatticePolytope([(0, 0, 0), (3, 3, 3)]),
    )

    def test_no_hull_pass(self, monkeypatch):
        polytopes = [build() for build in self.CASES]
        calls = []
        original = geometry._facet_rows

        def counting(points, start):
            calls.append(start)
            return original(points, start)

        monkeypatch.setattr(geometry, "_facet_rows", counting)
        for p in polytopes:
            for h in (1, 2, 3):
                assert dilate(p, h).vertices == tuple(tuple(h * x for x in v) for v in p.vertices)
        assert calls == []

    def test_no_fraction(self, monkeypatch):
        def refuse(*args):
            pytest.fail(f"Fraction{args} constructed")

        # linalg imports no Fraction at all (test_api)
        for module in (geometry, unimodular):
            monkeypatch.setattr(module, "Fraction", refuse)
        for build in self.CASES:
            p = build()
            assert dilate(p, 2).facets() == tuple((a, 2 * b) for a, b in p.facets())
        # not found: every insertion order meets a cell of volume above 1 and stops
        assert find_unimodular_triangulation(dilate(reeve_simplex(), 2)) is None


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
        pts = lattice_points(hull_unit_cube(3))
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
            assert lattice_points(LatticePolytope(s.vertices)) == tuple(sorted(s.vertices))

    def test_box_cap(self):
        p = LatticePolytope([(0, 0, 0), (1000, 1000, 1000)])
        with pytest.raises(ResourceLimitError):
            lattice_points(p)

    def test_box_cap_before_elimination(self, monkeypatch):
        # 301^3 box cells: refused before any projection row is eliminated
        calls = []
        monkeypatch.setattr(geometry, "_eliminate", lambda *args: calls.append(args))
        p = LatticePolytope([(0, 0, 0), (300, 300, 300)])
        with pytest.raises(ResourceLimitError):
            lattice_points(p)
        assert calls == [] and p._projections is None

    def test_enumerates_over_projection_rows(self, monkeypatch):
        # the rows _lattice_runs reads are the very rows p keeps
        calls = []
        original = geometry._lattice_runs

        def capturing(bounds, *box):
            calls.append(bounds)
            return original(bounds, *box)

        monkeypatch.setattr(geometry, "_lattice_runs", capturing)
        rng = random.Random(5)
        flat = LatticePolytope([(0, 0, 1), (2, 0, 1), (0, 2, 1)])
        cases = [reeve_simplex(), stretched_simplex(), flat]
        cases += [random_polytope(rng, dim) for dim in (2, 3, 4)]
        for p in cases:
            calls.clear()
            lattice_points(p)
            assert len(calls) == 1 and calls[0] is _projection_rows(p), p

    def test_dim_cap(self):
        with pytest.raises(ResourceLimitError):
            LatticePolytope([tuple(0 for _ in range(9)), tuple(1 for _ in range(9))])


class TestLatticePointsAgainstBoxRows:
    """lattice_points, over the rows of the coordinate projections, against
    enumeration over the facet rows relaxed over the box (box_rows): the
    same points in the same order, on seeded point sets in dimensions 1-6
    (a third of them flat) and their doubles, and on seeded hulls of 20
    points in dimensions 5-7."""

    def test_random_point_sets(self):
        rng = random.Random(422)
        flats = 0
        for k in range(120):
            dim = 1 + k % 6
            bound = 2 if dim <= 3 else 1
            p = LatticePolytope(random_point_set(rng, dim, k % 3 == 0, bound))
            flats += not p.is_full_dimensional()
            assert lattice_points(p) == box_rows_lattice_points(p), p.vertices
            # 2P carries P's rows, read by the enumeration above
            q = dilate(p, 2)
            assert lattice_points(q) == box_rows_lattice_points(q), p.vertices
        assert flats >= 40, flats

    def test_high_dimensional_hulls(self):
        rng = random.Random(3)
        for dim in (5, 6, 7):
            p = LatticePolytope([tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(20)])
            assert p.is_full_dimensional()
            assert lattice_points(p) == box_rows_lattice_points(p), dim


class TestNestedEnumerationAgainstBoxScan:
    """lattice_points of P, 2P and 3P against a scan of every bounding-box
    cell, on seeded point sets in dimensions 1-5, a third of them flat."""

    def test_random_dilates(self):
        rng = random.Random(404)
        flats = 0
        for k in range(100):
            dim = 1 + k % 5
            bound = 2 if dim <= 3 else 1
            p = LatticePolytope(random_point_set(rng, dim, rng.random() < 1 / 3, bound))
            flats += not p.is_full_dimensional()
            for h in (1, 2, 3):
                q = dilate(p, h)
                assert lattice_points(q) == box_scan_lattice_points(q), (p.vertices, h)
        assert flats >= 25

    def test_segments(self):
        for end in ((12, 12, 12), (6, -9, 3), (0, 5, -10)):
            p = LatticePolytope([(0, 0, 0), end])
            for h in (1, 2, 3):
                q = dilate(p, h)
                assert lattice_points(q) == box_scan_lattice_points(q)
        # 121^3 box cells would cost the oracle seconds; the points are known
        p = LatticePolytope([(0, 0, 0), (120, 120, 120)])
        assert lattice_points(p) == tuple((t, t, t) for t in range(121))


class TestProjectionRunsAgainstBoxRows:
    """Runs of h*P over the rows of P's coordinate projections scaled to
    (a, h*b), against runs over h*P's own rows relaxed over its box: the same
    runs in the same order, on seeded point sets in dimensions 1-5 (a third
    of them flat) and on needles, for h = 1..4.  Each level, eliminated from
    P's own rows, is the set of facet rows of a hull of the projection
    (hull_projection_rows) wherever the projection is full-dimensional; in
    dimensions 6-8, on cubes and seeded sets, only the rows are compared."""

    @staticmethod
    def assert_oracle_rows(p):
        levels = _projection_rows(p)
        full = 0
        for k, (level, oracle) in enumerate(zip(levels, hull_projection_rows(p))):
            if LatticePolytope([v[: k + 1] for v in p.vertices]).is_full_dimensional():
                full += 1
                assert sorted(level) == sorted(oracle), (p.vertices, k)
        return levels, full

    @classmethod
    def assert_same_runs(cls, p):
        levels, full = cls.assert_oracle_rows(p)
        for h in range(1, 5):
            q = dilate(p, h)
            mins, maxs = q.bounding_box()
            exact = _lattice_runs([[(a, h * b) for a, b in level] for level in levels], mins, maxs)
            assert exact == _lattice_runs(box_rows(q), mins, maxs), (p.vertices, h)
            points = tuple(prefix + (x,) for prefix, lo, hi in exact for x in range(lo, hi + 1))
            assert points == lattice_points(q)
        return full

    def test_random_point_sets(self):
        rng = random.Random(406)
        flats = flat_levels = 0
        for k in range(90):
            dim = 1 + k % 5
            bound = 2 if dim <= 3 else 1
            p = LatticePolytope(random_point_set(rng, dim, k % 3 == 0, bound))
            flats += not p.is_full_dimensional()
            full = self.assert_same_runs(p)
            # a flat P's projections to fewer coordinates can be full-dimensional
            flat_levels += 0 if p.is_full_dimensional() else full
        assert flats >= 25 and flat_levels >= 25, (flats, flat_levels)

    def test_high_dimensions(self):
        for n in (6, 7, 8):
            assert self.assert_oracle_rows(hull_unit_cube(n))[1] == n
        rng = random.Random(3)
        for dim in (6, 7, 8):
            p = LatticePolytope([tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(20)])
            assert self.assert_oracle_rows(p)[1] == dim

    def test_needles(self):
        for gens in (
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (7, 7, 6), (8, 7, 6)],
            [(0, 0, 0), (1, 0, 0), (9, 8, 7)],
            [(0, 0, 0), (12, -9, 6)],
            [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (5, 5, 5, 4)],
            [(0, 0), (1, 0), (11, 7)],
        ):
            self.assert_same_runs(LatticePolytope(gens))


class TestEliminationMasks:
    """The masks _eliminate returns are exact: at every level of the
    projection rows, each row's mask is the set of P's vertices tight on the
    row truncated to the level's coordinates, an equation's (a row whose
    opposite row is there too) is every vertex, and the returned dimension
    is the projection's affine dimension.  The next level's adjacency test
    reads these masks."""

    @staticmethod
    def check_levels(p):
        rows, dim = dict(zip(p._facets, p._masks)), p._hull_dim
        full, checked = (1 << len(p.vertices)) - 1, 0
        for k in range(p.dim - 1, 0, -1):
            rows, dim = geometry._eliminate(rows, k, dim, full)
            shadow = [v[:k] for v in p.vertices]
            assert dim == LatticePolytope(shadow)._hull_dim, (p.vertices, k)
            for (a, b), mask in rows.items():
                tight = sum(1 << i for i, v in enumerate(shadow) if vec_dot(a, v) == b)
                assert mask == tight, (p.vertices, k, a, b)
                if (tuple(-x for x in a), -b) in rows:
                    assert mask == full, (p.vertices, k, a, b)
            checked += len(rows)
        return checked

    def test_cubes(self):
        assert sum(self.check_levels(hull_unit_cube(n)) for n in range(1, 8)) > 0

    def test_random_point_sets(self):
        rng = random.Random(425)
        flats = checked = 0
        for k in range(200):
            dim, bound = 1 + k % 6, 2 if k % 6 < 3 else 1
            if k % 3 == 0:
                points = random_point_set(rng, dim, True, bound)
            else:
                points = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim + 1 + k % 5)]
            p = LatticePolytope(points)
            flats += not p.is_full_dimensional()
            checked += self.check_levels(p)
        assert flats >= 60 and checked >= 2000, (flats, checked)


class TestCombineAgainstRanks:
    """_combine's rows against the algebraic adjacency test: for each row F
    with a positive height and G with a negative one, in that order, F and G
    meet in a ridge iff the vertices tight on both span a face of dimension
    dim - 2, and the pair gives the primitive eta * G - g * F.  At the
    heights of a random direction on seeded full-dimensional hulls in
    dimensions 2-6, and at the heights a_k at each level that _eliminate
    joins pairs at, on cubes, whose vertices meet in pairs under the
    projections, and on seeded sets in dimensions 2-5."""

    @staticmethod
    def expected(rows, masks, heights, verts, dim):
        out = []
        for f, eta in enumerate(heights):
            for g, t in enumerate(heights):
                if not eta > 0 > t:
                    continue
                both = masks[f] & masks[g]
                common = [v for i, v in enumerate(verts) if both >> i & 1]
                if common and fraction_rank_of_rows([vec_sub(v, common[0]) for v in common]) == dim - 2:
                    (n_f, b_f), (n_g, b_g) = rows[f], rows[g]
                    normal = [eta * y - t * x for x, y in zip(n_f, n_g)]
                    out.append((_primitive_row(normal, eta * b_g - t * b_f), both))
        return out

    def test_random_directions(self):
        rng = random.Random(426)
        pairs = 0
        for k in range(60):
            dim = 2 + k % 5
            points = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim + 1 + k % 7)]
            p = LatticePolytope(points)
            if not p.is_full_dimensional():
                continue
            c = [rng.randint(-3, 3) for _ in range(dim)]
            heights = [vec_dot(c, a) for a, _ in p._facets]
            got = geometry._combine(p._facets, p._masks, heights, dim, (1 << len(heights)) - 1)
            assert got == self.expected(p._facets, p._masks, heights, p.vertices, dim), points
            pairs += len(got)
        assert pairs >= 500, pairs

    def test_elimination_levels(self):
        rng = random.Random(427)
        cases = [hull_unit_cube(n) for n in range(2, 7)]
        for k in range(120):
            dim = 2 + k % 4
            if k % 3 == 0:
                cases.append(LatticePolytope(random_point_set(rng, dim, True)))
            else:
                cases.append(LatticePolytope([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim + 2 + k % 5)]))
        pairs = 0
        for p in cases:
            rows, dim = dict(zip(p._facets, p._masks)), p._hull_dim
            full = (1 << len(p.vertices)) - 1
            for k in range(p.dim - 1, 0, -1):
                # _eliminate joins pairs unless an equation of the hull involves x_k
                if dim > 1 and not any(z == full and a[k] for (a, _), z in rows.items()):
                    cut, masks = [(a[:k], b) for a, b in rows], list(rows.values())
                    heights = [a[k] for a, _ in rows]
                    facets = sum(1 << i for i, z in enumerate(masks) if z != full)
                    got = geometry._combine(cut, masks, heights, dim, facets)
                    shadow = [v[: k + 1] for v in p.vertices]
                    assert got == self.expected(cut, masks, heights, shadow, dim), (p.vertices, k)
                    pairs += len(got)
                rows, dim = geometry._eliminate(rows, k, dim, full)
        assert pairs >= 500, pairs


class TestFacetNormalAgainstCofactors:
    """One fraction-free elimination against one determinant per cofactor
    minor: the same normal, sign included, on seeded n-point sets in R^n."""

    def test_random_point_sets(self):
        rng = random.Random(77)
        dependent = 0
        for k in range(600):
            n = 1 + k % 6
            spread = rng.choice((1, 2, 5))
            pts = [tuple(rng.randint(-spread, spread) for _ in range(n)) for _ in range(n)]
            if n > 2 and rng.random() < 0.25:
                # an affine combination of two earlier points: a zero normal
                pts[-1] = tuple(2 * b - a for a, b in zip(pts[0], pts[1]))
            expected = cofactor_facet_normal(pts)
            dependent += not any(expected)
            assert _facet_normal(pts) == expected, pts
        assert dependent >= 50


class TestPlacingCellVolumes:
    """The volume the placing routine yields with each cell is the cell's
    |det|, the first cell's included, and the volumes sum to the hull's: on
    seeded full-dimensional polytopes in dimensions 1-4, inserting the
    lattice points in lex and shuffled order, and the vertices alone."""

    def test_random_polytopes(self):
        rng = random.Random(31)
        checked = big_first = 0
        for k in range(80):
            dim = 1 + k % 4
            p = LatticePolytope(random_point_set(rng, dim, flat=False))
            if not p.is_full_dimensional():
                continue
            pts = list(lattice_points(p))
            for order in (pts, rng.sample(pts, len(pts)), list(p.vertices)):
                cells = list(geometry._placing_cells(order))
                volumes = [volume for _, volume in cells]
                assert volumes == [abs(LatticeSimplex(c).det) for c, _ in cells], order
                assert sum(volumes) == normalized_volume(p), order
                big_first += volumes[0] > 1
            checked += 1
        assert checked >= 40 and big_first >= 20


def _drain(cells):
    """Every (cell, volume) a placing pass yields, and the boundary facets it
    returns; or the error it raises."""
    try:
        yielded = []
        while True:
            yielded.append(next(cells))
    except StopIteration as done:
        return yielded, done.value
    except DegeneratePolytopeError as error:
        return str(error)


class TestPlacingRowUpdatesAgainstElimination:
    """_placing_cells, each new facet's row from its two neighbours, against
    the kernel that eliminates once per facet: the same (cell, volume)
    sequence and the same boundary, facet for facet and in order (facet
    points, rows), for the points inserted in lex, shuffled and extremes-first
    order, given as a list and as a generator; the same error on affinely
    dependent inputs."""

    @staticmethod
    def assert_same_placing(points, rng):
        for order in (sorted(points), rng.sample(points, len(points)), extremes_first(points)):
            expected = _drain(elimination_placing_cells(order))
            assert _drain(_placing_cells(order)) == expected, order
            assert _drain(_placing_cells((q for q in order))) == expected, order

    def test_random_point_sets(self):
        rng = random.Random(909)
        full = 0
        for k in range(360):
            dim = 1 + k % 6
            spread = rng.choice((1, 2, 3))
            size = rng.randint(dim + 1, dim + 10)
            points = sorted({tuple(rng.randint(-spread, spread) for _ in range(dim)) for _ in range(size)})
            full += isinstance(_drain(_placing_cells(points)), tuple)
            self.assert_same_placing(points, rng)
        assert full >= 300

    def test_coplanar_neighbours(self):
        # grids and cubes: many boundary facets share a hyperplane with a neighbour
        rng = random.Random(910)
        for n in (1, 2, 3, 4, 5):
            self.assert_same_placing(list(itertools.product((0, 1), repeat=n)), rng)
        self.assert_same_placing(list(itertools.product(range(4), repeat=3)), rng)
        self.assert_same_placing(list(itertools.product(range(3), repeat=4)), rng)
        for ell in (1, 2, 3, 4):
            self.assert_same_placing(list(lattice_points(dilate(reeve_simplex(), ell))), rng)

    def test_past_64_points(self):
        # facet and ridge keys are bitmasks of point indices: here they span
        # several machine words
        rng = random.Random(912)
        grid = list(itertools.product(range(5), repeat=3))
        reeve = list(lattice_points(dilate(reeve_simplex(), 5)))
        assert (len(grid), len(reeve)) == (125, 76)
        for points in (grid, reeve):
            self.assert_same_placing(points, rng)

    def test_high_dimensions(self):
        # dims 7 and 8, a few points past the first simplex, repeats among them
        rng = random.Random(913)
        for k in range(12):
            dim = 7 + k % 2
            points = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(dim + 4)]
            points += rng.sample(points, 2)
            self.assert_same_placing(points, rng)

    def test_reads_as_it_places(self):
        # a point is read only when the cells before it are taken: up to the
        # first simplex's last point for the first cell, then one at a time,
        # each point's cells yielded before the next point is read
        rng = random.Random(914)
        for k in range(60):
            dim = 1 + k % 4
            p = LatticePolytope(random_point_set(rng, dim, flat=False))
            if not p.is_full_dimensional():
                continue
            order = rng.sample(lattice_points(p), len(lattice_points(p)))
            read = []
            cells = _placing_cells((read.append(q) or q for q in order))
            first, _ = next(cells)
            ready = max(order.index(v) for v in first)
            assert read == order[: ready + 1], order
            for cell, _ in cells:
                # the cell's apex, read then or held back with the first simplex
                assert read == order[: max(ready, order.index(cell[-1])) + 1], order
            assert read == order

    def test_dependent_inputs(self):
        rng = random.Random(911)
        cases = [
            [(0,), (0,)],
            [(0, 0), (1, 1), (2, 2), (-3, -3)],
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, -1, 0)],
        ]
        for points in cases:
            expected = _drain(elimination_placing_cells(points))
            assert expected == "points do not span the ambient dimension"
            self.assert_same_placing(points, rng)


class TestStartRowsAgainstCofactors:
    """The rows both hull kernels start from, one adjugate for all of the
    first simplex's facets, against one cofactor elimination per facet
    (_cell_facet): _placing_cells' boundary on a simplex's own vertices
    (facet points, outward row, offset) and _facet_rows' primitive rows,
    entry for entry and in order, on seeded simplices in dims 1-8, each also
    with its first two vertices swapped, which flips the det sign."""

    def test_random_simplices(self):
        rng = random.Random(4242)
        signs = Counter()
        for k in range(160):
            dim = 1 + k % 8
            v = random_simplex(rng, dim, bound=3).vertices
            for first in (v, (v[1], v[0], *v[2:])):
                det = LatticeSimplex(first).det
                signs[det > 0] += 1
                facets = [_cell_facet(first, skip) for skip in range(dim + 1)]
                yielded, boundary = _drain(_placing_cells(list(first)))
                assert yielded == [(first, abs(det))]
                assert boundary == facets, first
                start_adj = geometry._difference_adjugate(first)
                rows, masks = geometry._facet_rows(list(first), list(range(dim + 1)), *start_adj)
                assert rows == [_primitive_row(normal, offset) for _, normal, offset in facets], first
                assert masks == [sum(1 << j for j in range(dim + 1) if j != i) for i in range(dim + 1)]
        assert min(signs.values()) == 160


class TestPlacingEliminationCount:
    """Exact counts of the eliminations geometry runs (linalg._bareiss, each
    logged as (order, jordan)): none for a placing pass abandoned at its
    first cell, whose volume is the last pivot of the elimination that picks
    its points, one Gauss-Jordan pass for a pass run to the end however many
    cells it makes, and pinned totals for a search and a dilation scan."""

    @staticmethod
    def _count(monkeypatch):
        calls = []
        original = geometry._bareiss

        def counting(rows, jordan):
            calls.append((len(rows), jordan))
            return original(rows, jordan)

        monkeypatch.setattr(geometry, "_bareiss", counting)
        return calls

    POINT_SETS = (
        lambda: list(itertools.product((0, 1), repeat=4)),
        lambda: list(lattice_points(dilate(reeve_simplex(), 2))),
        lambda: list(itertools.product(range(3), repeat=3)),
        lambda: [(0, 0), (5, 1), (1, 4), (3, 3), (-2, 2)],
        lambda: [(3,), (-1,), (7,), (0,)],
    )

    def test_first_cell_only(self, monkeypatch):
        sets = [build() for build in self.POINT_SETS]
        calls = self._count(monkeypatch)
        for points in sets:
            calls.clear()
            cells = _placing_cells(points)
            next(cells)
            cells.close()
            assert calls == [], points

    def test_whole_pass(self, monkeypatch):
        sets = [build() for build in self.POINT_SETS]
        calls = self._count(monkeypatch)
        for points in sets:
            dim = len(points[0])
            calls.clear()
            yielded, boundary = _drain(_placing_cells(points))
            assert len(yielded) > 1 and calls == [(dim, True)], points

    def test_search_totals(self, monkeypatch):
        cube, reeve = hull_unit_cube(4), reeve_simplex()
        calls = self._count(monkeypatch)
        # the lexicographic order succeeds: one pass (its first simplex's
        # adjugate), then the 24 cells' determinants as
        # LatticeSimplex; the cube's lattice points are its vertices, so that
        # pass is also the volume pass, and certifying it runs no second one
        assert find_unimodular_triangulation(cube) is not None
        assert Counter(calls) == {(4, False): 24, (4, True): 1}
        calls.clear()
        # 81 placing passes (one at ell = 1, a simplex; 20 per row above),
        # 16 of them past their first cell with an adjugate; the 5 dilates
        # of the simplex P build no LatticeSimplex; the rows of P's
        # coordinate projections are eliminated from P's own, with no hull
        # and no adjugate; one volume pass over the 4 vertices (an
        # adjugate), which the scan at ell = 1 takes for its Ehrhart count
        # at h = 3 and every later row reads as ell^3 times it
        assert find_ell(reeve, 5, 3).ell is None
        assert Counter(calls) == {(3, True): 16 + 1}
        assert len(calls) == 17


class TestHullEliminationCount:
    """A hull, a simplex or not, flat or not, runs one Gauss-Jordan pass
    (linalg._bareiss, logged as (order, jordan)): the start simplex's
    adjugate, projected to the coordinates the affine hull projects
    injectively onto (the pivot columns of _affine_basis, which calls no
    _bareiss), gives both a flat hull's equations and the double
    description's start rows."""

    def test_one_pass_per_hull(self, monkeypatch):
        calls = TestPlacingEliminationCount._count(monkeypatch)
        cases = (
            ([(0, 0, 0, 0), (1, 0, 1, 2), (0, 1, 2, 1)], [(2, True)]),
            # constant first coordinate: projected onto coordinates 1 and 2
            ([(5, 0, 0, 0), (5, 1, 0, 1), (5, 0, 1, 2), (5, 2, 2, 6)], [(2, True)]),
            ([(0, 0, 0), (2, 2, 2), (1, 1, 1)], [(1, True)]),
            (list(itertools.product((0, 1), repeat=3)), [(3, True)]),
            # a simplex's hull builds no LatticeSimplex
            (list(reeve_simplex().vertices), [(3, True)]),
            ([(4, -1, 2)], [(0, True)]),
        )
        for points, expected in cases:
            calls.clear()
            LatticePolytope(points)
            assert calls == expected, points


class TestRunsAgainstRecursiveLift:
    """_lattice_runs, the last coordinate's interval worked out inline, against
    one recursive call per prefix: the same runs in the same order, over box
    rows and projection rows of P and h*P, h = 1..3, in dimensions 1-5 (a
    third of the point sets flat)."""

    def test_random_point_sets(self):
        rng = random.Random(408)
        for k in range(100):
            dim = 1 + k % 5
            bound = 2 if dim <= 3 else 1
            p = LatticePolytope(random_point_set(rng, dim, k % 3 == 0, bound))
            levels = _projection_rows(p)
            for h in (1, 2, 3):
                q = dilate(p, h)
                mins, maxs = q.bounding_box()
                for rows in (box_rows(q), [[(a, h * b) for a, b in level] for level in levels]):
                    expected = recursive_lattice_runs(rows, mins, maxs)
                    assert _lattice_runs(rows, mins, maxs) == expected, (p.vertices, h)

    def test_packed_bits(self):
        # given packing weights, the bits of the runs' points, set as the
        # runs are found, against the runs packed and merged pairwise
        rng = random.Random(417)
        for k in range(100):
            dim = 1 + k % 5
            bound = 2 if dim <= 3 else 1
            p = LatticePolytope(random_point_set(rng, dim, k % 3 == 0, bound))
            levels = _projection_rows(p)
            for h in (1, 2, 3):
                q = dilate(p, h)
                mins, maxs = q.bounding_box()
                radices = [b - a + 1 + rng.choice((0, 0, 3)) for a, b in zip(mins, maxs)]
                weights = [math.prod(radices[j + 1 :]) for j in range(dim)]
                for rows in (box_rows(q), [[(a, h * b) for a, b in level] for level in levels]):
                    packed = [
                        (sum(w * (x - m) for w, x, m in zip(weights, prefix + (lo,), mins)), hi - lo + 1)
                        for prefix, lo, hi in recursive_lattice_runs(rows, mins, maxs)
                    ]
                    bits = _lattice_runs(rows, mins, maxs, weights)
                    assert bits == pairwise_bitset(packed), (p.vertices, h)
                assert bits.bit_count() == len(lattice_points(q))

    def test_empty_and_point_boxes(self):
        # rows that no point meets, and a box of one cell, in dims 1-3
        for dim in (1, 2, 3):
            unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
            levels = [[(e, 0), (tuple(-x for x in e), -1)] for e in unit]
            zeros = [0] * dim
            assert _lattice_runs(levels, zeros, [3] * dim) == []
            assert recursive_lattice_runs(levels, zeros, [3] * dim) == []
            point = [[(e, 0), (tuple(-x for x in e), 0)] for e in unit]
            assert _lattice_runs(point, zeros, zeros) == [((0,) * (dim - 1), 0, 0)]
            weights = [4**j for j in reversed(range(dim))]
            assert _lattice_runs(levels, zeros, [3] * dim, weights) == 0
            assert _lattice_runs(point, zeros, zeros, weights) == 1
            # the whole box: the last stop bit is the first of a new byte
            box = [[(e, 3), (tuple(-x for x in e), 0)] for e in unit]
            assert _lattice_runs(box, zeros, [3] * dim, weights) == (1 << 4**dim) - 1


class TestHullAgainstSortedPlacing:
    """LatticePolytope, its facet rows by double description and its vertices
    read off the rows' tight sets, against the hulls read off a placing
    triangulation (sorted order with every generator a vertex candidate, and
    extreme points first with the boundary points as candidates): every
    slot agrees, the volume compared through normalized_volume, on seeded
    sets in dimensions 1-8, flat and full, on grids and on cubes."""

    # the bruteforce benchmark's inputs: needle, 2*cube-3, 3*a2, cube-4, grid 4^3
    BRUTEFORCE = (
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (7, 7, 6), (8, 7, 6)),
        tuple(itertools.product((0, 2), repeat=3)),
        ((0, 0, 0), (3, 0, 0), (0, 3, 0), (3, 3, 6)),
        tuple(itertools.product((0, 1), repeat=4)),
        tuple(itertools.product(range(4), repeat=3)),
    )

    @staticmethod
    def assert_same_hull(points):
        p = LatticePolytope(points)
        assert p._volume is None
        for q in (sorted_placing_hull(points), sorted_placing_hull(points, extremes=True)):
            for slot in LatticePolytope.__slots__:
                if slot != "_volume":
                    assert read_slot(p, slot) == read_slot(q, slot), (points, slot)
            assert normalized_volume(p) == normalized_volume(q), points

    def test_random_point_sets(self):
        rng = random.Random(410)
        flats = 0
        for k in range(150):
            dim = 1 + k % 5
            points = random_point_set(rng, dim, k % 3 == 0, 3 if dim <= 3 else 2)
            points += rng.choices(points, k=rng.randint(0, 3))  # duplicates
            flats += not LatticePolytope(points).is_full_dimensional()
            self.assert_same_hull(points)
        assert flats >= 50

    def test_every_affine_dimension(self):
        # in Z^n, n = 1..8, sets of every affine dimension k = 0..n-1: the
        # equations come from a k x k adjugate, and a single point (k = 0)
        # has none; k = 1 includes segments with no other generator
        rng = random.Random(416)
        seen = Counter()
        for n in range(1, 9):
            for k in range(n):
                for _ in range(3 if n < 7 else 1):
                    while True:
                        base = tuple(rng.randint(-2, 2) for _ in range(n))
                        dirs = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(k)]
                        combos = [[int(i == j) for j in range(k)] for i in range(k)]
                        combos += [[rng.randint(-1, 2) for _ in range(k)] for _ in range(rng.randint(0, 4))]
                        points = [base] + [
                            tuple(b + sum(c * d[j] for c, d in zip(cs, dirs)) for j, b in enumerate(base))
                            for cs in combos
                        ]
                        p = LatticePolytope(points)
                        if p._hull_dim == k:
                            break
                    seen[k, len(set(points))] += 1
                    self.assert_same_hull(points)
        assert sum(seen[0, size] for size in range(9)) == seen[0, 1] == 3 * 6 + 2
        assert seen[1, 2] >= 3

    def test_high_dimensions(self):
        # dims 6-8: up to 14 points, a third of the sets flat
        rng = random.Random(414)
        flats = 0
        for k in range(36):
            dim = 6 + k % 3
            points = [tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(dim + rng.randint(1, 6))]
            if k % 3 == 0:
                # affine combinations x + y - z of dim - 1 points stay in their affine hull
                base = points[: dim - 1]
                points = base + [
                    tuple(x + y - z for x, y, z in zip(*rng.sample(base, 3))) for _ in range(rng.randint(1, 6))
                ]
            flats += not LatticePolytope(points).is_full_dimensional()
            self.assert_same_hull(points)
        assert flats >= 12

    def test_dense_clouds(self):
        # many interior and boundary points per vertex
        rng = random.Random(411)
        for dim in (2, 3, 4):
            for _ in range(4):
                self.assert_same_hull(
                    [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(25)]
                )

    def test_grids(self):
        self.assert_same_hull(list(itertools.product(range(4), repeat=3)))
        self.assert_same_hull(list(itertools.product(range(3), repeat=4)))

    def test_cubes(self):
        # coplanar-heavy: every facet of cube-n holds 2^(n-1) generators
        for n in range(1, 8):
            self.assert_same_hull(list(itertools.product((0, 1), repeat=n)))
        self.assert_same_hull(list(itertools.product((0, 1), (0, 1, 2), (0, 1), (-1, 0, 1))))

    def test_bruteforce_projection_hulls(self):
        hulls = 0
        for gens in self.BRUTEFORCE:
            vertices = LatticePolytope(gens).vertices
            for k in range(len(gens[0]) - 1):
                self.assert_same_hull([v[: k + 1] for v in vertices])
                hulls += 1
            self.assert_same_hull(gens)
        assert hulls == 11

    def test_many_simplicial_facets(self):
        # points in general position in dims 6-7: hundreds of facets
        rng = random.Random(419)
        for dim, size in ((6, 22), (7, 18)):
            points = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(size)]
            self.assert_same_hull(points)
            assert len(LatticePolytope(points).facets()) > 200

    def test_insertion_orders(self):
        # _facet_rows in any order: the same rows, and each mask the points tight on its row
        rng = random.Random(415)
        checked = 0
        for k in range(120):
            dim = 2 + k % 4
            points = list({tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(dim + 8)})
            q = LatticePolytope(points)
            if not q.is_full_dimensional():
                continue
            rng.shuffle(points)
            index = {v: i for i, v in enumerate(points)}
            start = geometry._affine_basis(points)[0]
            start_adj = geometry._difference_adjugate(start)
            rows, masks = geometry._facet_rows(points, [index[v] for v in start], *start_adj)
            assert sorted(rows) == list(q.facets()), points
            for (a, b), mask in zip(rows, masks):
                assert mask == sum(1 << i for i, v in enumerate(points) if geometry.vec_dot(a, v) == b)
            checked += 1
        assert checked >= 100


class TestLazyVolume:
    """The normalized volume is computed on first use, from one placing pass
    over the vertices, and kept; dilate scales a known volume and leaves an
    unknown one unknown, to be computed from its own vertices."""

    def test_computed_once(self, monkeypatch):
        p = hull_unit_cube(4)
        assert p._volume is None
        passes = []
        original = geometry._placing_cells

        def counting(points):
            passes.append(list(points))
            return original(points)

        monkeypatch.setattr(geometry, "_placing_cells", counting)
        assert normalized_volume(p) == normalized_volume(p) == 24
        assert passes == [list(p.vertices)]
        flat = LatticePolytope([(0, 0, 0), (1, 2, 3), (2, 0, 1)])
        assert normalized_volume(flat) == 0 and len(passes) == 1

    def test_dilate(self, monkeypatch):
        rng = random.Random(416)
        for k in range(60):
            dim = 1 + k % 4
            p = LatticePolytope(random_point_set(rng, dim, flat=k % 4 == 0))
            for h in (1, 2, 3):
                q = dilate(p, h)
                assert q._volume is None
                assert normalized_volume(q) == normalized_volume(rehull_dilate(p, h))
            volume = normalized_volume(p)
            with monkeypatch.context() as m:
                m.setattr(geometry, "_placing_cells", None)  # no pass: the volume is scaled
                for h in (1, 2, 3):
                    assert normalized_volume(dilate(p, h)) == h**dim * volume


class TestUnitCubeFixture:
    """fixtures.unit_cube, built from its known parts, is the hull of its
    vertex list slot for slot, with the lattice points that hull's
    enumeration finds and, up to n = 6, the volume its placing pass sums."""

    def test_unit_cube_is_the_hull_of_its_vertices(self):
        for n in range(1, 9):
            cube, hull = unit_cube(n), hull_unit_cube(n)
            for slot in ("vertices", "dim", "_facets", "_masks", "_hull_dim"):
                assert getattr(cube, slot) == getattr(hull, slot), (n, slot)
            assert _projection_rows(cube) == _projection_rows(hull), n
            assert lattice_points(cube) == lattice_points(hull) == hull.vertices, n
            if n <= 6:
                assert normalized_volume(cube) == normalized_volume(hull) == math.factorial(n), n


class TestVertexExtraction:
    def test_interior_generator_dropped(self):
        p = LatticePolytope([(0, 0), (2, 0), (0, 2), (1, 1), (0, 1)])
        assert p.vertices == ((0, 0), (0, 2), (2, 0))
        assert set(p.vertices) <= {(0, 0), (2, 0), (0, 2), (1, 1), (0, 1)}

    def test_single_point(self):
        p = LatticePolytope([(5, -2)])
        assert p.vertices == ((5, -2),)
        assert lattice_points(p) == ((5, -2),)

    def test_no_point(self):
        for points in ([], (), iter([])):
            with pytest.raises(DimensionMismatchError, match="^a polytope needs at least one point$"):
                LatticePolytope(points)

    def test_duplicates_collapse(self):
        p = LatticePolytope([(0, 0), (0, 0), (1, 0)])
        assert p.vertices == ((0, 0), (1, 0))

    def test_all_generators_in_hull(self):
        rng = random.Random(13)
        for _ in range(30):
            dim = rng.choice((2, 3))
            gens = {tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(2, 8))}
            p = LatticePolytope(gens)
            for g in gens:
                assert contains(p, g)


class TestMembershipTriangulationCrossCheck:
    def test_contains_iff_in_some_cell(self):
        # membership must agree with cell membership in a triangulation
        rng = random.Random(21)
        done = 0
        while done < 25:
            dim = rng.choice((2, 3))
            p = random_polytope(rng, dim, bound=3, max_points=7)
            if not p.is_full_dimensional():
                continue
            cover = placing_cover(p)
            for _ in range(8):
                q = random_rational_point(rng, dim, bound=4, denominator_max=3)
                in_cells = any(c.contains_point(q) for c in cover.cells)
                assert contains(p, q) == in_cells
            done += 1
