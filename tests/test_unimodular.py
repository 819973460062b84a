import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    cofactor_interior_rows,
    fraction_affine_basis,
    fraction_solve,
    full_placing_search,
    multiset_decompositions,
    pairwise_verify_cover,
    placing_cover,
    random_polytope,
    random_simplex,
    random_unimodular_simplex,
    staircase_cells,
)
from latticeforge import (
    CoverageError,
    LatticePolytope,
    LatticeSimplex,
    NotUnimodularError,
    PointOutsideError,
    SimplicialCover,
    contains,
    decompose,
    decompose_in_simplex,
    dilate,
    find_ell,
    find_unimodular_triangulation,
    hnf_diagonal,
    idp_scan,
    is_unimodular,
    lattice_index,
    lattice_points,
    normalized_volume,
    verify_cover,
)
from latticeforge import geometry, lp, sumsets, unimodular
from latticeforge.errors import DegeneratePolytopeError, DimensionMismatchError
from latticeforge.fixtures import reeve_simplex, std_simplex, stretched_simplex, unit_cube, unit_square
from latticeforge.geometry import vec_scale, vec_sub
from latticeforge.unimodular import _draw, _facets_match, _interiors_intersect, _placing_search


def simplex_of(p: LatticePolytope) -> LatticeSimplex:
    s = p.as_simplex()
    assert s is not None
    return s


STD3 = simplex_of(std_simplex(3))
A1 = simplex_of(stretched_simplex())
A2 = simplex_of(reeve_simplex())


class TestLatticeIndex:
    def test_standard_simplex(self):
        assert lattice_index(STD3) == 1
        assert is_unimodular(STD3)

    def test_stretched_simplex(self):
        assert lattice_index(A1) == 2
        assert not is_unimodular(A1)
        assert hnf_diagonal(A1) == (1, 1, 2)

    def test_reeve_simplex(self):
        assert lattice_index(A2) == 2
        assert not is_unimodular(A2)
        assert hnf_diagonal(A2) == (1, 1, 2)

    def test_invariant_under_vertex_permutation(self):
        rng = random.Random(5)
        for _ in range(20):
            s = random_unimodular_simplex(rng, rng.choice((2, 3)), spread=6)
            perm = list(s.vertices)
            rng.shuffle(perm)
            assert lattice_index(LatticeSimplex(perm)) == lattice_index(s)
        scrambled = LatticeSimplex([A1.vertices[i] for i in (2, 0, 3, 1)])
        assert lattice_index(scrambled) == 2


class TestDecomposeInSimplex:
    def test_vertex_multiple(self):
        for h in (1, 2, 5):
            d = decompose_in_simplex(STD3, tuple(h * x for x in STD3.vertices[0]), h)
            assert d.weights[0][1] == h
            assert all(w == 0 for _, w in d.weights[1:])
            assert d.parts == (STD3.vertices[0],) * h

    def test_standard_two_simplex(self):
        s = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        d = decompose_in_simplex(s, (1, 1), 2)
        assert [w for _, w in d.weights] == [0, 1, 1]
        assert d.parts == ((0, 1), (1, 0))

    def test_sheared_triangle_all_weights_one(self):
        s = LatticeSimplex([(0, 0), (1, 0), (1, 1)])
        d = decompose_in_simplex(s, (2, 1), 3)
        assert [w for _, w in d.weights] == [1, 1, 1]
        # exhaustive oracle over all 3-multisets of the vertices
        assert multiset_decompositions(s.vertices, (2, 1), 3) == [d.parts]

    def test_weights_recombine_and_match_rational_oracle(self):
        # seeded unimodular simplices in dims 1-5, each also with its vertices
        # permuted, so both det signs occur; the oracle is the rational solve
        # of the difference system, and a point of the box outside the dilate
        # must be refused exactly when the oracle has a negative weight
        rng = random.Random(1968)
        signs, refused = set(), 0
        for _ in range(40):
            dim = rng.randint(1, 5)
            s = random_unimodular_simplex(rng, dim, spread=4)
            perm = list(s.vertices)
            rng.shuffle(perm)
            for cell in (s, LatticeSimplex(perm)):
                signs.add(cell.det)
                h = rng.randint(1, 3)
                inside = lattice_points(dilate(cell.hull(), h))
                lo, hi = dilate(cell.hull(), h).bounding_box()
                box = [tuple(rng.randint(a, b) for a, b in zip(lo, hi)) for _ in range(5)]
                for p in rng.sample(inside, min(5, len(inside))) + box:
                    tail = fraction_solve(cell.difference_matrix, vec_sub(p, vec_scale(cell.vertices[0], h)))
                    expected = [h - sum(tail), *tail]
                    if min(expected) < 0:
                        with pytest.raises(PointOutsideError):
                            decompose_in_simplex(cell, p, h)
                        refused += 1
                        continue
                    w = [x for _, x in decompose_in_simplex(cell, p, h).weights]
                    assert tuple(map(sum, zip(*map(vec_scale, cell.vertices, w)))) == p
                    assert sum(w) == h
                    assert w == expected
        assert signs == {-1, 1} and refused >= 100

    def test_not_unimodular_rejected(self):
        with pytest.raises(NotUnimodularError):
            decompose_in_simplex(A2, (1, 1, 2), 2)

    def test_point_outside_rejected(self):
        with pytest.raises(PointOutsideError):
            decompose_in_simplex(STD3, (3, 3, 3), 2)

    def test_weights_unique_under_vertex_permutation(self):
        rng = random.Random(9)
        for _ in range(15):
            s = random_unimodular_simplex(rng, rng.choice((2, 3)), spread=5)
            h = rng.randint(1, 3)
            pts = lattice_points(dilate(s.hull(), h))
            p = rng.choice(pts)
            d1 = decompose_in_simplex(s, p, h)
            perm = list(s.vertices)
            rng.shuffle(perm)
            d2 = decompose_in_simplex(LatticeSimplex(perm), p, h)
            assert d1.parts == d2.parts

    def test_soundness_both_directions(self):
        # decomposability and the h-multiset sums describe the same set
        rng = random.Random(10)
        for _ in range(12):
            dim = rng.choice((2, 3))
            s = random_unimodular_simplex(rng, dim, spread=5)
            for h in (1, 2, 3):
                enumerated = set(lattice_points(dilate(s.hull(), h)))
                summed = set()
                for combo in itertools.combinations_with_replacement(s.vertices, h):
                    summed.add(tuple(sum(c) for c in zip(*combo)))
                assert summed == enumerated
                for p in enumerated:
                    d = decompose_in_simplex(s, p, h)
                    assert tuple(sum(c) for c in zip(*d.parts)) == p
                    assert sum(w for _, w in d.weights) == h


class TestInteriorInequalities:
    def test_equal_to_cofactor_rows(self):
        # seeded simplices in dims 1-8, each also with its first two vertices
        # swapped, which flips the det sign: each cell's cached weight rows
        # equal the rows of one cofactor elimination per facet, entry for
        # entry and in order
        rng = random.Random(42)
        signs = Counter()
        for k in range(300):
            s = random_simplex(rng, 1 + k % 8)
            v = s.vertices
            for cell in (s, LatticeSimplex((v[1], v[0], *v[2:]))):
                signs[cell.det > 0] += 1
                assert cell._weight_rows() == cofactor_interior_rows(cell), cell
                assert cell._weight_rows() is cell._weight_rows()
        assert min(signs.values()) == 300


class TestVerifyCover:
    def test_simplex_covers_itself(self):
        p = std_simplex(3)
        cover = SimplicialCover(target=p, cells=(STD3,))
        assert verify_cover(cover).status == "certified"

    def test_square_diagonal_split(self):
        p = unit_square()
        cells = (
            LatticeSimplex([(0, 0), (1, 0), (0, 1)]),
            LatticeSimplex([(1, 0), (0, 1), (1, 1)]),
        )
        cert = verify_cover(SimplicialCover(target=p, cells=cells))
        assert cert.status == "certified"
        assert cert.problems == ()

    def test_volume_deficit(self):
        p = unit_square()
        cover = SimplicialCover(target=p, cells=(LatticeSimplex([(0, 0), (1, 0), (0, 1)]),))
        cert = verify_cover(cover)
        assert cert.status == "uncertified"
        assert any("volume" in msg for msg in cert.problems)

    def test_overlapping_cells_detected(self):
        p = unit_square()
        cells = (
            LatticeSimplex([(0, 0), (1, 0), (0, 1)]),
            LatticeSimplex([(0, 0), (1, 0), (1, 1)]),
        )
        cert = verify_cover(SimplicialCover(target=p, cells=cells))
        assert cert.status == "uncertified"
        assert any("interior" in msg for msg in cert.problems)

    def test_cell_outside_target(self):
        p = unit_square()
        cells = (
            LatticeSimplex([(0, 0), (1, 0), (0, 1)]),
            LatticeSimplex([(1, 0), (2, 0), (1, 1)]),
        )
        cert = verify_cover(SimplicialCover(target=p, cells=cells))
        assert cert.status == "uncertified"
        assert any("outside" in msg for msg in cert.problems)

    def test_non_unimodular_cell_rejected(self):
        p = LatticePolytope([(0, 0), (2, 0), (0, 1), (2, 1)])
        cells = (
            LatticeSimplex([(0, 0), (2, 0), (0, 1)]),
            LatticeSimplex([(2, 0), (0, 1), (2, 1)]),
        )
        cert = verify_cover(SimplicialCover(target=p, cells=cells))
        assert cert.status == "uncertified"
        assert any("unimodular" in msg for msg in cert.problems)

    def test_general_cover_gets_vertices_only(self):
        p = unit_square()
        cells = (
            LatticeSimplex([(0, 0), (1, 0), (0, 1)]),
            LatticeSimplex([(0, 0), (1, 0), (1, 1)]),  # overlaps, but kind allows it
        )
        cert = verify_cover(SimplicialCover(target=p, cells=cells, kind="general-cover"))
        assert cert.status == "vertices-only"

    def test_empty_cover(self):
        cert = verify_cover(SimplicialCover(target=unit_square(), cells=()))
        assert cert.status == "uncertified"


class TestPlacingTriangulation:
    """Whole placing triangulations (helpers.placing_cover over
    geometry._placing_cells), non-unimodular cells kept."""

    def test_unit_square_two_triangles(self):
        cover = placing_cover(unit_square())
        assert len(cover.cells) == 2
        assert verify_cover(cover).status == "certified"

    def test_reeve_simplex_single_cell(self):
        cover = placing_cover(reeve_simplex())
        assert len(cover.cells) == 1
        assert set(cover.cells[0].vertices) == set(reeve_simplex().vertices)

    def test_unit_cube_six_tetrahedra(self):
        cover = placing_cover(unit_cube(3))
        assert len(cover.cells) == 6
        assert all(lattice_index(c) == 1 for c in cover.cells)
        assert sum(lattice_index(c) for c in cover.cells) == normalized_volume(unit_cube(3)) == 6

    def test_geometry_valid_even_when_not_unimodular(self):
        cover = placing_cover(stretched_simplex())
        cert = verify_cover(cover)
        # only unimodularity may fail, never the tiling geometry
        assert all("unimodular" in msg for msg in cert.problems)
        assert sum(lattice_index(c) for c in cover.cells) == normalized_volume(stretched_simplex())

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePolytopeError):
            placing_cover(LatticePolytope([(0, 0), (2, 0)]))

    def test_custom_order_still_tiles(self):
        rng = random.Random(77)
        pts = list(lattice_points(unit_cube(3)))
        for _ in range(10):
            rng.shuffle(pts)
            cover = placing_cover(unit_cube(3), order=pts)
            assert sum(lattice_index(c) for c in cover.cells) == 6
            cert = verify_cover(cover)
            assert not any("interior" in m or "volume" in m or "outside" in m for m in cert.problems)

    def test_random_polytopes_tile_exactly(self):
        rng = random.Random(78)
        done = 0
        while done < 15:
            p = random_polytope(rng, rng.choice((2, 3)), bound=2, max_points=6)
            if not p.is_full_dimensional():
                continue
            cover = placing_cover(p)
            assert sum(lattice_index(c) for c in cover.cells) == normalized_volume(p)
            done += 1


class TestNormalizedVolume:
    def test_cube_is_factorial(self):
        import math

        for n in (1, 2, 3, 4):
            assert normalized_volume(unit_cube(n)) == math.factorial(n)

    def test_simplex_is_index(self):
        assert normalized_volume(reeve_simplex()) == 2
        assert normalized_volume(std_simplex(4)) == 1

    def test_flat_polytope_is_zero(self):
        assert normalized_volume(LatticePolytope([(0, 0), (3, 0)])) == 0


class TestFindUnimodularTriangulation:
    def test_standard_simplices(self):
        for n in (1, 2, 3, 4):
            cover = find_unimodular_triangulation(std_simplex(n))
            assert cover is not None and cover.certified == "certified"
            assert len(cover.cells) == 1

    def test_unit_square(self):
        cover = find_unimodular_triangulation(unit_square())
        assert cover is not None
        assert len(cover.cells) == 2
        assert all(is_unimodular(c) for c in cover.cells)

    def test_reeve_simplex_provably_none(self):
        assert find_unimodular_triangulation(reeve_simplex(), attempts=8) is None
        assert _placing_search(reeve_simplex(), 8, 0) == ("impossible", None)

    def test_stretched_simplex_found_via_midpoint(self):
        # the extra lattice point (0,0,1) splits the long edge into two
        # unimodular tetrahedra, so the search must succeed
        cover = find_unimodular_triangulation(stretched_simplex())
        assert cover is not None
        assert len(cover.cells) == 2
        assert sorted(lattice_index(c) for c in cover.cells) == [1, 1]

    def test_attempts_validated(self):
        with pytest.raises(ValueError):
            find_unimodular_triangulation(unit_square(), attempts=0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePolytopeError, match="full-dimensional"):
            find_unimodular_triangulation(LatticePolytope([(0, 0), (1, 1), (2, 2)]))


# Its lexicographic order and the first two drawn orders at seed 19 fail;
# the third drawn order gives a unimodular triangulation.
DRAWN_ONLY = LatticePolytope([(-2, 0, 0), (0, 1, 1), (1, -1, 1), (1, -1, 2), (1, 0, -1), (2, 0, 0)])


class TestSearchEarlyAbortOracle:
    """The search that stops at the first non-unimodular cell against one
    that builds every placing triangulation in full before judging it."""

    @staticmethod
    def _outcome(search, p, **kwargs):
        try:
            cover = search(p, **kwargs)
        except DegeneratePolytopeError:
            return "degenerate"
        return None if cover is None else (cover.cells, cover.certified)

    def test_random_polytopes(self):
        rng = random.Random(8128)
        found = 0
        for trial in range(40):
            p = random_polytope(rng, rng.choice((2, 3)), bound=2, max_points=7)
            kwargs = {"attempts": 6, "seed": trial}
            expected = self._outcome(full_placing_search, p, **kwargs)
            assert self._outcome(find_unimodular_triangulation, p, **kwargs) == expected, p
            found += isinstance(expected, tuple)
        assert 0 < found < 40

    def test_reeve_dilates(self):
        for ell in (1, 2, 3):
            p = dilate(reeve_simplex(), ell)
            expected = self._outcome(full_placing_search, p, seed=ell)
            assert self._outcome(find_unimodular_triangulation, p, seed=ell) == expected

    def test_drawn_certificates(self):
        # only drawn orders certify DRAWN_ONLY: at 7 of these 30 seeds, after
        # 2 to 17 drawn orders that failed, each at its own point
        found = 0
        for seed in range(30):
            expected = self._outcome(full_placing_search, DRAWN_ONLY, seed=seed)
            assert self._outcome(find_unimodular_triangulation, DRAWN_ONLY, seed=seed) == expected
            found += expected is not None
        assert found == 7


class TestSimplexSearchOneOrder:
    """A polytope whose lattice points are the n+1 vertices of a simplex is
    searched in one insertion order, however many attempts are allowed:
    every order places the same single cell.  The verdicts equal the full
    search's, which builds all 20 placing triangulations."""

    @staticmethod
    def _count_placings(monkeypatch):
        # the size of each pass's input, or None for an order drawn as it is read
        calls = []
        original = unimodular._placing_cells

        def counting(points, dim):
            calls.append(len(points) if isinstance(points, (list, tuple)) else None)
            return original(points, dim)

        monkeypatch.setattr(unimodular, "_placing_cells", counting)
        return calls

    @staticmethod
    def _verdict(cover):
        return None if cover is None else (cover.cells, cover.certified)

    def test_simplices(self, monkeypatch):
        polytopes = [reeve_simplex(q) for q in (1, 2, 3, 5)] + [std_simplex(n) for n in range(1, 6)]
        expected = [self._verdict(full_placing_search(p, seed=3)) for p in polytopes]
        assert [v is None for v in expected] == [False, True, True, True] + [False] * 5
        calls = self._count_placings(monkeypatch)
        for p, verdict in zip(polytopes, expected):
            calls.clear()
            assert self._verdict(find_unimodular_triangulation(p, seed=3)) == verdict, p
            assert calls == [p.dim + 1], p

    def test_other_polytopes_keep_every_attempt(self, monkeypatch):
        # stretched_simplex has a fifth lattice point; its first order succeeds
        stretched, reeve2 = stretched_simplex(), dilate(reeve_simplex(), 2)
        expected = [self._verdict(full_placing_search(p)) for p in (stretched, reeve2)]
        assert expected[0] is not None and expected[1] is None
        calls = self._count_placings(monkeypatch)
        assert self._verdict(find_unimodular_triangulation(stretched)) == expected[0]
        assert calls == [5]
        calls.clear()
        assert self._verdict(find_unimodular_triangulation(reeve2)) == expected[1]
        assert calls == [len(lattice_points(reeve2))] + [None] * 19

    def test_find_ell_simplex_row(self, monkeypatch):
        calls = self._count_placings(monkeypatch)
        report = find_ell(reeve_simplex(), 1, 1, attempts=20)
        assert report.per_ell[0].certificate == "impossible"
        assert calls == [4]


class TestDrawnOrders:
    """The orders after the lexicographic one are drawn front first
    (unimodular._draw), one point at a time, from one random.Random(seed)
    per search."""

    def test_full_draw_is_a_permutation(self):
        rng = random.Random(5)
        for n in range(0, 40):
            pts = [(i, -i) for i in range(n)]
            order = pts[:]
            drawn = list(_draw(rng, order))
            assert drawn == order and sorted(order) == pts

    def test_uniform_over_permutations(self):
        rng = random.Random(6)
        counts = Counter(tuple(_draw(rng, [0, 1, 2])) for _ in range(6000))
        assert len(counts) == 6 and all(850 < c < 1150 for c in counts.values()), counts

    def test_exact_integer_draws(self):
        # getrandbits only: the float generator is never asked
        rng = random.Random(7)
        rng.random = None
        assert sorted(_draw(rng, list(range(50)))) == list(range(50))

    def test_same_seed_same_sequence(self):
        pts = list(lattice_points(dilate(reeve_simplex(), 3)))
        runs = []
        for _ in range(2):
            rng = random.Random(11)
            runs.append([list(_draw(rng, pts[:])) for _ in range(5)])
        assert runs[0] == runs[1] and len({tuple(o) for o in runs[0]}) == 5

    def test_doomed_prefix_is_the_full_draw_prefix(self):
        # an attempt that stops after m points leaves the generator where the
        # next attempt draws on; the m points are the complete draw's first m
        pts = list(lattice_points(dilate(reeve_simplex(), 2)))
        rng = random.Random(12)
        for m in range(len(pts) + 1):
            state = rng.getstate()
            order = pts[:]
            prefix = list(itertools.islice(_draw(rng, order), m))
            after = rng.getstate()
            replay = random.Random()
            replay.setstate(state)
            full = list(_draw(replay, pts[:]))
            assert prefix == full[:m] == order[:m]
            # the search's own pass stops where placing stops reading
            replay.setstate(state)
            read = []
            cells = unimodular._placing_cells((read.append(q) or q for q in _draw(replay, pts[:])), 3)
            first, volume = next(cells)
            assert read == full[: len(read)] and len(read) >= 4
            rng.setstate(after)

    def test_only_a_drawn_order_certifies(self, monkeypatch):
        assert find_unimodular_triangulation(DRAWN_ONLY, attempts=1) is None
        assert find_unimodular_triangulation(DRAWN_ONLY, attempts=3, seed=19) is None
        recorded = []
        original = unimodular._record_volume

        def recording(p, order, volume):
            recorded.append((list(order), volume))
            return original(p, order, volume)

        monkeypatch.setattr(unimodular, "_record_volume", recording)
        cover = find_unimodular_triangulation(DRAWN_ONLY, attempts=4, seed=19)
        assert cover is not None and cover.certified == "certified"
        # the order handed on is the whole drawn order, and places the cover
        [(order, volume)] = recorded
        assert sorted(order) == list(lattice_points(DRAWN_ONLY))
        assert volume == len(cover.cells) == normalized_volume(DRAWN_ONLY)
        assert placing_cover(DRAWN_ONLY, order).cells == cover.cells
        assert (cover.cells, cover.certified) == (
            full_placing_search(DRAWN_ONLY, attempts=4, seed=19).cells,
            "certified",
        )


class TestSeedChecked:
    """The searches take an int seed only: random.Random(None) would seed
    from the OS and make the verdict change from run to run."""

    @pytest.mark.parametrize("seed", [None, 1.5, "abc", True, Fraction(1)])
    def test_non_int_seed_refused(self, seed):
        with pytest.raises(TypeError, match="^seed must be an integer"):
            find_unimodular_triangulation(DRAWN_ONLY, seed=seed)
        with pytest.raises(TypeError, match="^seed must be an integer"):
            find_ell(DRAWN_ONLY, 1, 1, seed=seed)

    def test_same_int_seed_same_verdict(self):
        def search(seed):
            p = LatticePolytope(DRAWN_ONLY.vertices)
            cover = find_unimodular_triangulation(p, attempts=4, seed=seed)
            return None if cover is None else cover.cells

        outcomes = [search(seed) for seed in (19, 20, -3, 2**70) for _ in range(3)]
        for k in range(0, len(outcomes), 3):
            assert outcomes[k] == outcomes[k + 1] == outcomes[k + 2]
        assert outcomes[0] is not None

    def test_find_ell_same_int_seed_same_report(self):
        reports = [find_ell(LatticePolytope(DRAWN_ONLY.vertices), 2, 1, attempts=3, seed=19) for _ in range(2)]
        assert reports[0] == reports[1]


class TestMarginLPCount:
    """Exact count of margin LPs: the separating-facet test settles every
    cell pair of these placing triangulations, so none reaches the LP."""

    @pytest.fixture
    def margin_calls(self, monkeypatch):
        calls = []
        original = lp.max_min_margin

        def counting(ineqs, n):
            value = original(ineqs, n)
            calls.append(value)
            return value

        monkeypatch.setattr(lp, "max_min_margin", counting)
        return calls

    def test_no_margin_lp_in_cube_searches(self, margin_calls):
        for p in (unit_cube(3), unit_cube(4), dilate(unit_cube(3), 2)):
            cover = find_unimodular_triangulation(p)
            assert cover is not None and cover.certified == "certified"
            # from a fresh polytope: a cube's search pass is its volume pass
            assert len(cover.cells) == normalized_volume(LatticePolytope(p.vertices))
        assert margin_calls == []

    def test_pair_no_facet_separates_takes_one_lp(self, margin_calls):
        # Unimodular tetrahedra with overlapping bounding boxes and no
        # facet of either separating them; the LP margin -1/16 proves the
        # interiors disjoint.
        a = LatticeSimplex([(0, 1, 0), (0, 1, 1), (-1, -1, -1), (-1, 0, 0)])
        b = LatticeSimplex([(0, -1, 0), (-1, 0, 1), (-1, -1, 1), (1, 1, 0)])
        assert is_unimodular(a) and is_unimodular(b)
        assert not _interiors_intersect(a, b)
        assert margin_calls == [Fraction(-1, 16)]


class TestSearchVolume:
    """The search's placing pass doubles as the volume pass exactly when the
    lattice points are the vertices: cube-n is placed once and gets volume
    n!; 2*cube-3 gets the search's pass over its 27 points and an
    independent pass over the 8 vertices of its base, cube-3."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        original = geometry._placing_cells

        def counting(points, dim):
            calls.append(list(points))
            return original(points, dim)

        monkeypatch.setattr(geometry, "_placing_cells", counting)
        monkeypatch.setattr(unimodular, "_placing_cells", counting)
        return calls

    def test_cubes_place_once(self, passes):
        for n in range(1, 7):
            p = unit_cube(n)
            passes.clear()
            cover = find_unimodular_triangulation(p)
            assert cover is not None and cover.certified == "certified"
            assert passes == [list(p.vertices)]
            assert p._volume == math.factorial(n) == len(cover.cells)

    def test_other_lattice_points_keep_the_vertex_pass(self, passes):
        base = unit_cube(3)
        p = dilate(base, 2)
        cover = find_unimodular_triangulation(p)
        assert cover is not None and cover.certified == "certified"
        assert passes == [list(lattice_points(p)), list(base.vertices)]
        assert len(p.vertices) == 8 and p._volume == 8 * math.factorial(3) == len(cover.cells)
        assert base._volume == math.factorial(3)

    def test_only_the_vertex_sequence_is_recorded(self):
        p = unit_cube(3)
        geometry._record_volume(p, list(reversed(p.vertices)), 6)
        geometry._record_volume(p, list(p.vertices)[:-1], 6)
        assert p._volume is None
        geometry._record_volume(p, list(p.vertices), 6)
        assert p._volume == 6
        geometry._record_volume(p, list(p.vertices), 7)
        assert p._volume == 6

    def test_a_dilates_pass_is_kept_by_its_base(self):
        base = unit_cube(3)
        p = dilate(dilate(base, 2), 3)
        geometry._record_volume(p, list(p.vertices), 6**3 * 6)
        assert p._volume == 6**3 * 6 and base._volume == 6
        assert normalized_volume(dilate(base, 5)) == 5**3 * 6


def _unimodular_images(seed, count):
    """(target, cells): searched unimodular triangulations in dims 2-5.

    Each target is the image of a unit cube (dims 2-4) or of twice a
    standard simplex (dims 2-5) under a seeded unimodular affine map, and
    the search's seeded insertion orders vary the triangulation.
    """
    rng = random.Random(seed)
    bases = [unit_cube(d) for d in (2, 3, 4)] + [dilate(std_simplex(d), 2) for d in (2, 3, 4, 5)]
    out = []
    while len(out) < count:
        base = rng.choice(bases)
        n = base.dim
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            sign = rng.choice((-1, 1))
            rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
        shift = [rng.randint(-2, 2) for _ in range(n)]
        p = LatticePolytope(
            [tuple(sum(r * x for r, x in zip(row, v)) + t for row, t in zip(rows, shift)) for v in base.vertices]
        )
        cover = find_unimodular_triangulation(p, attempts=4, seed=len(out))
        if cover is not None:
            out.append((p, list(cover.cells)))
    return out


def _placing_triangulations(seed, count):
    """(target, cells): placing triangulations of seeded polytopes in dims 2-5, in shuffled orders."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.choice((2, 3, 4, 5))
        p = random_polytope(rng, dim, bound=2, max_points=7 if dim < 5 else 6)
        if not p.is_full_dimensional() or len(lattice_points(p)) > 30:
            continue
        order = list(lattice_points(p))
        rng.shuffle(order)
        out.append((p, list(placing_cover(p, order).cells)))
    return out


def _mutants(rng, p, cells):
    """(label, target, cells): the cover itself and broken or rearranged copies of it."""
    yield "valid", p, cells
    yield "reversed", p, cells[::-1]
    k, j = rng.randrange(len(cells)), rng.randrange(len(cells))
    yield "dropped", p, cells[:k] + cells[k + 1 :]
    yield "duplicated", p, cells + [cells[k]]
    yield "duplicate swapped in", p, cells[:j] + [cells[k]] + cells[j + 1 :]
    pts = list(lattice_points(p))
    for _ in range(200):
        # cell j with one vertex moved to another lattice point of p
        verts = list(cells[j].vertices)
        verts[rng.randrange(len(verts))] = rng.choice(pts)
        try:
            other = LatticeSimplex(verts)
        except DegeneratePolytopeError:
            continue
        if other not in cells and abs(other.det) == abs(cells[j].det):
            yield "overlapping cell swapped in", p, cells[:j] + [other] + cells[j + 1 :]
            break
    flat = LatticePolytope([q for q in pts if q[0] == pts[0][0]])
    yield "flat target", flat, cells
    yield "cell of another dimension", p, cells + [LatticeSimplex(staircase_cells(p.dim - 1)[0])]


class TestFacetMatchingAgainstPairwise:
    """verify_cover, facet matching first, against the oracle that tests
    every pair of cells: the same status and the same problems."""

    def test_seeded_triangulations_and_mutants(self):
        rng = random.Random(6)
        seen = Counter()
        for p, cells in _unimodular_images(2026, 20):
            for label, target, mutant in _mutants(rng, p, cells):
                cover = SimplicialCover(target=target, cells=tuple(mutant))
                expected = pairwise_verify_cover(cover)
                assert verify_cover(cover) == expected, (label, p, mutant)
                seen[label, expected.status] += 1
        assert seen["valid", "certified"] == seen["reversed", "certified"] == 20
        assert seen["overlapping cell swapped in", "uncertified"] == 20
        assert seen["flat target", "uncertified"] == 20

    def test_matching_holds_on_every_placing_triangulation(self):
        # face to face by construction, whether or not the cells are unimodular
        for p, cells in _placing_triangulations(7, 60):
            assert _facets_match(cells, p)
            assert _facets_match(cells[::-1], p)

    def test_matching_implies_a_tiling(self):
        # the theorem, on mutants of covers that need not be unimodular:
        # cells inside the target whose volumes sum to its own and whose
        # facets match have pairwise disjoint interiors
        rng = random.Random(8)
        matched = 0
        for p, cells in _placing_triangulations(9, 40):
            for label, target, mutant in _mutants(rng, p, cells):
                if (
                    target.is_full_dimensional()
                    and all(c.dim == target.dim for c in mutant)
                    and all(contains(target, v) for c in mutant for v in c.vertices)
                    and sum(lattice_index(c) for c in mutant) == normalized_volume(target)
                    and _facets_match(mutant, target)
                ):
                    matched += 1
                    assert not any(
                        _interiors_intersect(a, b) for a, b in itertools.combinations(mutant, 2)
                    ), (label, p, mutant)
        assert matched >= 80

    def test_half_covered_twice_is_rejected(self):
        # two different triangulations of [0,1]^2 have the volume of
        # [0,2]x[0,1], and every facet key occurs twice, but the shared edges
        # have both apexes on one side
        diagonal = [[(0, 0), (1, 0), (1, 1)], [(0, 0), (0, 1), (1, 1)]]
        antidiagonal = [[(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]]
        target = LatticePolytope([(0, 0), (2, 0), (0, 1), (2, 1)])
        cells = tuple(LatticeSimplex(c) for c in diagonal + antidiagonal)
        cover = SimplicialCover(target=target, cells=cells)
        assert not _facets_match(cells, target)
        cert = verify_cover(cover)
        assert cert == pairwise_verify_cover(cover)
        assert cert.status == "uncertified"

    def test_matching_is_not_asked_once_another_check_fails(self):
        # the unimodular triangulation of [0,2]^2 and the two corner
        # triangles of index 4 share no facet key, so their facets match;
        # the volume check fails, and the overlapping pairs are still listed
        fine = [
            [(x, y), (x + 1, y), (x + 1, y + 1)] for x in (0, 1) for y in (0, 1)
        ] + [[(x, y), (x, y + 1), (x + 1, y + 1)] for x in (0, 1) for y in (0, 1)]
        coarse = [[(0, 0), (2, 0), (2, 2)], [(0, 0), (0, 2), (2, 2)]]
        target = LatticePolytope([(0, 0), (2, 0), (0, 2), (2, 2)])
        cells = tuple(LatticeSimplex(c) for c in fine + coarse)
        cover = SimplicialCover(target=target, cells=cells)
        assert _facets_match(cells, target)
        cert = verify_cover(cover)
        assert cert == pairwise_verify_cover(cover)
        assert sum("share an interior point" in m for m in cert.problems) == 8

    def test_non_face_to_face_dissection_falls_back(self, monkeypatch):
        # the staircase of [0,1]^3 and the y -> 1-y reflected staircase of
        # [1,2]x[0,1]^2 split the square x = 1 along different diagonals
        left = staircase_cells(3)
        right = [[(x + 1, 1 - y, z) for x, y, z in c] for c in staircase_cells(3)]
        target = LatticePolytope(itertools.product((0, 1, 2), (0, 1), (0, 1)))
        cells = tuple(LatticeSimplex(c) for c in left + right)
        cover = SimplicialCover(target=target, cells=cells)
        assert not _facets_match(cells, target)
        calls = _count_pair_tests(monkeypatch)
        cert = verify_cover(cover)
        assert len(calls) == 66  # every pair of the 12 cells
        assert cert == pairwise_verify_cover(cover)
        assert cert.status == "certified"


def _count_pair_tests(monkeypatch):
    calls = []
    original = unimodular._interiors_intersect

    def counting(*args):
        calls.append(args[:2])
        return original(*args)

    monkeypatch.setattr(unimodular, "_interiors_intersect", counting)
    return calls


class TestPairTestCount:
    """Exact count of pair tests: facet matching certifies these searched
    covers with no cell pair tested."""

    def test_no_pair_tests_in_cube_searches(self, monkeypatch):
        calls = _count_pair_tests(monkeypatch)
        for p in (unit_cube(4), dilate(unit_cube(3), 2)):
            cover = find_unimodular_triangulation(p)
            assert cover is not None and cover.certified == "certified"
            assert len(cover.cells) == normalized_volume(p)
        assert calls == []


class TestDecompose:
    def test_square_center_point(self):
        p = unit_square()
        cover = find_unimodular_triangulation(p)
        d = decompose(p, cover, (1, 1), 2)
        assert len(d.parts) == 2
        assert tuple(sum(c) for c in zip(*d.parts)) == (1, 1)
        assert set(d.parts) <= set(lattice_points(p))
        assert multiset_decompositions(lattice_points(p), (1, 1), 2)  # oracle agrees some exist
        # deterministic: the same call gives the same parts
        assert decompose(p, cover, (1, 1), 2).parts == d.parts

    def test_vertex_multiple(self):
        p = unit_square()
        cover = find_unimodular_triangulation(p)
        d = decompose(p, cover, (3, 3), 3)
        assert d.parts == ((1, 1), (1, 1), (1, 1))

    def test_cube_three_parts(self):
        p = unit_cube(3)
        cover = find_unimodular_triangulation(p)
        d = decompose(p, cover, (1, 1, 1), 3)
        assert len(d.parts) == 3
        assert tuple(sum(c) for c in zip(*d.parts)) == (1, 1, 1)
        assert set(d.parts) <= set(lattice_points(p))
        support = [v for v, w in d.weights if w > 0]
        assert fraction_affine_basis(support) == support

    def test_point_outside(self):
        p = unit_square()
        cover = find_unimodular_triangulation(p)
        with pytest.raises(PointOutsideError):
            decompose(p, cover, (7, 0), 2)

    def test_uncertified_cover_rejected(self):
        p = unit_square()
        cover = placing_cover(p)  # not stamped certified
        with pytest.raises(ValueError):
            decompose(p, cover, (1, 1), 2)

    def test_cover_of_another_polytope_rejected(self):
        # a certified cover of 2*square would give parts ((2, 2),), a point
        # outside the square
        p = unit_square()
        cover = find_unimodular_triangulation(dilate(p, 2))
        assert cover is not None and cover.certified == "certified"
        with pytest.raises(ValueError, match="target"):
            decompose(p, cover, (2, 2), 1)

    def test_lying_certificate_detected(self):
        # a cover stamped certified that misses half the square
        p = unit_square()
        fake = SimplicialCover(
            target=p,
            cells=(LatticeSimplex([(0, 0), (1, 0), (0, 1)]),),
            certified="certified",
        )
        with pytest.raises(CoverageError):
            decompose(p, fake, (2, 2), 2)

    def test_first_cell_rule(self):
        p = unit_square()
        cells = (
            LatticeSimplex([(0, 0), (1, 0), (0, 1)]),
            LatticeSimplex([(1, 0), (0, 1), (1, 1)]),
        )
        cover = SimplicialCover(target=p, cells=cells, certified="certified")
        d = decompose(p, cover, (1, 1), 2)  # (1/2,1/2) lies in both cells
        assert d.cell == cells[0]


class TestCoverDecompositionEndToEnd:
    def test_random_polygons_decompose_every_dilate_point(self):
        # whenever a certified cover exists, every lattice point of every
        # small dilate must decompose, and the multiset oracle must agree
        # that a decomposition exists
        rng = random.Random(3333)
        done = 0
        while done < 8:
            p = random_polytope(rng, 2, bound=2, max_points=7)
            if not p.is_full_dimensional():
                continue
            cover = find_unimodular_triangulation(p, attempts=10)
            if cover is None:
                continue
            base = set(lattice_points(p))
            for h in (1, 2, 3):
                for point in lattice_points(dilate(p, h)):
                    d = decompose(p, cover, point, h)
                    assert len(d.parts) == h
                    assert tuple(sum(c) for c in zip(*d.parts)) == point
                    assert set(d.parts) <= base
                    assert multiset_decompositions(sorted(base), point, h)
            done += 1


class TestCertificateOracleAgreement:
    def test_fixture_polytopes(self):
        for p in (std_simplex(2), std_simplex(3), unit_square(), unit_cube(3)):
            cover = find_unimodular_triangulation(p)
            assert cover is not None
            assert all(r.holds for r in idp_scan(p, 4))

    def test_random_polygons(self):
        rng = random.Random(100)
        done = 0
        while done < 10:
            p = random_polytope(rng, 2, bound=2, max_points=6)
            if not p.is_full_dimensional():
                continue
            cover = find_unimodular_triangulation(p, attempts=10)
            if cover is None:
                continue
            assert all(r.holds for r in idp_scan(p, 3))
            done += 1


class TestFindEll:
    def test_standard_simplex_ell_one(self):
        report = find_ell(std_simplex(3), ell_max=2, h_max=3)
        assert report.ell == 1
        assert report.per_ell[0].certificate == "certified"
        assert all(r.holds for r in report.per_ell[0].idp)

    def test_unit_cube_ell_one(self):
        report = find_ell(unit_cube(3), ell_max=1, h_max=3)
        assert report.ell == 1
        assert report.per_ell[0].cell_count == 6

    def test_reeve_simplex_report(self):
        report = find_ell(reeve_simplex(), ell_max=3, h_max=3, attempts=8)
        rows = report.per_ell
        assert [row.ell for row in rows] == [1, 2, 3]
        assert rows[0].certificate == "impossible"
        assert rows[0].idp[0].holds
        assert not rows[0].idp[1].holds  # h = 2 failure on record
        assert (1, 1, 1) in rows[0].idp[1].witnesses
        # certificate-oracle agreement on every row
        for row in rows:
            if row.certificate == "certified":
                assert all(r.holds for r in row.idp)
        if report.ell is not None:
            assert all(r.holds for r in rows[report.ell - 1].idp)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_ell(unit_square(), ell_max=0, h_max=1)

    def test_h_max_checked_before_the_search(self, monkeypatch):
        monkeypatch.setattr(unimodular, "_placing_search", None)
        for h_max in (0, True, 2.0):
            with pytest.raises(ValueError, match="h_max"):
                find_ell(unit_cube(5), ell_max=3, h_max=h_max)

    def test_lattice_points_enumerated_once_per_row(self, monkeypatch):
        # per row: l*P once, kept for the search, the uniqueness test and
        # h = 1, then h*(l*P) for h = 2 as runs; P is a 3-simplex, so h = 3
        # is the dilate at h = 2 shifted by l*P's points, and nothing is
        # enumerated.  Counted at the kernel, as the real enumerations.
        calls = []
        original_runs = geometry._lattice_runs

        def counting_runs(levels, *box_and_weights):
            calls.append(levels)
            return original_runs(levels, *box_and_weights)

        monkeypatch.setattr(geometry, "_lattice_runs", counting_runs)
        monkeypatch.setattr(sumsets, "_lattice_runs", counting_runs)
        report = find_ell(reeve_simplex(), ell_max=5, h_max=3)
        assert [row.certificate for row in report.per_ell] == ["impossible"] + ["not-found"] * 4
        assert len(calls) == 5 * 2

    def test_projection_rows_eliminated_once(self, monkeypatch):
        # the first dilate's rows are P's, computed in P, and every later
        # dilate reads the same: d - 1 eliminations for the whole search
        calls = []
        original = geometry._eliminate

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(geometry, "_eliminate", counting)
        find_ell(reeve_simplex(), ell_max=5, h_max=3)
        assert calls == [2, 1]

    def test_one_volume_pass_per_search(self, monkeypatch):
        # a1 is certified at every ell and its lattice points are not its
        # vertices: the row at ell = 1 certifies with a volume pass over a1's
        # vertices, and later rows read ell^3 times that volume.  At h_max = 3
        # = d each row's scan also reads it, for the Ehrhart count at h = 3.
        passes = []
        original = geometry._placing_cells

        def counting(points, dim):  # normalized_volume's pass; the search imports its own name
            passes.append(points)
            return original(points, dim)

        monkeypatch.setattr(geometry, "_placing_cells", counting)
        for h_max in (2, 3):
            p = stretched_simplex()
            passes.clear()
            report = find_ell(p, ell_max=3, h_max=h_max)
            assert report.ell == 1
            assert [row.cell_count for row in report.per_ell] == [2, 16, 54]
            assert all(r.holds for row in report.per_ell for r in row.idp)
            assert passes == [p.vertices], h_max
            assert normalized_volume(p) == 2


class TestPositiveIntegerArguments:
    """Every count argument refuses 0, -1, True and 2.0 with one ValueError
    message per entry point, unchanged from when each carried its own check;
    find_ell refuses before any enumeration or search."""

    BAD = (0, -1, True, 2.0)

    @staticmethod
    def entry_points():
        square = unit_square()
        cover = find_unimodular_triangulation(square)
        pts = lattice_points(square)
        return [
            ("dilation factor", lambda v: dilate(square, v)),
            ("h", lambda v: decompose_in_simplex(STD3, (0, 0, 0), v)),
            ("h", lambda v: decompose(square, cover, (1, 1), v)),
            ("attempts", lambda v: find_unimodular_triangulation(square, attempts=v)),
            ("ell_max", lambda v: find_ell(square, ell_max=v, h_max=1)),
            ("attempts", lambda v: find_ell(square, ell_max=1, h_max=1, attempts=v)),
            ("h_max", lambda v: find_ell(square, ell_max=1, h_max=v)),
            ("h_max", lambda v: idp_scan(square, v)),
            ("number of summands", lambda v: sumsets.hfold_sumset(pts, v)),
            ("number of summands", lambda v: sumsets.idp_check(square, v)),
            ("number of parts", lambda v: sumsets.find_sum_decomposition(pts, (1, 1), v)),
        ]

    def test_messages(self):
        for what, call in self.entry_points():
            for value in self.BAD:
                with pytest.raises(ValueError) as caught:
                    call(value)
                assert str(caught.value) == f"{what} must be a positive integer, got {value!r}"

    def test_check_order(self, monkeypatch):
        square = unit_square()
        monkeypatch.setattr(unimodular, "lattice_points", None)
        monkeypatch.setattr(unimodular, "_placing_search", None)
        with pytest.raises(ValueError, match="^ell_max"):
            find_ell(square, ell_max=0, h_max=0, attempts=0)
        with pytest.raises(ValueError, match="^attempts"):
            find_ell(square, ell_max=1, h_max=0, attempts=0)
        # the simplex's index and the point's dimension are checked before h
        with pytest.raises(NotUnimodularError):
            decompose_in_simplex(A2, (0, 0, 0), 0)
        with pytest.raises(DimensionMismatchError):
            decompose_in_simplex(STD3, (0, 0), 0)
