import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from operator import add

import pytest

from helpers import (
    assembled_unit_cube,
    doubling_hfold_sumset,
    doubling_sumset,
    multiset_decompositions,
    naive_hfold,
    pairwise_bitset,
    per_h_idp_check,
    random_point_set,
    random_polytope,
    random_shear,
    runs_bitset,
    runs_idp_scan,
)
from latticeforge import (
    DimensionMismatchError,
    LatticeForgeError,
    LatticePolytope,
    ResourceLimitError,
    dilate,
    hfold_sumset,
    idp_check,
    idp_scan,
    lattice_points,
    normalized_volume,
    point_set,
    sumset,
)
from latticeforge import cli, geometry, sumsets
from latticeforge.fixtures import (
    reeve_simplex,
    std_simplex,
    stretched_simplex,
    unit_cube,
    unit_square,
)
from latticeforge.geometry import _box_cells, _frame, _projection_rows, contains, vec_dot, vec_scale
from latticeforge.sumsets import _bit_indices, find_sum_decomposition


REEVE_VERTICES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2))
NEEDLE = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (7, 7, 6), (8, 7, 6))
A2X3 = ((0, 0, 0), (3, 0, 0), (0, 3, 0), (3, 3, 6))


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
        expected = sorted({tuple(map(add, a, b)) for a in REEVE_VERTICES for b in REEVE_VERTICES})
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

    def test_operands_validated(self):
        # mixed dimensions within an operand, and coordinates that are not
        # ints, are refused as in hfold_sumset; duplicates and order do not matter
        with pytest.raises(DimensionMismatchError):
            sumset([(0, 5), (1, 2)], [(0, 0), (3,)])
        for s, t in (([(0.5,)], [(1,)]), ([(1,)], [(True,)])):
            with pytest.raises(TypeError):
                sumset(s, t)
        assert sumset([(1,), (0,), (1,)], [(2,), (0,)]) == ((0,), (1,), (2,), (3,))


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
        assert set(doubled) == {tuple(map(add, a, b)) for a in pts for b in pts}

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


class TestPackedAgainstDoubling:
    """The packed integer kernel against tuple sums by repeated doubling, on
    unsorted sets with repeats, negative coordinates and flat coordinates."""

    def test_sumset_and_hfold(self):
        rng = random.Random(33)
        for _ in range(80):
            dim = rng.randint(1, 5)
            spread = [rng.choice((0, 1, 6)) for _ in range(dim)]

            def rand_set():
                return [
                    tuple(rng.randint(-w, w) for w in spread) for _ in range(rng.randint(1, 6))
                ]

            s, t = rand_set(), rand_set()
            assert sumset(s, t) == doubling_sumset(s, t)
            h = rng.randint(1, 5)
            assert hfold_sumset(s, h) == doubling_hfold_sumset(s, h)

    def test_empty_operands(self):
        assert sumset((), ((1, 2),)) == ()
        assert sumset(((1, 2),), ()) == ()
        assert hfold_sumset((), 3) == ()


class TestBitIndices:
    """_bit_indices by byte scan against a plain loop over the bits."""

    @staticmethod
    def loop_indices(x):
        return [i for i in range(x.bit_length()) if x >> i & 1]

    def test_edges(self):
        assert _bit_indices(0) == []
        for bits in ([0], [7], [8], [63], [64], [7, 8], [63, 64], [0, 7, 8, 15, 16, 63, 64, 65]):
            x = sum(1 << b for b in bits)
            assert _bit_indices(x) == bits == self.loop_indices(x)

    def test_dense_and_sparse(self):
        rng = random.Random(412)
        for _ in range(40):
            dense = rng.getrandbits(rng.randint(1, 3000))
            sparse = sum(1 << rng.randrange(50_000) for _ in range(rng.randint(1, 12)))
            for x in (dense, sparse, (1 << 4000) - 1):
                assert _bit_indices(x) == self.loop_indices(x)


class TestRunsBitset:
    """The run-end bitset (stop bits less start bits) against pairwise merges."""

    def test_runs(self):
        cases = [
            [],
            [(0, 1)],
            [(0, 5), (5, 3)],  # adjacent: one run's stop is the next one's start
            [(3, 5), (8, 1), (9, 7), (20, 4)],
            [(0, 8), (8, 8), (16, 48), (64, 1)],
            [(60, 4)],  # ends on the top bit of a width-64 span
        ]
        for runs in cases:
            assert runs_bitset(runs, 64 + 1) == pairwise_bitset(runs), runs
        assert runs_bitset([(60, 4)], 64) == pairwise_bitset([(60, 4)]) == 0xF << 60
        assert runs_bitset([(0, 64)], 64) == (1 << 64) - 1

    def test_random_runs(self):
        rng = random.Random(413)
        for _ in range(200):
            runs, at = [], rng.randrange(20)
            for _ in range(rng.randint(1, 30)):
                length = rng.randint(1, 40)
                runs.append((at, length))
                at += length + rng.choice((0, 0, rng.randint(1, 30)))
            assert runs_bitset(runs, at) == pairwise_bitset(runs)


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

    def test_hull_escape_is_a_library_error(self, monkeypatch, capsys):
        original = sumsets._next_sum
        # a2's box is [0,1]x[0,1]x[0,2], so sums of two points pack in radix
        # (3, 3, 5), weights (15, 5, 1); (2, 2, 0) is in that box, not in 2*a2
        planted = 1 << (2 * 15 + 2 * 5)

        # the sums step returns S_h with its count: the planted bit is counted too
        def escaping(summed, size, packed):
            out, count = original(summed, size, packed)
            return out | planted, count + 1

        monkeypatch.setattr(sumsets, "_next_sum", escaping)
        assert not contains(dilate(reeve_simplex(), 2), (2, 2, 0))
        with pytest.raises(LatticeForgeError, match="escaped the dilated hull"):
            idp_check(reeve_simplex(), 2)
        # exit code 1 would read as "IDP fails"; an implementation fault is 2
        assert cli.main(["idp-check", "--example", "a2", "--h", "2"]) == 2
        assert "error: sumset escaped the dilated hull" in capsys.readouterr().err


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

    def test_pointset_cap_names_the_h(self, monkeypatch):
        # |S_1| = 27 and |S_2| = 125 on 2 * cube-3
        monkeypatch.setattr(sumsets, "POINTSET_CAP", 100)
        p = dilate(unit_cube(3), 2)
        with pytest.raises(ResourceLimitError, match="h=2: sumset exceeded the 100-point cap"):
            idp_scan(p, 3)
        with pytest.raises(ResourceLimitError, match="^sumset exceeded the 100-point cap"):
            idp_check(p, 2)

    def test_pair_cap_names_the_h(self, monkeypatch):
        # S_2 = S_1 + S_1 takes 27 * 27 pairs
        monkeypatch.setattr(sumsets, "PAIR_CAP", 27 * 27 - 1)
        with pytest.raises(ResourceLimitError, match="h=2: sumset would evaluate too many pairs"):
            idp_scan(dilate(unit_cube(3), 2), 3)


class TestBitsetWidth:
    """The scan packs with the radix of h_top*P, h_top the largest h <= h_max
    whose box is within BOX_CAP, so no bitset is wider than BOX_CAP bits."""

    @staticmethod
    def record_radices(monkeypatch):
        widths = []
        original = sumsets._hfold_radix

        def recording(base, h_max):
            radix, lo = original(base, h_max)
            widths.append(math.prod(radix.radices))
            return radix, lo

        monkeypatch.setattr(sumsets, "_hfold_radix", recording)
        return widths

    def test_assembled_cube_is_the_cube(self):
        # unit_cube computes its volume on first use, so it is compared there
        for n in range(2, 7):
            a, b = assembled_unit_cube(n), unit_cube(n)
            for slot in ("generators", "vertices", "dim", "_facets", "_masks", "_hull_dim"):
                assert getattr(a, slot) == getattr(b, slot), (n, slot)
            assert _projection_rows(a) == _projection_rows(b), n
            assert normalized_volume(a) == normalized_volume(b) == math.factorial(n), n

    def test_pair_cap_before_the_box_cap(self, monkeypatch):
        # (h+1)^8 <= 10^7 up to h_top = 6; |S_4| * |S_1| = 5^8 * 2^8 > PAIR_CAP.
        # A radix for h_max = 50 would need 51^8, about 4.6e13 bits.
        widths = self.record_radices(monkeypatch)
        with pytest.raises(ResourceLimitError, match="h=5: sumset would evaluate too many pairs"):
            idp_scan(assembled_unit_cube(8), 50)
        assert widths == [7**8]

    def test_box_cap_first(self, monkeypatch):
        # the box of h*(2*cube-3) has (2h+1)^3 cells: 729 at h_top = 4, 1331 at h = 5
        monkeypatch.setattr(geometry, "BOX_CAP", 1000)
        widths = self.record_radices(monkeypatch)
        p = dilate(unit_cube(3), 2)
        with pytest.raises(ResourceLimitError, match="h=5: bounding box exceeds the enumeration cap of 1000"):
            idp_scan(p, 50)
        assert widths == [9**3]
        assert [r.h for r in idp_scan(p, 4)] == [1, 2, 3, 4]
        with pytest.raises(ResourceLimitError, match="^bounding box exceeds the enumeration cap of 1000"):
            idp_check(p, 5)

    def test_pair_cap_checked_at_the_box_cap(self, monkeypatch):
        # at h = 5 the pairs |S_4| * |S_1| = 729 * 27 are checked before the box
        monkeypatch.setattr(geometry, "BOX_CAP", 1000)
        monkeypatch.setattr(sumsets, "PAIR_CAP", 729 * 27 - 1)
        with pytest.raises(ResourceLimitError, match="h=5: sumset would evaluate too many pairs"):
            idp_scan(dilate(unit_cube(3), 2), 6)

    def test_check_beyond_the_box_cap_refused_at_once(self, monkeypatch):
        # 220*cube-3 has a box of 221^3 > 10^7 cells: refused before any
        # lattice point is enumerated or any sum is built
        monkeypatch.setattr(sumsets, "lattice_points", lambda p: pytest.fail("enumerated"))
        with pytest.raises(ResourceLimitError, match="^bounding box exceeds the enumeration cap of 10000000 cells$"):
            idp_check(unit_cube(3), 220)
        # the box cap comes first even where S_6 = S_5 + S_1 would exceed the pair cap
        monkeypatch.setattr(geometry, "BOX_CAP", 1000)
        monkeypatch.setattr(sumsets, "PAIR_CAP", 1331 * 27 - 1)
        with pytest.raises(ResourceLimitError, match="^bounding box exceeds the enumeration cap of 1000"):
            idp_check(dilate(unit_cube(3), 2), 6)


class TestIdpScanAgainstPerH:
    """idp_scan, one sumset per h carried across h, against the per-h check
    from scratch (box-scanned points, doubled tuple sums), field by field."""

    def test_random_polytopes(self):
        rng = random.Random(405)
        failing = 0
        for k in range(60):
            dim = 1 + k % 5
            bound = 2 if dim <= 3 else 1
            p = LatticePolytope(random_point_set(rng, dim, rng.random() < 1 / 3, bound))
            reports = idp_scan(p, 4)
            assert reports == tuple(per_h_idp_check(p, h) for h in range(1, 5)), p.generators
            failing += not all(r.holds for r in reports)
        assert failing >= 3

    def test_bruteforce_polytopes(self):
        # the needle, 2*cube-3 and 3*a2 of the benchmark, up to h = 8
        for gens in (NEEDLE, list(itertools.product((0, 2), repeat=3)), A2X3):
            p = LatticePolytope(gens)
            assert idp_scan(p, 8) == tuple(per_h_idp_check(p, h) for h in range(1, 9))

    def test_non_idp_fixtures(self):
        needle = LatticePolytope(NEEDLE)
        reeve3 = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
        for p in (reeve_simplex(), reeve3, needle):
            reports = idp_scan(p, 4)
            assert reports == tuple(per_h_idp_check(p, h) for h in range(1, 5))
            assert not reports[1].holds


class TestShiftedDilates:
    """idp_scan enumerates h*P only for h = 2..d-1, d the dimension of a
    full-dimensional P; from h = max(d, 2) on it shifts the dilate before by
    P's points, and from h = d on checks each dilate's size against the
    Ehrhart count.  Against the scan that enumerates every dilate
    (runs_idp_scan), report for report, with the enumerations counted."""

    @staticmethod
    def count_runs(monkeypatch):
        calls = []
        original = sumsets._lattice_runs

        def counting(levels, *box_and_weights):
            calls.append(len(levels))
            return original(levels, *box_and_weights)

        monkeypatch.setattr(sumsets, "_lattice_runs", counting)
        return calls

    @staticmethod
    def full_polytopes():
        rng = random.Random(1997)
        for k in range(60):
            dim = 1 + k % 5
            lo, hi = (-3, -2, -1, -1, 0)[dim - 1], (3, 2, 1, 1, 1)[dim - 1]
            while True:
                p = LatticePolytope(
                    [tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(rng.randint(dim + 1, dim + 5))]
                )
                if p.is_full_dimensional():
                    break
            yield p
        for q in (1, 2, 3, 5):
            yield reeve_simplex(q)
        yield LatticePolytope(NEEDLE)
        # a Reeve-like simplex in dimension 5: its lattice points are its vertices
        yield LatticePolytope([(0,) * 5] + [tuple(int(i == j) for j in range(5)) for i in range(4)] + [(1, 1, 1, 1, 2)])

    def test_against_enumerated_dilates(self, monkeypatch):
        calls = self.count_runs(monkeypatch)
        failing = Counter()
        for p in self.full_polytopes():
            d = p.dim
            calls.clear()
            reports = idp_scan(p, d + 3)
            # h = 2..d-1 enumerated, as runs over the d projection levels
            assert calls == [d] * max(0, d - 2), p.generators
            assert reports == runs_idp_scan(p, d + 3), p.generators
            failing[d] += not all(r.holds for r in reports)
        assert all(failing[d] for d in (3, 4, 5)), failing

    def test_flat_inputs_enumerate_every_h(self, monkeypatch):
        calls = self.count_runs(monkeypatch)
        rng = random.Random(1998)
        flats = [LatticePolytope([(0, 0, 0, 0), (1, 0, 1, 2), (0, 1, 2, 1)])]
        while len(flats) < 20:
            p = LatticePolytope(random_point_set(rng, rng.randint(2, 4), True, 2))
            if p._hull_dim:
                flats.append(p)
        for p in flats:
            calls.clear()
            assert idp_scan(p, 5) == runs_idp_scan(p, 5), p.generators
            assert len(calls) == 4, p.generators

    def test_enumerations_below_the_box_cap(self, monkeypatch):
        # h_top, the largest h whose box is within BOX_CAP, bounds the
        # enumerated h too: max(0, min(h_top, d - 1) - 1) enumerations
        calls = self.count_runs(monkeypatch)
        for d, cap, h_top in ((4, 3**4, 2), (4, 4**4, 3), (4, 6**4, 5), (5, 4**5, 3), (3, 10**7, 6)):
            monkeypatch.setattr(geometry, "BOX_CAP", cap)
            calls.clear()
            if h_top < 6:
                with pytest.raises(ResourceLimitError, match=f"h={h_top + 1}: bounding box exceeds"):
                    idp_scan(unit_cube(d), 6)
            else:
                assert all(r.holds for r in idp_scan(unit_cube(d), 6))
            assert len(calls) == max(0, min(h_top, d - 1) - 1), d

    def test_wrong_volume_is_a_library_error(self, monkeypatch, capsys):
        monkeypatch.setattr(sumsets, "normalized_volume", lambda p: normalized_volume(p) + 1)
        with pytest.raises(LatticeForgeError, match="^dilate at h=3 has 24 lattice points, its Ehrhart count is 25: implementation bug$"):
            idp_scan(reeve_simplex(), 3)
        with pytest.raises(LatticeForgeError, match="h=2 .* implementation bug"):
            idp_scan(unit_square(), 2)
        # a segment's count is checked from h = 1 on, its own points
        with pytest.raises(LatticeForgeError, match="h=1 .* implementation bug"):
            idp_scan(LatticePolytope([(0,), (3,)]), 2)
        # below the dimension, and at a single h, nothing is counted
        assert idp_scan(reeve_simplex(), 2) == runs_idp_scan(reeve_simplex(), 2)
        assert idp_check(reeve_simplex(), 3) == runs_idp_scan(reeve_simplex(), 3)[-1]
        assert cli.main(["idp-check", "--example", "a2", "--h-max", "3"]) == 2
        assert "Ehrhart count is 25: implementation bug" in capsys.readouterr().err

    def test_no_point_cap_on_the_dilate(self, monkeypatch):
        # Reeve(2): |S_h| = C(h+3, 3), |L(hP)| = 4, 11, 24, 45, 76, 119 for
        # h = 1..6, and boxes of (h+1)^2 (2h+1) cells: 637 at h = 6, 960 at 7.
        # Only the sums are capped: the 119-point dilate at h = 6 passes a
        # 100-point cap, and its shift from the 76 points at h = 5 (304
        # pairs) passes a 224-pair cap, which the sums' 56 * 4 pairs meet.
        p = reeve_simplex()
        monkeypatch.setattr(sumsets, "POINTSET_CAP", 100)
        monkeypatch.setattr(geometry, "BOX_CAP", 900)
        monkeypatch.setattr(sumsets, "PAIR_CAP", 400)
        reports = idp_scan(p, 6)
        assert [r.dilate_size for r in reports] == [4, 11, 24, 45, 76, 119]
        assert reports == runs_idp_scan(p, 6)
        # at h_top + 1 = 7: the pairs |S_6| * 4 = 336 pass, the box does not
        with pytest.raises(ResourceLimitError, match="^resource cap hit at h=7: bounding box exceeds the enumeration cap of 900 cells$"):
            idp_scan(p, 7)
        monkeypatch.setattr(sumsets, "PAIR_CAP", 56 * 4)
        assert idp_scan(p, 6) == reports
        with pytest.raises(ResourceLimitError, match="^resource cap hit at h=7: sumset would evaluate too many pairs$"):
            idp_scan(p, 7)

    def test_million_point_dilate_refused_by_its_sums(self):
        # cube-3 is IDP, so S_100 is its 101^3 > 10^6 dilate: refused at h = 100
        with pytest.raises(ResourceLimitError, match="^resource cap hit at h=100: sumset exceeded the 1000000-point cap$"):
            idp_scan(unit_cube(3), 101)


class TestCaughtUpSums:
    """From h = max(d, 2) on, once S_{h-1} is all of L((h-1)P), the dilate at
    h is the sumset just built, so the step shifts once (_shift_or, counted)
    instead of twice: 2*cube-3 and cube-4 catch up at h = 2, the needle
    (scanned in its frame) never does.  The reports stay those of the per-h
    check from scratch."""

    @staticmethod
    def count_shifts(monkeypatch):
        calls = []
        original = sumsets._shift_or

        def counting(x, packed):
            calls.append(len(packed))
            return original(x, packed)

        monkeypatch.setattr(sumsets, "_shift_or", counting)
        return calls

    def test_shift_counts(self, monkeypatch):
        calls = self.count_shifts(monkeypatch)
        assert _frame(LatticePolytope(NEEDLE)) is not None
        # h_max - 1 sums, and a dilate shift at each h >= d while S_{h-1} lags
        for p, h_max, shifts in (
            (dilate(unit_cube(3), 2), 8, 7),
            (unit_cube(4), 5, 4),
            (LatticePolytope(NEEDLE), 8, 7 + 6),
        ):
            calls.clear()
            idp_scan(p, h_max)
            assert len(calls) == shifts, p.generators

    def test_against_per_h(self, monkeypatch):
        calls = self.count_shifts(monkeypatch)
        rng = random.Random(1997)
        outcomes = Counter()
        for k in range(24):
            d = 2 + k % 3
            while True:
                p = LatticePolytope([tuple(rng.randint(-1, 1 + (d < 4)) for _ in range(d)) for _ in range(d + 2)])
                if p.is_full_dimensional():
                    break
            h_max = d + 1
            calls.clear()
            reports = idp_scan(p, h_max)
            assert reports == tuple(per_h_idp_check(p, h) for h in range(1, h_max + 1)), p.generators
            lagging = sum(not reports[h - 2].holds for h in range(max(d, 2), h_max + 1))
            assert len(calls) == h_max - 1 + lagging, p.generators
            outcomes[all(r.holds for r in reports)] += 1
        assert outcomes[True] >= 5 and outcomes[False] >= 3, outcomes


#: the h_max of each dimension's thin polytopes
THIN_H_MAX = {2: 4, 3: 4, 4: 4, 5: 3}


def thin_polytopes(seed, count, bits=10**6):
    """Seeded thin full-dimensional polytopes in dimensions 2-5: d + 1 to
    d + 3 points of {0, 1}^d (of {0, 1, 2}^d for d <= 3, one time in three)
    under a random unimodular shear, translated, with at most `bits` cells
    in the box of THIN_H_MAX[d] * P."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = 2 + len(out) % 4
        grid = list(itertools.product(range(3 if dim <= 3 and rng.random() < 1 / 3 else 2), repeat=dim))
        pts = rng.sample(grid, rng.randint(dim + 1, min(len(grid), dim + 3)))
        shear = random_shear(rng, dim, rng.randint(dim, 3 * dim))
        shift = [rng.randint(-3, 3) for _ in range(dim)]
        p = LatticePolytope([tuple(vec_dot(row, q) + t for row, t in zip(shear, shift)) for q in pts])
        if p.is_full_dimensional() and _box_cells(*p.bounding_box()) * THIN_H_MAX[dim] ** dim <= bits:
            out.append(p)
    return out


# conv{0, e1, e2, (60, 61, 59)}: 4 lattice points in a box of 226,920 cells,
# whose dilate 4P has a box of more than 10^7
THIN = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (60, 61, 59))


def unframed(monkeypatch):
    """Scan every polytope in its own box."""
    monkeypatch.setattr(sumsets, "_frame", lambda p: None)


class TestFrameScan:
    """A thin full-dimensional P, with more than 8 box cells per lattice
    point, is scanned in its frame U*P (geometry._frame), U unimodular from
    integral LLL on P's width form.  Its reports are those of the scan in
    P's own box, field by field, witness order included."""

    def test_framed_against_unframed(self, monkeypatch):
        rng = random.Random(2808)
        framed = failing = 0
        for p in thin_polytopes(2807, 200):
            h_max = THIN_H_MAX[p.dim]
            h = rng.randint(1, h_max)
            got = idp_scan(p, h_max), idp_check(p, h)
            frame = _frame(p)
            with monkeypatch.context() as patch:
                unframed(patch)
                q = LatticePolytope(p.generators)
                assert (idp_scan(q, h_max), idp_check(q, h)) == got, p.generators
            if frame is not None:
                framed += 1
                # the frame's box is never the larger
                assert _box_cells(*frame[0].bounding_box()) < _box_cells(*p.bounding_box())
            failing += not all(r.holds for r in got[0])
        assert framed >= 140 and failing >= 20, (framed, failing)

    def test_thin_tetrahedron_decided(self, monkeypatch):
        p = LatticePolytope(THIN)
        reports = idp_scan(p, 4)
        assert [r.dilate_size for r in reports] == [4, 68, 252, 615]
        assert idp_check(p, 4) == reports[3]
        # the per-h check from scratch (a box scan of each dilate, doubled
        # sums) in the coordinates of the shear (x, y, z) -> (x - z, y - z, z),
        # which sends the far vertex to (1, 2, 59), its witnesses sheared back
        shear = ((1, 0, -1), (0, 1, -1), (0, 0, 1))
        back = ((1, 0, 1), (0, 1, 1), (0, 0, 1))
        sheared = LatticePolytope([tuple(vec_dot(row, v) for row in shear) for v in THIN])
        for h, report in enumerate(reports, start=1):
            want = per_h_idp_check(sheared, h)
            witnesses = tuple(sorted(tuple(vec_dot(row, w) for row in back) for w in want.witnesses))
            assert report == replace(want, witnesses=witnesses), h
        # in its own box the dilate at h = 4 is over the cap
        unframed(monkeypatch)
        with pytest.raises(ResourceLimitError, match="^resource cap hit at h=4: bounding box exceeds"):
            idp_scan(p, 4)
        with pytest.raises(ResourceLimitError, match="^bounding box exceeds"):
            idp_check(p, 4)

    def test_lattice_points_keep_the_input_box_cap(self):
        # 337 lattice points in a box of 10^9 cells: enumerated in P's own box, refused
        p = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1000, 1000, 1001)])
        with pytest.raises(ResourceLimitError, match="^resource cap hit at h=1: bounding box exceeds"):
            idp_scan(p, 2)
        with pytest.raises(ResourceLimitError, match="^bounding box exceeds"):
            idp_check(p, 1)


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
            q = LatticePolytope([tuple(map(add, v, shift)) for v in p.vertices])
            for h in (1, 2, 3):
                a = idp_check(p, h)
                b = idp_check(q, h)
                assert a.holds == b.holds
                translated = tuple(sorted(tuple(map(add, w, vec_scale(shift, h))) for w in a.witnesses))
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
