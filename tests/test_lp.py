import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    INFEASIBLE,
    feasible_nonneg,
    fraction_max_min_margin,
    fraction_solve_min,
    random_simplex,
    solve_min,
)
from latticeforge.errors import LatticeForgeError
from latticeforge.lp import OPTIMAL, UNBOUNDED, max_min_margin


class TestSolveMin:
    def test_simple_optimum(self):
        # min x + 2y  s.t.  x + y = 1, x,y >= 0  ->  x = 1
        status, x, value = solve_min([1, 2], [[1, 1]], [1])
        assert status == OPTIMAL
        assert x == (1, 0)
        assert value == 1

    def test_negative_costs(self):
        # min -x - y  s.t.  x + y + s = 2  ->  value -2 on the segment
        status, x, value = solve_min([-1, -1, 0], [[1, 1, 1]], [2])
        assert status == OPTIMAL
        assert value == -2
        assert x[0] + x[1] == 2

    def test_infeasible(self):
        # x + y = -1 with x, y >= 0 cannot hold
        status, x, value = solve_min([0, 0], [[-1, -1]], [1])
        assert status == INFEASIBLE
        assert x is None and value is None

    def test_unbounded(self):
        # min -x  s.t.  x - s = 0: x can grow forever
        status, _, _ = solve_min([-1, 0], [[1, -1]], [0])
        assert status == UNBOUNDED

    def test_fractional_optimum_is_exact(self):
        # min y  s.t.  3y = 1
        status, x, value = solve_min([1], [[3]], [1])
        assert status == OPTIMAL
        assert value == Fraction(1, 3)
        assert x == (Fraction(1, 3),)

    def test_redundant_rows(self):
        status, x, _ = solve_min([1, 1], [[1, 1], [2, 2]], [1, 2])
        assert status == OPTIMAL
        assert x[0] + x[1] == 1


class TestFeasibleNonneg:
    def test_point_in_segment(self):
        # q = 1/2 between 0 and 1: l0*0 + l1*1 = 1/2, l0+l1 = 1
        assert feasible_nonneg([[0, 1], [1, 1]], [Fraction(1, 2), 1])

    def test_point_outside_segment(self):
        assert not feasible_nonneg([[0, 1], [1, 1]], [2, 1])

    def test_exact_boundary(self):
        assert feasible_nonneg([[0, 1], [1, 1]], [1, 1])


def _triangle_rows(a, b, c):
    """Facet rows (normal, offset) with normal.x >= offset inside the triangle."""
    rows = []
    verts = (a, b, c)
    for skip in range(3):
        p, q = [verts[i] for i in range(3) if i != skip]
        normal = (q[1] - p[1], p[0] - q[0])
        offset = normal[0] * p[0] + normal[1] * p[1]
        opp = verts[skip]
        if normal[0] * opp[0] + normal[1] * opp[1] < offset:
            normal = (-normal[0], -normal[1])
            offset = -offset
        rows.append((normal, offset))
    return rows


class TestMaxMinMargin:
    def test_square_inradius(self):
        rows = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
        assert max_min_margin(rows, 2) == Fraction(1, 2)

    def test_overlapping_triangles(self):
        t1 = _triangle_rows((0, 0), (2, 0), (0, 2))
        t2 = _triangle_rows((1, 1), (-1, 1), (1, -1))
        assert max_min_margin(t1 + t2, 2) > 0

    def test_edge_sharing_triangles_touch(self):
        t1 = _triangle_rows((0, 0), (1, 0), (0, 1))
        t2 = _triangle_rows((1, 0), (0, 1), (1, 1))
        assert max_min_margin(t1 + t2, 2) == 0

    def test_disjoint_triangles_negative(self):
        t1 = _triangle_rows((0, 0), (1, 0), (0, 1))
        t2 = _triangle_rows((5, 5), (6, 5), (5, 6))
        assert max_min_margin(t1 + t2, 2) < 0

    def test_vertex_touching_tetrahedra(self):
        # Interiors disjoint but no facet hyperplane of either separates:
        # only an oblique plane through the shared vertex does.  The LP must
        # still report a non-positive joint margin.
        from latticeforge import LatticeSimplex
        from latticeforge.unimodular import _interiors_intersect

        s = LatticeSimplex([(0, 0, 0), (1, 1, 1), (-1, 1, 1), (0, -1, 1)])
        t = LatticeSimplex([(0, 0, 0), (-1, -1, -1), (1, -1, -1), (0, 1, -1)])
        rows = s._weight_rows() + t._weight_rows()
        assert max_min_margin(rows, 3) <= 0
        assert not _interiors_intersect(s, t)

    def test_unbounded_margin_is_an_error(self):
        # x >= 0 alone: the margin grows with x.  It is no simplex's facet
        # rows, so the integer dual has no start; the primal oracle finds
        # the margin unbounded.
        with pytest.raises(LatticeForgeError, match=r"^margin LP start: 1 rows, fewer than n \+ 1 = 2$"):
            max_min_margin([((1,), 0)], 1)
        with pytest.raises(LatticeForgeError, match="^margin LP did not solve: unbounded$"):
            fraction_max_min_margin([((1,), 0)], 1)


def _random_lp(rng, k):
    """A seeded LP with m <= 6 rows and n <= 8 variables: rational data on
    odd k; right-hand sides from a point x0 >= 0 (so feasible) on half the
    k; one row a combination of the first two on every third k (redundant);
    zero costs (a feasibility problem, whose x is the vertex phase 1 ends
    at) on every fifth k, and nonnegative costs (so bounded) on the next."""
    m, n = rng.randint(1, 6), rng.randint(1, 8)
    if k % 2:
        def value():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 6))
    else:
        def value():
            return rng.randint(-3, 3)
    a = [[value() for _ in range(n)] for _ in range(m)]
    if k % 4 < 2:
        x0 = [abs(value()) for _ in range(n)]
        b = [sum(p * q for p, q in zip(row, x0)) for row in a]
    else:
        b = [value() for _ in range(m)]
    redundant = k % 3 == 0 and m > 1
    if redundant:
        s, t = value(), value()
        a[-1] = [s * p + t * q for p, q in zip(a[0], a[1])]
        b[-1] = s * b[0] + t * b[1]
    if k % 5 == 0:
        c = [0] * n
    else:
        c = [abs(value()) if k % 5 == 1 else value() for _ in range(n)]
    return c, a, b, redundant


class TestSolveMinAgainstFraction:
    """The integer tableau against the Fraction tableau it replaced: the
    same (status, x, value), entry for entry, on 5,000 seeded LPs."""

    def test_seeded_lps(self):
        rng = random.Random(2718)
        statuses, redundant = Counter(), Counter()
        for k in range(5000):
            c, a, b, is_redundant = _random_lp(rng, k)
            got = solve_min(c, a, b)
            assert got == fraction_solve_min(c, a, b), (c, a, b)
            status, x, value = got
            if status == OPTIMAL:
                assert all(type(t) is Fraction for t in (*x, value))
                assert [sum(map(lambda p, q: p * q, row, x)) for row in a] == b
                assert sum(map(lambda p, q: p * q, c, x)) == value
            statuses[status] += 1
            redundant[status] += is_redundant
        assert min(statuses[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 500
        assert min(redundant[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 200


class TestMarginAgainstFraction:
    """max_min_margin, the dual on the integer tableau, against the primal
    encoding on the Fraction tableau: equal values on 1,500 seeded pairs of
    simplices in dims 1-8, fewer pairs where the oracle is slow."""

    def test_random_simplex_pairs(self):
        rng = random.Random(1968)
        signs = Counter()
        for dim, count in zip(range(1, 9), (600, 450, 250, 100, 40, 25, 20, 15)):
            for _ in range(count):
                s, t = random_simplex(rng, dim), random_simplex(rng, dim)
                rows = s._weight_rows() + t._weight_rows()
                margin = max_min_margin(rows, dim)
                assert margin == fraction_max_min_margin(rows, dim), (s.vertices, t.vertices)
                signs[(margin > 0) - (margin < 0)] += 1
        assert sum(signs.values()) == 1500
        assert min(signs.values()) >= 100, signs


class TestMarginStart:
    """The dual starts from the basis of the first n + 1 rows, a simplex's
    facet rows: the margin does not depend on which cell comes first, and a
    start that is not a simplex's facet rows is refused."""

    def test_either_cell_first(self):
        rng = random.Random(1968)
        for dim, count in zip(range(1, 9), (600, 450, 250, 100, 40, 25, 20, 15)):
            for _ in range(count):
                rows_a = random_simplex(rng, dim)._weight_rows()
                rows_b = random_simplex(rng, dim)._weight_rows()
                assert max_min_margin(rows_a + rows_b, dim) == max_min_margin(rows_b + rows_a, dim)

    def test_fewer_rows_than_a_simplex(self):
        rows = _triangle_rows((0, 0), (1, 0), (0, 1))
        for k in range(3):
            with pytest.raises(LatticeForgeError, match=f"^margin LP start: {k} rows, fewer than n"):
                max_min_margin(rows[:k], 2)

    def test_singular_start(self):
        # x >= 0 and x >= 1 are parallel: their dual columns (1, 0, 1) are equal
        rows = [((1, 0), 0), ((1, 0), 1), ((0, 1), 0)] + _triangle_rows((0, 0), (1, 0), (0, 1))
        with pytest.raises(LatticeForgeError, match="^margin LP start: the first n \\+ 1 rows are singular$"):
            max_min_margin(rows, 2)

    def test_negative_start(self):
        # x >= 0 and 2x >= 0 face the same way: y = (2, -1) on the start
        rows = [((1,), 0), ((2,), 0), ((-1,), -3)]
        with pytest.raises(LatticeForgeError, match="negative$"):
            max_min_margin(rows, 1)
