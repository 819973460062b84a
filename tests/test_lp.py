from fractions import Fraction

from helpers import feasible_nonneg
from latticeforge.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, max_min_margin, solve_min


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
        from latticeforge.unimodular import _interior_inequalities, _interiors_intersect

        s = LatticeSimplex([(0, 0, 0), (1, 1, 1), (-1, 1, 1), (0, -1, 1)])
        t = LatticeSimplex([(0, 0, 0), (-1, -1, -1), (1, -1, -1), (0, 1, -1)])
        rows = _interior_inequalities(s) + _interior_inequalities(t)
        assert max_min_margin(rows, 3) <= 0
        assert not _interiors_intersect(s, t)
