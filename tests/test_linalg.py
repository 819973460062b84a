import random

import pytest

from helpers import (
    SingularMatrix,
    adjugate,
    cofactor_determinant,
    fraction_adjugate,
    fraction_affine_basis,
    fraction_rank_of_rows,
    fraction_solve,
)
from latticeforge import (
    DimensionMismatchError,
    IntMatrix,
    LatticeForgeError,
    determinant,
    hermite_normal_form,
)
from latticeforge.geometry import _affine_basis
from latticeforge.linalg import DIM_CAP

from fractions import Fraction


A1_DIFFS = IntMatrix.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 2)])
A2_DIFFS = IntMatrix.from_columns([(1, 0, 0), (0, 1, 0), (1, 1, 2)])


def random_matrix(rng, n, bound=6):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


class TestIntMatrix:
    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            IntMatrix([])
        with pytest.raises(DimensionMismatchError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(TypeError):
            IntMatrix([[1.0]])
        with pytest.raises(TypeError):
            IntMatrix([[True]])
        with pytest.raises(DimensionMismatchError):
            IntMatrix.identity(DIM_CAP + 1)
        with pytest.raises(DimensionMismatchError):
            IntMatrix([[0] * (DIM_CAP + 1)])

    def test_matmul_and_columns(self):
        m = IntMatrix([[1, 2], [3, 4]])
        assert m @ IntMatrix.identity(2) == m
        assert m.column(1) == (2, 4)
        assert m.transpose().data == ((1, 3), (2, 4))


class TestDeterminant:
    def test_identity(self):
        assert determinant(IntMatrix.identity(3)) == 1

    def test_diagonal(self):
        assert determinant(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])) == 2

    def test_2x2(self):
        assert determinant(IntMatrix([[2, 3], [1, 2]])) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_matches_cofactor_expansion(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n)
            assert determinant(m) == cofactor_determinant([list(r) for r in m.data])

    def test_singular_with_zero_pivot_column(self):
        m = IntMatrix([[0, 0], [0, 5]])
        assert determinant(m) == 0


class TestSolveRational:
    """fraction_solve, the rational solve that witnesses column-span
    membership (TestHermiteNormalForm) and builds fraction_adjugate, on
    hand-solved systems."""

    def test_identity(self):
        assert fraction_solve(IntMatrix.identity(3), (1, 2, 3)) == (1, 2, 3)

    def test_diagonal(self):
        x = fraction_solve(IntMatrix([[2, 0], [0, 2]]), (1, 1))
        assert x == (Fraction(1, 2), Fraction(1, 2))

    def test_reeve_difference_columns(self):
        # Solved by hand with back-substitution: 2*x3 = 1, x1 = x2 = 1 - x3.
        x = fraction_solve(A2_DIFFS, (1, 1, 1))
        assert x == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            fraction_solve(IntMatrix([[1, 1], [2, 2]]), (1, 1))

    def test_exact_recombination(self):
        rng = random.Random(99)
        done = 0
        while done < 200:
            n = rng.randint(1, 5)
            m = random_matrix(rng, n)
            if determinant(m) == 0:
                continue
            b = tuple(rng.randint(-9, 9) for _ in range(n))
            x = fraction_solve(m, b)
            assert tuple(sum(a * v for a, v in zip(row, x)) for row in m.data) == b
            done += 1


class TestAdjugateKernelAgainstFraction:
    """The adjugate read off one fraction-free Gauss-Jordan pass, against
    rational Gauss-Jordan elimination: 3000 seeded matrices with n = 1..8,
    one in four singular by construction, one in four with entries near
    10**30.  Values and exception types must agree.  The adjugate oracle (n
    rational solves) is run on every tenth matrix; every adjugate is checked
    as m @ adj = det * I."""

    @staticmethod
    def _outcome(f, *args):
        try:
            result = f(*args)
        except LatticeForgeError as e:
            return type(e)
        return result.data if isinstance(result, IntMatrix) else result

    @staticmethod
    def _case(rng, k):
        # each case still draws the right-hand side that the removed solves
        # were checked on, so the seeded matrices stay the same
        n = rng.randint(1, 8)
        if k % 4 == 3:
            rows = [[rng.choice((-1, 1)) * 10**30 + rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            [rng.randint(-(10**30), 10**30) for _ in range(n)]
            return IntMatrix(rows)
        bound = rng.choice((1, 2, 6))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if k % 4 == 1:
            # one row an integer combination of the others (the zero row when n = 1)
            i = rng.randrange(n)
            rows[i] = [0] * n
            for j in rng.sample([j for j in range(n) if j != i], min(2, n - 1)):
                c = rng.randint(-2, 2)
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        if k % 4 == 2:
            [Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(n)]
        else:
            [rng.randint(-9, 9) for _ in range(n)]
        return IntMatrix(rows)

    def test_seeded_matrices(self):
        rng = random.Random(1968)
        singular = 0
        for k in range(3000):
            m = self._case(rng, k)
            d = determinant(m)
            adj = self._outcome(adjugate, m)
            if d:
                n = m.rows
                assert m @ IntMatrix(adj) == IntMatrix([[d * (i == j) for j in range(n)] for i in range(n)])
            else:
                assert adj is SingularMatrix
            if k % 10 == 0:
                assert adj == self._outcome(fraction_adjugate, m), m
            singular += not d
        assert singular >= 750

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatchError):
            fraction_solve(IntMatrix([[1, 2]]), (1,))
        with pytest.raises(DimensionMismatchError):
            fraction_solve(IntMatrix.identity(2), (1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            adjugate(IntMatrix([[1, 2]]))


class TestHermiteNormalForm:
    def test_identity_is_canonical(self):
        h, u = hermite_normal_form(IntMatrix.identity(3))
        assert h == IntMatrix.identity(3)
        assert abs(determinant(u)) == 1

    def test_stretched_simplex_columns(self):
        h, _ = hermite_normal_form(A1_DIFFS)
        assert h.diagonal() == (1, 1, 2)

    def test_reeve_simplex_columns_same_span(self):
        # Both difference sets generate the same index-2 subgroup.
        h, _ = hermite_normal_form(A2_DIFFS)
        assert h == IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])

    def test_factorization_and_unimodularity(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n)
            h, u = hermite_normal_form(m)
            assert m @ u == h
            assert abs(determinant(u)) == 1

    def test_column_convention(self):
        rng = random.Random(31)
        done = 0
        while done < 100:
            n = rng.randint(2, 5)
            m = random_matrix(rng, n)
            if determinant(m) == 0:
                continue
            h, _ = hermite_normal_form(m)
            for i in range(n):
                assert h.data[i][i] > 0
                for j in range(n):
                    if j > i:
                        assert h.data[i][j] == 0
                    elif j < i:
                        assert 0 <= h.data[i][j] < h.data[i][i]
            done += 1

    def test_determinant_is_diagonal_product_up_to_sign(self):
        rng = random.Random(8)
        done = 0
        while done < 150:
            n = rng.randint(1, 5)
            m = random_matrix(rng, n)
            d = determinant(m)
            if d == 0:
                continue
            h, _ = hermite_normal_form(m)
            prod = 1
            for x in h.diagonal():
                prod *= x
            assert abs(d) == prod
            done += 1

    def test_column_spans_coincide(self):
        # Membership cross-check: every vector in the span of M is in the
        # span of H and vice versa, witnessed by integral solutions.
        rng = random.Random(23)
        done = 0
        while done < 100:
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, bound=4)
            if determinant(m) == 0:
                continue
            h, _ = hermite_normal_form(m)
            for _ in range(5):
                v = IntMatrix.from_columns([[rng.randint(-4, 4) for _ in range(n)]])
                for a, b in ((h, m), (m, h)):
                    x = fraction_solve(a, (b @ v).column(0))  # a @ x = b @ v
                    assert all(t.denominator == 1 for t in x), (a, b, v)
                    assert a @ IntMatrix.from_columns([[int(t) for t in x]]) == b @ v
            done += 1

    def test_rectangular_and_rank_deficient(self):
        m = IntMatrix([[2, 4, 6], [1, 2, 3]])
        h, u = hermite_normal_form(m)
        assert m @ u == h
        assert abs(determinant(u)) == 1
        # rank 1: a single pivot column, the rest zero
        assert all(h.data[i][j] == 0 for i in range(2) for j in range(1, 3))


class TestHelpers:
    def test_adjugate_times_matrix_is_det_identity(self):
        rng = random.Random(44)
        done = 0
        while done < 50:
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, bound=5)
            d = determinant(m)
            if d == 0:
                continue
            adj = adjugate(m)
            prod = m @ adj
            assert prod == IntMatrix([[d if i == j else 0 for j in range(n)] for i in range(n)])
            done += 1


class TestAffineBasisAgainstFraction:
    """_affine_basis's one fraction-free elimination against rational
    elimination, its points and its pivot columns, on seeded row sets in
    dimensions 1-8 with coordinates in [-4, 4], every second one
    rank-deficient by construction; and the elimination's last pivot against
    the determinant of the chosen difference rows."""

    @staticmethod
    def _rows(rng, deficient):
        n, m = rng.randint(1, 8), rng.randint(1, 9)
        if not deficient:
            return [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        # -1/0/1 combinations of fewer than min(m, n) basis rows
        basis = [
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, min(m, n) - 1))
        ]
        rows = []
        while len(rows) < m:
            coeffs = [rng.randint(-1, 1) for _ in basis]
            row = tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n))
            if all(-4 <= x <= 4 for x in row):
                rows.append(row)
        return rows

    def test_random_row_sets(self):
        rng = random.Random(1729)
        deficient = 0
        for k in range(2000):
            rows = self._rows(rng, deficient=k % 2 == 1)
            rank = fraction_rank_of_rows(rows)
            start, skipped, _, cols = _affine_basis(rows)
            assert start == fraction_affine_basis(rows), rows
            # the pivot columns, sorted, are the columns at which the rank of
            # the chosen differences grows, read from the left
            diffs = [[x - y for x, y in zip(q, start[0])] for q in start[1:]]
            ranks = [fraction_rank_of_rows([d[: j + 1] for d in diffs]) for j in range(len(rows[0]))]
            grows = [j for j, (a, b) in enumerate(zip([0] + ranks, ranks)) if b > a]
            assert sorted(cols) == grows and len(cols) == len(start) - 1, rows
            # reading stops at the last point a full basis needs
            full = len(start) == len(rows[0]) + 1
            read = rows[: rows.index(start[-1]) + 1] if full else rows
            assert sorted(start + skipped) == sorted(read), rows
            deficient += rank < min(len(rows), len(rows[0]))
        assert deficient >= 1000

    def test_last_pivot_is_the_determinant(self):
        # full-dimensional point sequences with dependent points among them:
        # the pivot is +-det of the chosen differences, and an iterator is
        # left at the first point after the last chosen one
        rng = random.Random(1730)
        signs = set()
        for k in range(400):
            dim = 1 + k % 8
            points = [tuple(rng.randint(-3, 3) for _ in range(dim))]
            while len(fraction_affine_basis(points)) < dim + 1:
                if rng.random() < 0.3 and len(points) > 1:
                    # a dependent point: an affine combination of two read before
                    a, b = rng.sample(points, 2)
                    points.append(tuple(2 * x - y for x, y in zip(a, b)))
                else:
                    points.append(tuple(rng.randint(-3, 3) for _ in range(dim)))
            tail = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(3)]
            it = iter(points + tail)
            start, skipped, pivot, _ = _affine_basis(it)
            assert start == fraction_affine_basis(points), points
            assert start[-1] == points[-1] and list(it) == tail
            assert sorted(start + skipped) == sorted(points)
            diffs = IntMatrix([[x - y for x, y in zip(q, start[0])] for q in start[1:]])
            det = determinant(diffs)
            assert det and pivot in (det, -det), (points, pivot, det)
            signs.add(pivot == det)
        assert signs == {True, False}
