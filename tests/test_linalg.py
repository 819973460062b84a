import itertools
import random

import pytest

from helpers import (
    SingularMatrix,
    adjugate,
    cofactor_determinant,
    fraction_adjugate,
    fraction_affine_basis,
    fraction_lll_defects,
    fraction_rank_of_rows,
    fraction_solve,
    identity,
    matmul,
    random_shear,
    width_form,
)
from latticeforge import (
    DimensionMismatchError,
    LatticeForgeError,
    determinant,
    hermite_normal_form,
)
from latticeforge.geometry import _affine_basis
from latticeforge.linalg import DIM_CAP, _lll_reduce

from fractions import Fraction


# the difference columns v_i - v_0 of a1 and a2, as rows
A1_DIFFS = tuple(zip((1, 0, 0), (0, 1, 0), (0, 0, 2)))
A2_DIFFS = tuple(zip((1, 0, 0), (0, 1, 0), (1, 1, 2)))


def random_matrix(rng, n, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


class TestRowCheck:
    """determinant and hermite_normal_form check their rows on entry, each
    bad matrix refused by both with one exception type and message."""

    CAP = f"matrix dimensions capped at {DIM_CAP}, got"
    CASES = (
        ([], DimensionMismatchError, "matrix dimensions must be at least 1x1"),
        ([[]], DimensionMismatchError, "matrix dimensions must be at least 1x1"),
        ([[1, 2], [3]], DimensionMismatchError, "ragged rows in matrix"),
        ([[1.0]], TypeError, "matrix entries must be int, got 1.0"),
        ([[True]], TypeError, "matrix entries must be int, got True"),
        (identity(DIM_CAP + 1), DimensionMismatchError, f"{CAP} {DIM_CAP + 1}x{DIM_CAP + 1}"),
        ([[0] * (DIM_CAP + 1)], DimensionMismatchError, f"{CAP} 1x{DIM_CAP + 1}"),
        ([[0]] * (DIM_CAP + 1), DimensionMismatchError, f"{CAP} {DIM_CAP + 1}x1"),
    )

    def test_refusals(self):
        for rows, error, message in self.CASES:
            for call in (determinant, hermite_normal_form):
                with pytest.raises(error) as caught:
                    call(rows)
                assert type(caught.value) is error and str(caught.value) == message, (call, rows)

    def test_any_sequence_of_rows(self):
        # lists, tuples and one-pass iterators of rows read alike
        m = [[2, 3], [1, 2]]
        for rows in (m, tuple(map(tuple, m)), iter(m), (iter(r) for r in m)):
            assert determinant(rows) == 1
        assert hermite_normal_form(iter(m)) == hermite_normal_form(m)


class TestDeterminant:
    def test_identity(self):
        assert determinant(identity(3)) == 1

    def test_diagonal(self):
        assert determinant([[1, 0, 0], [0, 1, 0], [0, 0, 2]]) == 2

    def test_2x2(self):
        assert determinant([[2, 3], [1, 2]]) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError, match="determinant requires a square matrix"):
            determinant([[1, 2, 3], [4, 5, 6]])

    def test_matches_cofactor_expansion(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n)
            assert determinant(m) == cofactor_determinant(m)

    def test_singular_with_zero_pivot_column(self):
        assert determinant([[0, 0], [0, 5]]) == 0


class TestSolveRational:
    """fraction_solve, the rational solve that witnesses column-span
    membership (TestHermiteNormalForm) and builds fraction_adjugate, on
    hand-solved systems."""

    def test_identity(self):
        assert fraction_solve(identity(3), (1, 2, 3)) == (1, 2, 3)

    def test_diagonal(self):
        x = fraction_solve([[2, 0], [0, 2]], (1, 1))
        assert x == (Fraction(1, 2), Fraction(1, 2))

    def test_reeve_difference_columns(self):
        # Solved by hand with back-substitution: 2*x3 = 1, x1 = x2 = 1 - x3.
        x = fraction_solve(A2_DIFFS, (1, 1, 1))
        assert x == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            fraction_solve([[1, 1], [2, 2]], (1, 1))

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
            assert tuple(sum(a * v for a, v in zip(row, x)) for row in m) == b
            done += 1


class TestAdjugateKernelAgainstFraction:
    """The adjugate read off one fraction-free Gauss-Jordan pass, against
    rational Gauss-Jordan elimination: 3000 seeded matrices with n = 1..8,
    one in four singular by construction, one in four with entries near
    10**30.  Values and exception types must agree.  The adjugate oracle (n
    rational solves) is run on every tenth matrix; every adjugate is checked
    as m·adj = det * I."""

    @staticmethod
    def _outcome(f, *args):
        try:
            result = f(*args)
        except LatticeForgeError as e:
            return type(e)
        return result

    @staticmethod
    def _case(rng, k):
        # each case still draws the right-hand side that the removed solves
        # were checked on, so the seeded matrices stay the same
        n = rng.randint(1, 8)
        if k % 4 == 3:
            rows = [[rng.choice((-1, 1)) * 10**30 + rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            [rng.randint(-(10**30), 10**30) for _ in range(n)]
            return rows
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
        return rows

    def test_seeded_matrices(self):
        rng = random.Random(1968)
        singular = 0
        for k in range(3000):
            m = self._case(rng, k)
            d = determinant(m)
            adj = self._outcome(adjugate, m)
            if d:
                assert matmul(m, adj) == tuple(tuple(d * x for x in row) for row in identity(len(m)))
            else:
                assert adj is SingularMatrix
            if k % 10 == 0:
                assert adj == self._outcome(fraction_adjugate, m), m
            singular += not d
        assert singular >= 750

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatchError):
            fraction_solve([[1, 2]], (1,))
        with pytest.raises(DimensionMismatchError):
            fraction_solve(identity(2), (1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            adjugate([[1, 2]])


class TestHermiteNormalForm:
    def test_identity_is_canonical(self):
        h, u = hermite_normal_form(identity(3))
        assert h == identity(3)
        assert abs(determinant(u)) == 1

    def test_stretched_simplex_columns(self):
        h, _ = hermite_normal_form(A1_DIFFS)
        assert tuple(h[i][i] for i in range(3)) == (1, 1, 2)

    def test_reeve_simplex_columns_same_span(self):
        # Both difference sets generate the same index-2 subgroup.
        h, _ = hermite_normal_form(A2_DIFFS)
        assert h == ((1, 0, 0), (0, 1, 0), (0, 0, 2))

    def test_factorization_and_unimodularity(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n)
            h, u = hermite_normal_form(m)
            assert matmul(m, u) == h
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
                assert h[i][i] > 0
                for j in range(n):
                    if j > i:
                        assert h[i][j] == 0
                    elif j < i:
                        assert 0 <= h[i][j] < h[i][i]
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
            for i in range(n):
                prod *= h[i][i]
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
                v = [[rng.randint(-4, 4)] for _ in range(n)]  # one column
                for a, b in ((h, m), (m, h)):
                    x = fraction_solve(a, [r[0] for r in matmul(b, v)])  # a·x = b·v
                    assert all(t.denominator == 1 for t in x), (a, b, v)
                    assert matmul(a, [[int(t)] for t in x]) == matmul(b, v)
            done += 1

    def test_rectangular_and_rank_deficient(self):
        m = [[2, 4, 6], [1, 2, 3]]
        h, u = hermite_normal_form(m)
        assert matmul(m, u) == h
        assert abs(determinant(u)) == 1
        # rank 1: a single pivot column, the rest zero
        assert all(h[i][j] == 0 for i in range(2) for j in range(1, 3))


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
            assert matmul(m, adj) == tuple(tuple(d * x for x in row) for row in identity(n))
            done += 1

    def test_matmul_and_identity(self):
        m = ((1, 2), (3, 4))
        assert matmul(m, identity(2)) == matmul(identity(2), m) == m
        assert matmul(m, ((1,), (1,))) == ((3,), (7,))
        assert matmul(((1, 2, 3),), ((1,), (0,), (2,))) == ((7,),)
        with pytest.raises(DimensionMismatchError, match="inner dimensions do not match"):
            matmul(m, ((1, 2),))


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
            det = determinant([[x - y for x, y in zip(q, start[0])] for q in start[1:]])
            assert det and pivot in (det, -det), (points, pivot, det)
            signs.add(pivot == det)
        assert signs == {True, False}


class TestLLLReduce:
    """The integral LLL reduction on the width forms of seeded sheared
    simplices in dimensions 1-8: U is unimodular and LLL-reduced (size
    reduction and Lovasz's condition at delta = 3/4), checked on Fractions,
    and a form scaled by c^2, a dilate's, gives the same U."""

    def test_sheared_simplices(self):
        rng = random.Random(2607)
        swaps = 0
        for k in range(160):
            dim = 1 + k % 8
            shear = random_shear(rng, dim, rng.randint(dim, 3 * dim))
            stretch = [rng.randint(1, 3) for _ in range(dim)]
            verts = [(0,) * dim] + [tuple(c * x for x, c in zip(row, stretch)) for row in shear]
            gram = width_form(verts)
            u = _lll_reduce(gram)
            assert abs(determinant(u)) == 1, gram
            assert fraction_lll_defects(u, gram) == [], gram
            # the identity fails Lovasz's condition on most sheared forms
            swaps += bool(fraction_lll_defects(identity(dim), gram))
            c = rng.randint(2, 9)
            assert _lll_reduce([[c * c * x for x in row] for row in gram]) == u, gram
        assert swaps >= 100

    def test_reduced_form_is_kept(self):
        # an LLL-reduced form gives the identity, a cube's diagonal one included
        for n in range(1, DIM_CAP + 1):
            cube = list(itertools.product((0, 1), repeat=n))
            assert _lll_reduce(width_form(cube)) == identity(n)
        assert _lll_reduce([[2, 1], [1, 2]]) == identity(2)

    def test_short_vector_found(self):
        # the form of the basis (1, 0), (100, 1): the reduced basis is e1 and e2 - 100 e1
        gram = [[1, 100], [100, 10001]]
        u = _lll_reduce(gram)
        assert u == ((1, 0), (-100, 1))
        assert fraction_lll_defects(u, gram) == [] and fraction_lll_defects(identity(2), gram) != []

    def test_singular_form_refused(self):
        with pytest.raises(ValueError, match="not positive definite"):
            _lll_reduce([[1, 1], [1, 1]])
