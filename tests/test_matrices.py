import random
from fractions import Fraction

import pytest

from exactmath import (
    Matrix,
    adjugate,
    cofactor,
    cofactor_matrix,
    det,
    inverse,
    matmul,
    minor,
    rank,
    scale,
    solve_matrix_equation,
    transpose,
)
from exactmath.errors import (
    BadMethod,
    IndexOutOfRange,
    NotSquare,
    ParseError,
    ShapeMismatch,
    Singular,
    TooLarge,
)
from exactmath.matrices import MAX_LAPLACE
from conftest import random_matrix, random_regular

F = Fraction


def test_constructor_and_accessors():
    a = Matrix([[1, 2], [3, 4]])
    assert (a.m, a.n) == (2, 2)
    assert a[1, 0] == 3
    assert a.row(0) == (1, 2)
    assert a.col(1) == (2, 4)
    with pytest.raises(ShapeMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        Matrix([])


def test_from_string():
    assert Matrix.from_string("2 -3; 0 1") == Matrix([[2, -3], [0, 1]])
    assert Matrix.from_string("1/2 0\n-1 3") == Matrix([[F(1, 2), 0], [-1, 3]])
    with pytest.raises(ParseError):
        Matrix.from_string("  ")
    # a ragged literal is malformed input, not a shape error of the kernel
    with pytest.raises(ParseError):
        Matrix.from_string("1 2; 3")


def test_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[5, 6], [7, 8]])
    assert a + b == Matrix([[6, 8], [10, 12]])
    assert b - a == Matrix([[4, 4], [4, 4]])
    assert scale(F(1, 2), a) == Matrix([[F(1, 2), 1], [F(3, 2), 2]])
    assert matmul(a, Matrix.identity(2)) == a
    assert transpose(a) == Matrix([[1, 3], [2, 4]])
    with pytest.raises(ShapeMismatch, match="^shapes 2x2 and 1x3 differ$"):
        a + Matrix([[1, 2, 3]])
    with pytest.raises(ShapeMismatch, match="^shapes 1x3 and 2x2 differ$"):
        Matrix([[1, 2, 3]]) - a
    with pytest.raises(ShapeMismatch):
        matmul(a, Matrix([[1, 2, 3]]))


def test_det_fixtures():
    assert det(Matrix([[7, -4], [3, 4]])) == 40
    three = Matrix([[3, 2, -1], [1, 2, 4], [0, 6, -2]])
    assert det(three) == -86
    assert det(three, "laplace") == -86
    assert det(three, "sarrus3") == -86
    four = Matrix([[2, 1, 2, 1], [2, -3, 1, -3], [4, 2, 2, 2], [-2, 4, -1, 5]])
    assert det(four) == 16
    assert det(four, "laplace") == 16
    rational = Matrix([[F(1, 2), F(1, 3), 0], [F(2, 5), -1, F(1, 7)], [3, F(1, 4), 2]])
    assert det(rational) == det(rational, "laplace") == F(-137, 120)


def test_det_errors():
    with pytest.raises(NotSquare):
        det(Matrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(BadMethod):
        det(Matrix([[1, 2], [3, 4]]), "sarrus3")
    with pytest.raises(BadMethod):
        det(Matrix([[1]]), "qr")


def test_laplace_order_cap():
    assert det(Matrix.identity(MAX_LAPLACE), "laplace") == 1
    big = Matrix.identity(MAX_LAPLACE + 1)
    with pytest.raises(TooLarge, match=r"^Laplace expansion of order 9 exceeds the cap of 8$"):
        det(big, "laplace")
    assert det(big) == 1


def test_three_method_agreement(rng):
    for _ in range(200):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n)
        reference = det(a, "elimination")
        assert det(a, "laplace") == reference
        if n == 3:
            assert det(a, "sarrus3") == reference


def test_determinant_properties(rng):
    for _ in range(40):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        d = det(a)
        # 1. transpose invariance
        assert det(transpose(a)) == d
        # 2. multiplicativity
        assert det(matmul(a, b)) == d * det(b)
        # 3. swapping two rows flips the sign
        i, j = rng.sample(range(n), 2)
        rows = list(a.entries)
        rows[i], rows[j] = rows[j], rows[i]
        assert det(Matrix(rows)) == -d
        # 4. scaling one row scales the determinant
        alpha = F(rng.randint(2, 5), rng.randint(1, 4))
        rows = list(a.entries)
        rows[i] = tuple(alpha * x for x in rows[i])
        assert det(Matrix(rows)) == alpha * d
        # 5. scaling the whole matrix scales by alpha^n
        assert det(scale(alpha, a)) == alpha**n * d
        # 6. adding a multiple of one row to another preserves the determinant
        rows = list(a.entries)
        rows[i] = tuple(x + alpha * y for x, y in zip(rows[i], rows[j]))
        assert det(Matrix(rows)) == d
        # 7. a repeated row kills the determinant
        rows = list(a.entries)
        rows[i] = rows[j]
        assert det(Matrix(rows)) == 0
        # 8. a zero row kills the determinant
        rows = list(a.entries)
        rows[i] = (F(0),) * n
        assert det(Matrix(rows)) == 0


def test_symbolic_vandermonde_like_identity(rng):
    # |ax a^2+x^2 1; ay a^2+y^2 1; az a^2+z^2 1| = a(x-y)(x-z)(z-y)
    for _ in range(50):
        a, x, y, z = (F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(4))
        m = Matrix([
            [a * x, a**2 + x**2, 1],
            [a * y, a**2 + y**2, 1],
            [a * z, a**2 + z**2, 1],
        ])
        assert det(m) == a * (x - y) * (x - z) * (z - y)


def test_minor_cofactor():
    a = Matrix([[3, 2, -1], [1, 2, 4], [0, 6, -2]])
    assert minor(a, 1, 0) == det(Matrix([[2, -1], [6, -2]]))
    assert cofactor(a, 1, 0) == -minor(a, 1, 0)
    with pytest.raises(IndexOutOfRange):
        minor(a, 3, 0)
    with pytest.raises(NotSquare):
        minor(Matrix([[1]]), 0, 0)


def test_adjugate_identities(rng):
    for _ in range(100):
        n = rng.randint(2, 4)
        a = random_regular(rng, n)
        d = det(a)
        adj = adjugate(a)
        assert matmul(a, adj) == scale(d, Matrix.identity(n))
        assert matmul(adj, a) == scale(d, Matrix.identity(n))
        assert det(adj) == d ** (n - 1)


def test_inverse_fixtures():
    a = Matrix([[2, -3], [0, 1]])
    assert inverse(a) == Matrix([[F(1, 2), F(3, 2)], [0, 1]])
    c = Matrix([[-2, 1, 2], [2, 1, 4], [1, 0, -1]])
    c_inv = inverse(c)
    assert matmul(c, c_inv) == Matrix.identity(3)
    assert c_inv == scale(F(1, 6), Matrix([[-1, 1, 2], [6, 0, 12], [-1, 1, -4]]))


def test_singular_inverse():
    with pytest.raises(Singular):
        inverse(Matrix([[2, -3], [-4, 6]]))
    with pytest.raises(Singular):
        inverse(Matrix([[0]]))
    with pytest.raises(NotSquare):
        inverse(Matrix([[1, 2]]))


def test_inverse_properties(rng):
    for _ in range(50):
        n = rng.randint(1, 4)
        a = random_regular(rng, n)
        a_inv = inverse(a)
        assert matmul(a, a_inv) == Matrix.identity(n)
        assert inverse(a_inv) == a
        assert det(a_inv) == 1 / det(a)


def test_rank_fixtures():
    triangular = rank(Matrix([[4, 1, 1], [1, 2, 1], [1, 1, 2]]))
    assert triangular.rank == 3

    trapezoid = rank(Matrix([[2, 3, -1, 4], [5, -3, 8, 19], [1, -2, 3, 5]]))
    assert trapezoid.rank == 2

    stepped = rank(Matrix([[3, 6, 6, 9, 1], [2, 4, 1, 2, 0], [-1, -2, 4, 5, 1]]))
    assert stepped.rank == 2
    assert stepped.pivot_cols == (0, 2)


def test_rank_report_structure():
    report = rank(Matrix([[1, 2, 1], [2, 3, 1], [3, 5, 2], [2, 4, 2]]))
    assert report.rank == 2
    assert len(report.op_log) > 0
    # echelon: zero rows at the bottom, pivot staircase strictly to the right
    echelon = report.echelon
    last_pivot = -1
    for i in range(echelon.m):
        row = echelon.row(i)
        nonzero = [j for j, x in enumerate(row) if x != 0]
        if not nonzero:
            assert all(all(x == 0 for x in echelon.row(k))
                       for k in range(i, echelon.m))
            break
        assert nonzero[0] > last_pivot
        last_pivot = nonzero[0]


def test_rank_bounds_and_transpose(rng):
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, m, n, lo=-3, hi=3)
        r = rank(a).rank
        assert 0 <= r <= min(m, n)
        assert rank(transpose(a)).rank == r
        if m == n:
            assert (r == n) == (det(a) != 0)


def test_matrix_equation_left():
    # (A - 3I) X = I - B with A = (2 -3; -4 6), B = (-1 0; 2 3)
    c = Matrix([[-1, -3], [-4, 3]])
    d = Matrix([[2, 0], [-2, -2]])
    x = solve_matrix_equation("left_AX_eq_B", c, d)
    assert x == Matrix([[0, F(2, 5)], [F(-2, 3), F(-2, 15)]])
    assert matmul(c, x) == d


def test_matrix_equation_right():
    # X (A - 2I) = I + A with A = (0 1 2; 2 3 4; 1 0 1)
    c = Matrix([[-2, 1, 2], [2, 1, 4], [1, 0, -1]])
    d = Matrix([[1, 1, 2], [2, 4, 4], [1, 0, 2]])
    x = solve_matrix_equation("right_XA_eq_B", c, d)
    assert x == scale(F(1, 6), Matrix([[3, 3, 6], [18, 6, 36], [-3, 3, -6]]))
    assert matmul(x, c) == d


def test_matrix_equation_errors():
    a = Matrix([[1, 0], [0, 1]])
    with pytest.raises(BadMethod):
        solve_matrix_equation("middle", a, a)
    with pytest.raises(ShapeMismatch):
        solve_matrix_equation("left_AX_eq_B", a, Matrix([[1, 2, 3]]))
    with pytest.raises(Singular):
        solve_matrix_equation("left_AX_eq_B", Matrix([[2, -3], [-4, 6]]), a)
