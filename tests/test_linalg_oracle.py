"""Differential tests: exact linear algebra checked against sympy, an
independent implementation.  sympy is only a test-time oracle; the suite
skips this module when it is not installed."""

import pytest

sympy = pytest.importorskip("sympy")

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from exactmath import (
    Inconsistent,
    LinearSystem,
    Matrix,
    Parametric,
    Unique,
    det,
    inverse,
    rank,
    solve_gauss,
)
from exactmath.errors import Singular

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def _grid(m, n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=m, max_size=m)


@st.composite
def matrices(draw, square=False, size=6):
    """Rational matrices up to size x (size + 1); about half are built as an
    m x r times r x n product, so rank deficiency (down to the zero matrix)
    is common."""
    m = draw(st.integers(1, size))
    n = m if square else draw(st.integers(1, size + 1))
    if draw(st.booleans()):
        return Matrix(draw(_grid(m, n)))
    r = draw(st.integers(0, min(m, n) - 1))
    left, right = draw(_grid(m, r)), draw(_grid(r, n))
    return Matrix([[sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0))
                    for j in range(n)] for i in range(m)])


def rat(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def to_sympy(a: Matrix):
    return sympy.Matrix([[rat(x) for x in row] for row in a.entries])


def to_fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def _shifted(n):
    """Superdiagonal entries and a full last row: every column's leading
    entry is zero, so each elimination step but the last swaps rows."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = Fraction(i + 2, i + 3) if i % 2 else Fraction(-i - 1)
    rows[-1] = [Fraction(k - 3, k % 3 + 1) for k in range(n)]
    return Matrix(rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(square=True, size=12))
@example(_shifted(7))
@example(Matrix([[Fraction(k, p) for k in row] for p, row in zip(
    (2, 3, 5, 7), ([1, -3, 5, 1], [2, 1, -4, 5], [1, -2, 3, 7], [3, 1, -6, 2]))]))
def test_det_matches_sympy(a):
    assert det(a) == to_fraction(to_sympy(a).det())


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_and_pivots_match_sympy_rref(a):
    _, pivots = to_sympy(a).rref()
    report = rank(a)
    assert report.rank == len(pivots)
    assert report.pivot_cols == tuple(pivots)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_inverse_matches_sympy(a):
    s = to_sympy(a)
    if s.det() == 0:
        with pytest.raises(Singular):
            inverse(a)
        return
    expected = [[to_fraction(x) for x in s.inv().row(i)] for i in range(a.m)]
    assert [list(row) for row in inverse(a).entries] == expected


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_gauss_families_match_sympy_nullspace(a, data):
    if data.draw(st.booleans()):
        b = data.draw(st.lists(rationals, min_size=a.m, max_size=a.m))
    else:  # consistent by construction: b = A x0
        x0 = data.draw(st.lists(rationals, min_size=a.n, max_size=a.n))
        b = [sum(c * x for c, x in zip(row, x0)) for row in a.entries]
    s = to_sympy(a)
    augmented = s.row_join(sympy.Matrix([rat(x) for x in b]))
    solution = solve_gauss(LinearSystem(a, b))
    if s.rank() != augmented.rank():
        assert isinstance(solution, Inconsistent)
        return
    nullity = len(s.nullspace())
    if nullity == 0:
        assert isinstance(solution, Unique)
    else:
        assert isinstance(solution, Parametric)
        assert len(solution.directions) == nullity
