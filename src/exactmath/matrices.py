"""Exact rational matrices: arithmetic, determinants by Laplace expansion,
fraction-free (Bareiss) elimination and the Sarrus rule,
minors/cofactors/adjugate, the inverse by Gauss-Jordan elimination, rank via
elementary row operations (with an operation log in the text's Iv/IIv
notation), and the matrix equations AX=B and XA=B.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadMethod,
    IndexOutOfRange,
    NotSquare,
    ParseError,
    ShapeMismatch,
    Singular,
    TooLarge,
)
from .rationals import parse_rational

# Laplace expansion takes about n! steps: order 8 runs over a second, and
# each order above multiplies that by about n.
MAX_LAPLACE = 8


@dataclass(frozen=True)
class Matrix:
    """Immutable m x n grid of Fractions, row-major."""

    entries: tuple  # tuple of row tuples

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not rows or not rows[0]:
            raise ShapeMismatch("a matrix needs at least one row and column")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ShapeMismatch("ragged rows")
        object.__setattr__(self, "entries", rows)

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, index):
        i, j = index
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(row[j] for row in self.entries)

    def is_square(self) -> bool:
        return self.m == self.n

    def _entrywise(self, other, op) -> "Matrix":
        if (self.m, self.n) != (other.m, other.n):
            raise ShapeMismatch(f"shapes {self.m}x{self.n} and {other.m}x{other.n} differ")
        return Matrix([map(op, ra, rb) for ra, rb in zip(self.entries, other.entries)])

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __str__(self):
        cells = [[str(x) for x in row] for row in self.entries]
        widths = [max(len(r[j]) for r in cells) for j in range(self.n)]
        return "\n".join(
            " ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in cells
        )

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def from_string(text: str) -> "Matrix":
        """Parse "2 -3; 0 1" (rows split on ';' or newlines)."""
        rows = []
        for chunk in text.replace(";", "\n").splitlines():
            chunk = chunk.strip()
            if chunk:
                rows.append([parse_rational(tok) for tok in chunk.split()])
        if not rows:
            raise ParseError("empty matrix literal")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ParseError("ragged rows")
        return Matrix(rows)


def scale(alpha, a: Matrix) -> Matrix:
    alpha = Fraction(alpha)
    return Matrix([[alpha * x for x in row] for row in a.entries])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.n != b.m:
        raise ShapeMismatch(f"cannot multiply {a.m}x{a.n} by {b.m}x{b.n}")
    cols = tuple(zip(*b.entries))
    return Matrix([[sum(map(operator.mul, row, col)) for col in cols] for row in a.entries])


def transpose(a: Matrix) -> Matrix:
    return Matrix([a.col(j) for j in range(a.n)])


# -- row elimination: the kernel behind inverse, rank and systems --------
# (det eliminates in integers instead; see _det_elimination)

def _forward(rows, width):
    """Forward elimination in place on a list of row lists, over the first
    `width` columns; the pivot is the first nonzero entry at or below the
    current row.  Zero rows end up at the bottom.

    Returns (pivot_cols, ops).  Each op is (i, factor, j): row i -= factor *
    row j, or rows i and j swapped when factor is None.
    """
    m = len(rows)
    pivots, ops = [], []
    for col in range(width):
        r = len(pivots)
        pivot_row = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            ops.append((r, None, pivot_row))
        top = rows[r]
        for i in range(r + 1, m):
            factor = rows[i][col] / top[col]
            if factor != 0:
                rows[i][col:] = [x - factor * y for x, y in zip(rows[i][col:], top[col:])]
                ops.append((i, factor, r))
        pivots.append(col)
    return pivots, ops


def _reduce(rows, pivots):
    """Back-substitution in place: a forward-eliminated matrix with the
    given pivot columns becomes its reduced row-echelon form."""
    for r, col in reversed(list(enumerate(pivots))):
        top = rows[r]
        pivot = top[col]
        top[col:] = [x / pivot for x in top[col:]]
        for i in range(r):
            factor = rows[i][col]
            if factor != 0:
                rows[i][col:] = [x - factor * y for x, y in zip(rows[i][col:], top[col:])]


# -- determinants ----------------------------------------------------------

def _strike(rows, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]


def _det_laplace(rows) -> Fraction:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    # expand along the line with the most zeros (rows win ties, row 1 first);
    # a column is a row of the transpose, which has the same det
    cols = tuple(zip(*rows))
    best_row = max(range(n), key=lambda i: rows[i].count(0))
    best_col = max(range(n), key=lambda j: cols[j].count(0))
    if cols[best_col].count(0) > rows[best_row].count(0):
        rows, best_row = cols, best_col
    # an empty sum (a zero row) is the int 0, which det makes a Fraction
    return sum((-1) ** (best_row + j) * x * _det_laplace(_strike(rows, best_row, j))
               for j, x in enumerate(rows[best_row]) if x != 0)


def _det_elimination(a: Matrix) -> Fraction:
    """Bareiss fraction-free elimination (Bareiss 1968) on integer rows: row
    i is scaled by the lcm L_i of its denominators, every division is exact,
    and each entry is a minor of the scaled matrix, so none outgrows
    Hadamard's bound.  det = sign * last pivot / prod(L_i)."""
    rows, denominator = [], 1
    for row in a.entries:
        lcm = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (lcm // x.denominator) for x in row])
        denominator *= lcm
    sign, previous = 1, 1
    for col in range(a.n):
        pivot_row = next((i for i in range(col, a.n) if rows[i][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        top = rows[col]
        pivot = top[col]
        for row in rows[col + 1:]:
            factor = row[col]
            row[col + 1:] = [(pivot * x - factor * y) // previous
                             for x, y in zip(row[col + 1:], top[col + 1:])]
        previous = pivot
    return Fraction(sign * previous, denominator)


def _det_sarrus(a: Matrix) -> Fraction:
    e = a.entries
    return (
        e[0][0] * e[1][1] * e[2][2]
        + e[0][1] * e[1][2] * e[2][0]
        + e[0][2] * e[1][0] * e[2][1]
        - e[0][2] * e[1][1] * e[2][0]
        - e[0][0] * e[1][2] * e[2][1]
        - e[0][1] * e[1][0] * e[2][2]
    )


def det(a: Matrix, method: str = "elimination") -> Fraction:
    """Determinant by 'laplace', 'elimination', or 'sarrus3' (3x3 only)."""
    if not a.is_square():
        raise NotSquare(f"determinant of a {a.m}x{a.n} matrix")
    if method == "laplace":
        if a.n > MAX_LAPLACE:
            raise TooLarge(f"Laplace expansion of order {a.n} exceeds the cap of {MAX_LAPLACE}")
        return Fraction(_det_laplace(a.entries))
    if method == "elimination":
        return _det_elimination(a)
    if method == "sarrus3":
        if a.n != 3:
            raise BadMethod("the Sarrus rule applies to 3x3 matrices only")
        return _det_sarrus(a)
    raise BadMethod(f"unknown determinant method {method!r}")


# -- minors, cofactors, adjugate, inverse ----------------------------------

def minor(a: Matrix, i: int, j: int) -> Fraction:
    if not a.is_square() or a.n < 2:
        raise NotSquare("minors require a square matrix of order >= 2")
    if not (0 <= i < a.m and 0 <= j < a.n):
        raise IndexOutOfRange(f"({i}, {j}) outside a {a.m}x{a.n} matrix")
    return det(Matrix(_strike(a.entries, i, j)))


def cofactor(a: Matrix, i: int, j: int) -> Fraction:
    return (-1) ** (i + j) * minor(a, i, j)


def cofactor_matrix(a: Matrix) -> Matrix:
    return Matrix([
        [cofactor(a, i, j) for j in range(a.n)] for i in range(a.m)
    ])


def adjugate(a: Matrix) -> Matrix:
    return transpose(cofactor_matrix(a))


def inverse(a: Matrix) -> Matrix:
    """A^-1 by Gauss-Jordan elimination on [A | I]; raises Singular when det A = 0."""
    if not a.is_square():
        raise NotSquare(f"inverse of a {a.m}x{a.n} matrix")
    n = a.n
    rows = [list(row + e) for row, e in zip(a.entries, Matrix.identity(n).entries)]
    pivots, _ = _forward(rows, n)
    if len(pivots) < n:
        raise Singular("singular matrix")
    _reduce(rows, pivots)
    return Matrix([row[n:] for row in rows])


# -- rank ------------------------------------------------------------------

_NUMERALS = ((1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"), (90, "XC"),
             (50, "L"), (40, "XL"), (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I"))


def _roman(n: int) -> str:
    """The Roman numeral of n >= 1."""
    numeral = ""
    for value, symbol in _NUMERALS:
        count, n = divmod(n, value)
        numeral += symbol * count
    return numeral


@dataclass(frozen=True)
class EchelonReport:
    echelon: Matrix
    rank: int
    pivot_cols: tuple[int, ...]
    op_log: tuple[str, ...]


def rank(a: Matrix) -> EchelonReport:
    """Row-echelon form via the elementary transformations.

    Pivots are the first nonzero entry in each column; the log records the
    operations in the text's notation ("IIv-(2)Iv", "Iv<->IIv").
    """
    rows = [list(row) for row in a.entries]
    pivots, ops = _forward(rows, a.n)
    label = [f"{_roman(i)}v" for i in range(1, a.m + 1)]
    log = tuple(
        f"{label[i]}<->{label[j]}" if factor is None
        else f"{label[i]}-({factor}){label[j]}"
        for i, factor, j in ops
    )
    return EchelonReport(Matrix(rows), len(pivots), tuple(pivots), log)


# -- matrix equations ------------------------------------------------------

def solve_matrix_equation(side: str, a: Matrix, b: Matrix) -> Matrix:
    """Solve AX = B ('left_AX_eq_B') or XA = B ('right_XA_eq_B')."""
    if not a.is_square():
        raise NotSquare("the coefficient matrix must be square")
    a_inv = inverse(a)
    if side == "left_AX_eq_B":
        if a.n != b.m:
            raise ShapeMismatch(f"AX=B needs {a.n} rows in B, got {b.m}")
        return matmul(a_inv, b)
    if side == "right_XA_eq_B":
        if b.n != a.m:
            raise ShapeMismatch(f"XA=B needs {a.m} columns in B, got {b.n}")
        return matmul(b, a_inv)
    raise BadMethod(f"unknown equation side {side!r}")
