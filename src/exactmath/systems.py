"""Linear systems A·x = b over the rationals: Kronecker-Capelli
classification, Gaussian elimination with parametric solution families,
Cramer's rule, and the inverse-matrix method.

Parametric families use the non-pivot columns (left to right) as free
parameters t1, t2, ...; any instantiation satisfies the system exactly.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotSquare, ParseError, ShapeMismatch, Singular, SingularSystem
from .matrices import Matrix, _forward, _reduce, det, inverse
from .rationals import parse_rational


@dataclass(frozen=True)
class LinearSystem:
    a: Matrix
    b: tuple  # column of m Fractions

    def __init__(self, a: Matrix, b):
        b = tuple(Fraction(x) for x in b)
        if len(b) != a.m:
            raise ShapeMismatch(f"{a.m} equations but {len(b)} right-hand sides")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @staticmethod
    def from_string(text: str, augmented: bool = False) -> "LinearSystem":
        """Parse "A | b" ("1 1; 1 -1 | 2 0"), or with augmented one matrix
        whose last column is b ("1 1 2; 1 -1 0")."""
        if augmented:
            aug = Matrix.from_string(text)
            if aug.n < 2:
                raise ParseError("an augmented matrix needs at least 2 columns")
            return LinearSystem(Matrix([row[:-1] for row in aug.entries]),
                                [row[-1] for row in aug.entries])
        if "|" not in text:
            raise ParseError("system input is 'A | b' (or use --augmented)")
        left, right = text.split("|", 1)
        return LinearSystem(Matrix.from_string(left), [parse_rational(t) for t in right.split()])

    def residual(self, x) -> tuple:
        """b - A·x, all Fractions; zero everywhere iff x solves the system."""
        return tuple(
            rhs - sum(coef * val for coef, val in zip(row, x))
            for row, rhs in zip(self.a.entries, self.b)
        )


@dataclass(frozen=True)
class ConsistencyReport:
    rank_a: int
    rank_ab: int
    n_unknowns: int
    verdict: str  # "unique" | "infinite" | "inconsistent"


@dataclass(frozen=True)
class Inconsistent:
    pass


@dataclass(frozen=True)
class Unique:
    values: tuple


@dataclass(frozen=True)
class Parametric:
    """particular + sum(t_i * directions[i]); free_cols names the columns
    the parameters stand for."""

    particular: tuple
    directions: tuple  # one column vector per free parameter
    free_cols: tuple

    def instantiate(self, params) -> tuple:
        params = tuple(Fraction(p) for p in params)
        if len(params) != len(self.directions):
            raise ShapeMismatch(
                f"{len(self.directions)} parameters expected, got {len(params)}")
        return tuple(
            base + sum(t * direction[i] for t, direction in zip(params, self.directions))
            for i, base in enumerate(self.particular)
        )


SolutionSet = Inconsistent | Unique | Parametric


def _eliminate(sys: LinearSystem):
    """Forward elimination of the rows of A|b over all n + 1 columns.

    Returns (rows, pivot_cols).  Kronecker-Capelli: rank A counts the pivots
    in the first n columns and rank (A|b) all of them, so the system is
    inconsistent iff column n holds a pivot."""
    rows = [[*row, rhs] for row, rhs in zip(sys.a.entries, sys.b)]
    pivots, _ = _forward(rows, sys.a.n + 1)
    return rows, pivots


def classify(sys: LinearSystem) -> ConsistencyReport:
    """Kronecker-Capelli: consistent iff rank A = rank (A|b); unique iff
    that common rank equals the number of unknowns."""
    n = sys.a.n
    _, pivots = _eliminate(sys)
    r_ab = len(pivots)
    r_a = sum(col < n for col in pivots)
    if r_a != r_ab:
        verdict = "inconsistent"
    elif r_a == n:
        verdict = "unique"
    else:
        verdict = "infinite"
    return ConsistencyReport(r_a, r_ab, n, verdict)


def solve_gauss(sys: LinearSystem) -> SolutionSet:
    """Reduce the augmented matrix to echelon form and back-substitute."""
    n = sys.a.n
    rows, pivots = _eliminate(sys)
    if n in pivots:
        return Inconsistent()
    _reduce(rows, pivots)
    free_cols = [j for j in range(n) if j not in pivots]
    particular = [Fraction(0)] * n
    for row, col in zip(rows, pivots):
        particular[col] = row[n]
    if not free_cols:
        return Unique(tuple(particular))
    directions = []
    for free in free_cols:
        direction = [Fraction(0)] * n
        direction[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            direction[col] = -row[free]
        directions.append(tuple(direction))
    return Parametric(tuple(particular), tuple(directions), tuple(free_cols))


def solve_cramer(sys: LinearSystem) -> Unique:
    """x_k = det(A_k)/det(A) where A_k has column k replaced by b."""
    if not sys.a.is_square():
        raise NotSquare("Cramer's rule needs a square system")
    d = det(sys.a)
    if d == 0:
        raise SingularSystem("the system determinant is zero")
    return Unique(tuple(
        det(Matrix([row[:k] + (rhs,) + row[k + 1:] for row, rhs in zip(sys.a.entries, sys.b)])) / d
        for k in range(sys.a.n)
    ))


def solve_inverse_method(sys: LinearSystem) -> Unique:
    """X = A^-1 · B for a regular square system."""
    if not sys.a.is_square():
        raise NotSquare("the inverse-matrix method needs a square system")
    try:
        a_inv = inverse(sys.a)
    except Singular as exc:
        raise SingularSystem(str(exc)) from exc
    return Unique(tuple(sum(map(operator.mul, row, sys.b)) for row in a_inv.entries))


def homogeneous_analysis(a: Matrix) -> dict:
    """Solve A·x = 0.  Nontrivial solutions exist iff rank A < n; for
    square A that is equivalent to det A = 0."""
    sys = LinearSystem(a, [Fraction(0)] * a.m)
    solutions = solve_gauss(sys)
    trivial_only = isinstance(solutions, Unique)
    if a.is_square() and trivial_only != (det(a) != 0):
        raise RuntimeError("elimination and the determinant disagree on A·x = 0")
    return {"trivial_only": trivial_only, "solutions": solutions}
