import random
from fractions import Fraction

import pytest

from exactmath import (
    Inconsistent,
    LinearSystem,
    Matrix,
    Parametric,
    Unique,
    classify_system,
    det,
    homogeneous_analysis,
    solve_cramer,
    solve_gauss,
    solve_inverse_method,
)
from exactmath.errors import NotSquare, ShapeMismatch, SingularSystem
from conftest import random_matrix, random_regular

F = Fraction


def sys_of(rows, rhs):
    return LinearSystem(Matrix(rows), rhs)


TOY_UNIQUE = sys_of([[1, 1], [1, -1]], [2, 0])
TOY_INFINITE = sys_of([[1, 1], [2, 2]], [2, 4])
TOY_INCONSISTENT = sys_of([[1, 1], [1, 1]], [2, 3])


def test_shape_check():
    with pytest.raises(ShapeMismatch):
        LinearSystem(Matrix([[1, 2]]), [1, 2])


def test_classify_toy_trio():
    assert classify_system(TOY_UNIQUE).verdict == "unique"
    assert classify_system(TOY_INFINITE).verdict == "infinite"
    report = classify_system(TOY_INCONSISTENT)
    assert report.verdict == "inconsistent"
    assert (report.rank_a, report.rank_ab) == (1, 2)


def test_toy_solutions():
    assert solve_gauss(TOY_UNIQUE) == Unique((F(1), F(1)))
    assert isinstance(solve_gauss(TOY_INFINITE), Parametric)
    assert solve_gauss(TOY_INCONSISTENT) == Inconsistent()


def test_4x3_system_all_methods():
    # x+y+z=3, 2x+3y-z=4, -x+2y+z=2, 3x+y-3z=1 -> (1, 1, 1)
    tall = sys_of(
        [[1, 1, 1], [2, 3, -1], [-1, 2, 1], [3, 1, -3]], [3, 4, 2, 1])
    assert solve_gauss(tall) == Unique((F(1), F(1), F(1)))
    assert tall.residual((1, 1, 1)) == (0, 0, 0, 0)

    # the equivalent reduced triangular square system for the square-only methods
    square = sys_of([[1, 1, 1], [0, 1, -3], [0, 0, 1]], [3, -2, 1])
    assert solve_cramer(square) == Unique((F(1), F(1), F(1)))
    assert solve_inverse_method(square) == Unique((F(1), F(1), F(1)))


def test_parametric_one_free():
    # x+y+z=3, 2x+3y-z=4, x+2y-2z=1, 3x+5y-3z=5 -> x=-4t+5, y=3t-2, z=t
    system = sys_of(
        [[1, 1, 1], [2, 3, -1], [1, 2, -2], [3, 5, -3]], [3, 4, 1, 5])
    solution = solve_gauss(system)
    assert isinstance(solution, Parametric)
    assert solution.particular == (F(5), F(-2), F(0))
    assert solution.directions == ((F(-4), F(3), F(1)),)
    assert solution.free_cols == (2,)
    for t in (F(0), F(1), F(-7, 3)):
        x = solution.instantiate([t])
        assert system.residual(x) == (0, 0, 0, 0)
        assert x == (-4 * t + 5, 3 * t - 2, t)


def test_parametric_two_free():
    # x+y+z+w=4, 2x+3y+z-2w=3, 3x+4y+2z-w=7
    system = sys_of(
        [[1, 1, 1, 1], [2, 3, 1, -2], [3, 4, 2, -1]], [4, 3, 7])
    solution = solve_gauss(system)
    assert isinstance(solution, Parametric)
    assert solution.particular == (F(9), F(-5), F(0), F(0))
    assert solution.directions == (
        (F(-2), F(1), F(1), F(0)), (F(-5), F(4), F(0), F(1)))
    assert solution.free_cols == (2, 3)
    for a, b in ((F(0), F(0)), (F(2), F(-1)), (F(1, 3), F(5, 2))):
        assert system.residual(solution.instantiate([a, b])) == (0, 0, 0)


def test_instantiate_arity():
    solution = solve_gauss(TOY_INFINITE)
    with pytest.raises(ShapeMismatch):
        solution.instantiate([1, 2])


def test_cramer_requirements():
    with pytest.raises(NotSquare):
        solve_cramer(sys_of([[1, 1, 1]], [1]))
    with pytest.raises(SingularSystem):
        solve_cramer(TOY_INFINITE)
    with pytest.raises(SingularSystem):
        solve_inverse_method(TOY_INFINITE)


def test_homogeneous_det61_trivial_only():
    a = Matrix([[1, 2, -3], [2, 5, 2], [3, -1, -4]])
    assert det(a) == 61
    analysis = homogeneous_analysis(a)
    assert analysis["trivial_only"]
    assert analysis["solutions"] == Unique((F(0), F(0), F(0)))


def test_homogeneous_4x3_family():
    a = Matrix([[1, 2, 1], [2, 3, 1], [3, 5, 2], [2, 4, 2]])
    analysis = homogeneous_analysis(a)
    assert not analysis["trivial_only"]
    solution = analysis["solutions"]
    assert isinstance(solution, Parametric)
    # the family (a, -a, a)
    assert solution.particular == (F(0), F(0), F(0))
    assert solution.directions == ((F(1), F(-1), F(1)),)


def test_homogeneous_invariant_failure_is_not_a_domain_error(monkeypatch):
    # elimination and det must agree on square A; a disagreement is a bug,
    # raised as such (not as a KernelError) and kept under python -O
    monkeypatch.setattr("exactmath.systems.det", lambda a: F(0))
    with pytest.raises(RuntimeError):
        homogeneous_analysis(Matrix([[1, 2], [3, 4]]))


def test_inverse_method_reports_only_singularity_as_singular_system(monkeypatch):
    def broken_inverse(a):
        raise ZeroDivisionError("not a singular-matrix report")
    monkeypatch.setattr("exactmath.systems.inverse", broken_inverse)
    with pytest.raises(ZeroDivisionError):
        solve_inverse_method(TOY_UNIQUE)


def test_methods_agree_on_random_regular_systems(rng):
    for _ in range(200):
        n = rng.randint(1, 5)
        a = random_regular(rng, n)
        b = [F(rng.randint(-9, 9)) for _ in range(n)]
        system = LinearSystem(a, b)
        gauss = solve_gauss(system)
        assert isinstance(gauss, Unique)
        assert solve_cramer(system) == gauss
        assert solve_inverse_method(system) == gauss
        assert system.residual(gauss.values) == tuple([F(0)] * n)


def test_parametric_instantiations_satisfy_system(rng):
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(2, 5)
        a = random_matrix(rng, m, n, lo=-4, hi=4)
        b_vec = [F(rng.randint(-5, 5)) for _ in range(m)]
        system = LinearSystem(a, b_vec)
        solution = solve_gauss(system)
        if isinstance(solution, Inconsistent):
            assert classify_system(system).verdict == "inconsistent"
            continue
        if isinstance(solution, Unique):
            assert system.residual(solution.values) == tuple([F(0)] * m)
            continue
        params = [F(rng.randint(-6, 6), rng.randint(1, 3))
                  for _ in solution.directions]
        assert system.residual(solution.instantiate(params)) == tuple([F(0)] * m)


def test_verdict_invariant_under_elementary_ops(rng):
    # scaling an equation or adding one equation to another never changes
    # the Kronecker-Capelli verdict
    for _ in range(40):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        a = random_matrix(rng, m, n, lo=-4, hi=4)
        b_vec = [F(rng.randint(-5, 5)) for _ in range(m)]
        system = LinearSystem(a, b_vec)
        verdict = classify_system(system).verdict

        i, j = rng.sample(range(m), 2)
        alpha = F(rng.randint(1, 5))

        rows = [list(r) for r in a.entries]
        rhs = list(b_vec)
        rows[i] = [alpha * x for x in rows[i]]
        rhs[i] = alpha * rhs[i]
        assert classify_system(LinearSystem(Matrix(rows), rhs)).verdict == verdict

        rows = [list(r) for r in a.entries]
        rhs = list(b_vec)
        rows[i] = [x + y for x, y in zip(rows[i], rows[j])]
        rhs[i] = rhs[i] + rhs[j]
        assert classify_system(LinearSystem(Matrix(rows), rhs)).verdict == verdict
