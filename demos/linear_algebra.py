"""Worked examples: determinants by three methods, the inverse, rank
by elementary transformations, and linear systems by Gauss, Cramer, and the
inverse-matrix method."""

from exactmath import (
    LinearSystem,
    Matrix,
    classify_system,
    det,
    inverse,
    rank,
    solve_cramer,
    solve_gauss,
    solve_inverse_method,
)


def main():
    print("== Determinants ==")
    a = Matrix([[3, 2, -1], [1, 2, 4], [0, 6, -2]])
    for method in ("elimination", "laplace", "sarrus3"):
        print(f"  det by {method}: {det(a, method)}")

    print("\n== Inverse ==")
    c = Matrix([[-2, 1, 2], [2, 1, 4], [1, 0, -1]])
    print(inverse(c))

    print("\n== Rank ==")
    report = rank(Matrix([[3, 6, 6, 9, 1], [2, 4, 1, 2, 0], [-1, -2, 4, 5, 1]]))
    print(report.echelon)
    print(f"  rank = {report.rank}, pivot columns {report.pivot_cols}")
    print("  ops:", "; ".join(report.op_log))

    print("\n== Linear systems ==")
    system = LinearSystem(
        Matrix([[1, 1, 1], [2, 3, -1], [-1, 2, 1], [3, 1, -3]]), [3, 4, 2, 1])
    print(f"  verdict: {classify_system(system).verdict}")
    print(f"  gauss: {solve_gauss(system)}")

    square = LinearSystem(Matrix([[1, 1, 1], [0, 1, -3], [0, 0, 1]]), [3, -2, 1])
    print(f"  cramer: {solve_cramer(square)}")
    print(f"  inverse method: {solve_inverse_method(square)}")

    free = LinearSystem(
        Matrix([[1, 1, 1], [2, 3, -1], [1, 2, -2], [3, 5, -3]]), [3, 4, 1, 5])
    print("  one-parameter family:", solve_gauss(free))


if __name__ == "__main__":
    main()
