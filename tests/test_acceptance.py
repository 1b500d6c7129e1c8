"""End-to-end acceptance gate: ten numbered criteria, each printing one
pass/fail line.  Tolerances are exact rational equality unless a criterion
says 1e-9.
"""

import math
import random
from fractions import Fraction

from exactmath import (
    FinSet,
    GaussianRational,
    LinearSystem,
    Matrix,
    Plane,
    Relation,
    StructureClass,
    Unique,
    Vec3,
    adjugate,
    arg_canonical,
    binom,
    binom_term,
    binom_expand,
    cayley_table,
    classify,
    classify_structure,
    classify_system,
    closed_form_sum,
    cross,
    det,
    divides,
    dot,
    equivalence_analysis,
    factorial,
    from_base,
    from_polar,
    gcd,
    homogeneous_analysis,
    i_pow,
    inverse,
    lcm,
    line_plane_relation,
    matmul,
    mixed,
    parse_formula,
    percent_chain,
    percent_solve,
    plane_three_points,
    point_plane_distance,
    polar_of,
    powerset,
    pow_int,
    rank,
    rel_properties,
    roots_n,
    scale,
    simple_mixture,
    solve_cramer,
    solve_gauss,
    solve_inverse_method,
    solve_matrix_equation,
    star_scheme,
    tetra_volume,
    three_set_counts,
    to_base,
    to_polar,
    triangle_area,
    set_ops,
)
from exactmath.errors import Singular
from exactmath.geometry import (
    line_plane_intersection_line,
    line_point_dir,
)
from exactmath.matrices import Matrix as M
from conftest import random_matrix, random_regular

F = Fraction
TOL = 1e-9


def _report(number, label, check):
    try:
        check()
    except BaseException:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    print(f"criterion {number:2d} [{label}]: PASS")


def test_criterion_01_exact_golden_values():
    def check():
        assert gcd(252, 198)[0] == 18
        assert gcd(222, 102)[0] == 6
        assert lcm(90, 24) == 360
        assert str(to_base(125, 7)) == "236"
        assert str(to_base(147, 2)) == "10010011"
        assert from_base(to_base(147, 2)) == 147
        assert factorial(5) == 120
        assert binom(7, 2) == 21
        coeffs = [t.coeff for t in binom_expand(4, 3, 0, 2, 1)]
        assert coeffs == [81, 216, 216, 96, 16]
        t5 = binom_term(12, 4, 1, F(1, 2), 1, F(2, 3))
        assert (t5.coeff, t5.exponent) == (495, F(20, 3))
        constant = next(t for t in binom_expand(12, 1, 1, 1, -2)
                        if t.exponent == 0)
        assert constant.coeff == 495

    _report(1, "exact golden values", check)


def test_criterion_02_logic():
    def check():
        assert classify(parse_formula("(p & !p) -> q")).value == "tautology"
        assert classify(parse_formula("p -> (q | r)")).value == "contingent"
        for text in ("!(p & q) <-> (!p | !q)",
                     "!(p | q) <-> (!p & !q)",
                     "p | !p",
                     "(p -> q) <-> (!q -> !p)"):
            assert classify(parse_formula(text)).value == "tautology"

    _report(2, "logic classification", check)


def test_criterion_03_sets_relations():
    def check():
        assert len(powerset(FinSet(["a", "b", "c"]))) == 8
        a = FinSet(["a", "b", "c", "d", "e", "f"])
        b = FinSet(["d", "e", "f", "g", "h"])
        assert set_ops(a, b, "symdiff") == FinSet(["a", "b", "c", "g", "h"])

        carrier = FinSet([1, 2, 3, 4, 5, 6])
        pairs = [(x, y) for x in carrier.elements for y in carrier.elements
                 if {x, y} <= {1, 2, 3} or {x, y} <= {4, 5} or {x, y} <= {6}]
        classes = equivalence_analysis(Relation(carrier, carrier, pairs))["classes"]
        assert list(classes) == [FinSet([1, 2, 3]), FinSet([4, 5]), FinSet([6])]

        div_carrier = FinSet([2, 4, 8, 16])
        divides = Relation(div_carrier, div_carrier,
                           [(x, y) for x in div_carrier.elements
                            for y in div_carrier.elements if y % x == 0])
        props = rel_properties(divides)
        assert props["reflexive"] and props["antisymmetric"] and props["transitive"]

        _, third = three_set_counts(35, 18, 22, 6, 11, 4, 1)
        assert third == 15

    _report(3, "sets and relations", check)


def test_criterion_04_finite_algebra():
    def check():
        from exactmath import mod_add_table
        info = classify_structure(mod_add_table(6))
        assert info["class"] is StructureClass.ABELIAN_GROUP

        g = lambda re, im: GaussianRational(re, im)
        minus1, one, i, minus_i = g(-1, 0), g(1, 0), g(0, 1), g(0, -1)
        table = cayley_table((minus1, one, i, minus_i), lambda a, b: a * b)
        assert table.table == (
            (one, minus1, minus_i, i),
            (minus1, one, i, minus_i),
            (minus_i, i, minus1, one),
            (i, minus_i, one, minus1),
        )

    _report(4, "finite algebra", check)


def test_criterion_05_complex():
    def check():
        g = lambda re, im=0: GaussianRational(re, im)
        assert g(3, 4) * g(2, -5) == g(26, -7)

        power = g(1)
        for _ in range(80):
            power = power * g(-1, -1)
        assert i_pow(81) + i_pow(43) + power / g(2**40) + i_pow(19) == g(1, -1)

        p = polar_of(4 * math.sqrt(3.0), 4.0)
        assert abs(p.r - 8.0) < TOL and abs(p.theta - math.pi / 6) < TOL

        angles = [r.theta for r in roots_n(g(1, -1), 3)]
        expected = [7 * math.pi / 12, 15 * math.pi / 12, 23 * math.pi / 12]
        assert all(abs(got - want) < TOL for got, want in zip(angles, expected))

    _report(5, "complex numbers", check)


def test_criterion_06_matrices():
    def check():
        assert det(M([[7, -4], [3, 4]])) == 40
        assert det(M([[3, 2, -1], [1, 2, 4], [0, 6, -2]])) == -86
        assert det(M([[2, 1, 2, 1], [2, -3, 1, -3],
                      [4, 2, 2, 2], [-2, 4, -1, 5]])) == 16

        assert inverse(M([[2, -3], [0, 1]])) == M([[F(1, 2), F(3, 2)], [0, 1]])
        c = M([[-2, 1, 2], [2, 1, 4], [1, 0, -1]])
        assert inverse(c) == scale(
            F(1, 6), M([[-1, 1, 2], [6, 0, 12], [-1, 1, -4]]))
        try:
            inverse(M([[2, -3], [-4, 6]]))
            raise AssertionError("singular matrix must raise")
        except Singular:
            pass

        assert rank(M([[4, 1, 1], [1, 2, 1], [1, 1, 2]])).rank == 3
        assert rank(M([[2, 3, -1, 4], [5, -3, 8, 19], [1, -2, 3, 5]])).rank == 2
        assert rank(M([[3, 6, 6, 9, 1], [2, 4, 1, 2, 0],
                       [-1, -2, 4, 5, 1]])).rank == 2

        x = solve_matrix_equation(
            "left_AX_eq_B", M([[-1, -3], [-4, 3]]), M([[2, 0], [-2, -2]]))
        assert x == M([[0, F(2, 5)], [F(-2, 3), F(-2, 15)]])
        x = solve_matrix_equation(
            "right_XA_eq_B", M([[-2, 1, 2], [2, 1, 4], [1, 0, -1]]),
            M([[1, 1, 2], [2, 4, 4], [1, 0, 2]]))
        assert x == scale(F(1, 6), M([[3, 3, 6], [18, 6, 36], [-3, 3, -6]]))

    _report(6, "matrices", check)


def test_criterion_07_systems():
    def check():
        trio = [
            (LinearSystem(M([[1, 1], [1, -1]]), [2, 0]), "unique"),
            (LinearSystem(M([[1, 1], [2, 2]]), [2, 4]), "infinite"),
            (LinearSystem(M([[1, 1], [1, 1]]), [2, 3]), "inconsistent"),
        ]
        for system, verdict in trio:
            assert classify_system(system).verdict == verdict

        tall = LinearSystem(
            M([[1, 1, 1], [2, 3, -1], [-1, 2, 1], [3, 1, -3]]), [3, 4, 2, 1])
        assert solve_gauss(tall) == Unique((F(1), F(1), F(1)))
        square = LinearSystem(M([[1, 1, 1], [0, 1, -3], [0, 0, 1]]), [3, -2, 1])
        assert solve_cramer(square) == Unique((F(1), F(1), F(1)))
        assert solve_inverse_method(square) == Unique((F(1), F(1), F(1)))

        one_free = LinearSystem(
            M([[1, 1, 1], [2, 3, -1], [1, 2, -2], [3, 5, -3]]), [3, 4, 1, 5])
        sol = solve_gauss(one_free)
        for t in (F(0), F(1), F(-3, 7)):
            x = sol.instantiate([t])
            assert x == (-4 * t + 5, 3 * t - 2, t)
            assert one_free.residual(x) == (0, 0, 0, 0)

        two_free = LinearSystem(
            M([[1, 1, 1, 1], [2, 3, 1, -2], [3, 4, 2, -1]]), [4, 3, 7])
        sol = solve_gauss(two_free)
        for a, b in ((F(0), F(0)), (F(1), F(-2)), (F(5, 3), F(1, 2))):
            assert two_free.residual(sol.instantiate([a, b])) == (0, 0, 0)

        a61 = M([[1, 2, -3], [2, 5, 2], [3, -1, -4]])
        assert det(a61) == 61
        assert homogeneous_analysis(a61)["trivial_only"]

        family = homogeneous_analysis(
            M([[1, 2, 1], [2, 3, 1], [3, 5, 2], [2, 4, 2]]))
        assert not family["trivial_only"]
        assert family["solutions"].directions == ((F(1), F(-1), F(1)),)

    _report(7, "linear systems", check)


def test_criterion_08_geometry():
    def check():
        plane = plane_three_points(Vec3(1, 1, 0), Vec3(-2, 0, 4), Vec3(2, 3, -1))
        norm = plane.normalized()
        assert (norm.a, norm.b, norm.c, norm.d) == (7, -1, 5, -6)

        base = plane_three_points(
            Vec3(3, 5, 3), Vec3(-2, 11, -5), Vec3(1, -1, 4))
        assert point_plane_distance(Vec3(0, 6, 4), base)["d_sq"] == 9

        line = line_plane_intersection_line(
            Plane(2, -1, -1, -4), Plane(2, -3, -2, 7))
        assert line.dir == Vec3(-1, 2, -4)
        assert Plane(2, -1, -1, -4).contains(line.point)
        assert Plane(2, -3, -2, 7).contains(line.point)

        parallel = line_plane_relation(
            line_point_dir(Vec3(1, 0, -1), Vec3(2, 3, -1)), Plane(1, 1, 5, -7))
        assert parallel["kind"] == "parallel_disjoint"
        contained = line_plane_relation(
            line_point_dir(Vec3(2, 1, 3), Vec3(3, -2, 2)), Plane(2, 2, -1, -3))
        assert contained["kind"] == "contained"
        pierce = line_plane_relation(
            line_point_dir(Vec3(1, 2, 3), Vec3(3, -2, 1)), Plane(6, -4, 2, 7))
        assert pierce["kind"] == "intersecting"
        assert pierce["point"] == Vec3(F(-5, 28), F(78, 28), F(73, 28))
        assert abs(pierce["sin_angle"] - 1.0) < TOL

        assert tetra_volume(Vec3(3, 1, -2), Vec3(-4, 2, 3),
                            Vec3(1, 5, -1), Vec3(-5, -1, 2)) == 9

        area = triangle_area(Vec3(1, 2, 3), Vec3(-2, 5, 4), Vec3(2, 5, 8))
        assert abs(area - 2 * math.sqrt(34)) < TOL
        assert abs(area * area - F(136 * 4, 4)) < 1e-6

    _report(8, "geometry", check)


def test_criterion_09_mixtures():
    def check():
        assert simple_mixture(48, 78, 60, 10).amounts == (6, 4)
        assert star_scheme([160, 140, 110, 50], 120, 560) == [280, 40, 80, 160]
        assert percent_solve(i=30, p=32) == F(375, 4)
        assert percent_chain(final=60, deltas=[-10, 15]) == F(4000, 69)

    _report(9, "mixtures", check)


def test_criterion_10_property_suites():
    def check():
        rng = random.Random(1404)

        for _ in range(200):
            n = rng.randint(1, 6)
            a = random_matrix(rng, n, n)
            reference = det(a, "elimination")
            assert det(a, "laplace") == reference
            if n == 3:
                assert det(a, "sarrus3") == reference

        for _ in range(100):
            n = rng.randint(2, 4)
            a = random_regular(rng, n)
            d = det(a)
            adj = adjugate(a)
            assert matmul(a, adj) == scale(d, Matrix.identity(n))
            assert det(adj) == d ** (n - 1)

        for _ in range(200):
            n = rng.randint(1, 4)
            a = random_regular(rng, n)
            b = [F(rng.randint(-9, 9)) for _ in range(n)]
            system = LinearSystem(a, b)
            reference = solve_gauss(system)
            assert solve_cramer(system) == reference
            assert solve_inverse_method(system) == reference

        for _ in range(100):
            u = Vec3(*(rng.randint(-9, 9) for _ in range(3)))
            v = Vec3(*(rng.randint(-9, 9) for _ in range(3)))
            w = Vec3(*(rng.randint(-9, 9) for _ in range(3)))
            assert mixed(u, v, w) == det(M([u.components(), v.components(), w.components()]))
            c = cross(u, v)
            assert dot(c, u) == 0 and dot(c, v) == 0
            assert cross(v, u) == -c

        for n in range(1, 301):
            assert divides(3, 5**n + 2**(n + 1))
            assert divides(6, n**3 + 11 * n)
            assert divides(6, 7**n - 1)

        for _ in range(200):
            x = F(rng.randint(-80, 400), rng.randint(1, 40))
            if x < -1:
                continue
            n = rng.randint(0, 12)
            assert (1 + x) ** n >= 1 + n * x

        for n in range(0, 10_001, 7):
            for base in (2, 7, 16):
                assert from_base(to_base(n, base)) == n

        kind_oracles = {
            "first_n": lambda n: sum(range(1, n + 1)),
            "odd": lambda n: sum(range(1, 2 * n, 2)),
            "squares": lambda n: sum(k * k for k in range(1, n + 1)),
        }
        for kind, oracle in kind_oracles.items():
            for n in (1, 2, 39, 500):
                assert closed_form_sum(kind, n) == oracle(n)

        for _ in range(50):
            z = GaussianRational(rng.randint(-6, 6), rng.randint(-6, 6))
            if z.is_zero():
                continue
            n = rng.randint(2, 6)
            for root in roots_n(z, n):
                x, y = from_polar(pow_int(root, n))
                bound = max(1.0, float(z.re) ** 2 + float(z.im) ** 2) ** 0.5
                assert abs(x - float(z.re)) / bound < TOL
                assert abs(y - float(z.im)) / bound < TOL

    _report(10, "property suites", check)
