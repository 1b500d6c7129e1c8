import math
import random
from fractions import Fraction

import pytest

from exactmath import (
    Line,
    Matrix,
    Plane,
    Vec3,
    angle,
    collinear,
    coplanar,
    cross,
    decompose,
    det,
    dot,
    line_plane_relation,
    line_two_points,
    lines_relation,
    mixed,
    norm,
    norm_sq,
    plane_hesse,
    plane_point_normal,
    plane_segment_form,
    plane_three_points,
    planes_relation,
    point_line_distance,
    point_plane_distance,
    proj_scalar,
    tetra_volume,
    triangle_area,
)
from exactmath.geometry import (
    angle_between_lines,
    lin_indep,
    line_plane_intersection_line,
    line_point_dir,
    line_parametric,
    parallelepiped_volume,
    parallelogram_area_sq,
    plane_parametric,
    triangle_metrics,
)
from exactmath.errors import (
    CoincidentPoints,
    CollinearPoints,
    Degenerate,
    DependentBasis,
    NotInSpan,
    ParallelPlanes,
    ZeroCoefficient,
    ZeroVector,
)
from exactmath.systems import LinearSystem, Unique, solve_gauss

TOL = 1e-9
F = Fraction


def rand_vec(rng, lo=-9, hi=9):
    return Vec3(rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(lo, hi))


# -- vectors ---------------------------------------------------------------

def test_vector_basics():
    a, b = Vec3(1, 2, 2), Vec3(2, -2, 1)
    assert dot(a, b) == 0
    assert cross(a, b) == Vec3(6, 3, -6)
    assert norm_sq(a) == 9 and norm(a) == 3.0
    assert abs(angle(a, b) - math.pi / 2) < TOL
    assert proj_scalar(a, b) == 0.0
    with pytest.raises(ZeroVector):
        angle(a, Vec3(0, 0, 0))


def test_cross_properties(rng):
    for _ in range(100):
        a, b = rand_vec(rng), rand_vec(rng)
        c = cross(a, b)
        assert dot(c, a) == 0 and dot(c, b) == 0
        assert cross(b, a) == -c
        assert cross(a, a) == Vec3(0, 0, 0)


def test_mixed_equals_det_oracle(rng):
    """The triple product is the determinant of the three component rows."""
    for _ in range(100):
        a, b, c = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        assert mixed(a, b, c) == det(Matrix([a.components(), b.components(), c.components()]))


def test_cauchy_schwarz_exact(rng):
    for _ in range(100):
        a, b = rand_vec(rng), rand_vec(rng)
        assert dot(a, b) ** 2 <= norm_sq(a) * norm_sq(b)


def test_collinear_coplanar():
    assert collinear(Vec3(2, 4, -6), Vec3(-1, -2, 3))
    assert not collinear(Vec3(1, 0, 0), Vec3(0, 1, 0))
    assert coplanar(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(3, -2, 0))
    assert lin_indep(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))


def test_decompose_three_basis(rng):
    basis = (Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(1, 1, 1))
    for _ in range(20):
        target = rand_vec(rng)
        coeffs = decompose(target, basis)
        rebuilt = Vec3(0, 0, 0)
        for coeff, vec in zip(coeffs, basis):
            rebuilt = rebuilt + vec.scaled(coeff)
        assert rebuilt == target


def test_decompose_two_basis():
    basis = (Vec3(1, 0, 2), Vec3(0, 1, -1))
    target = basis[0].scaled(F(3, 2)) + basis[1].scaled(-2)
    assert decompose(target, basis) == (F(3, 2), F(-2))
    with pytest.raises(NotInSpan):
        decompose(Vec3(0, 0, 1), basis)
    with pytest.raises(DependentBasis):
        decompose(target, (Vec3(1, 1, 1), Vec3(2, 2, 2)))
    with pytest.raises(DependentBasis):
        decompose(target, (Vec3(1, 0, 0),))


# -- areas and volumes -----------------------------------------------------

def test_triangle_area_fixture():
    # A(1,2,3), B(-2,5,4), C(2,5,8) -> 2*sqrt(34)
    area = triangle_area(Vec3(1, 2, 3), Vec3(-2, 5, 4), Vec3(2, 5, 8))
    assert abs(area - 2 * math.sqrt(34)) < TOL
    assert parallelogram_area_sq(
        Vec3(-2, 5, 4) - Vec3(1, 2, 3), Vec3(2, 5, 8) - Vec3(1, 2, 3)) == 544


def test_tetra_volume_fixture():
    # A(3,1,-2), B(-4,2,3), C(1,5,-1), D(-5,-1,2) -> V = 9
    volume = tetra_volume(
        Vec3(3, 1, -2), Vec3(-4, 2, 3), Vec3(1, 5, -1), Vec3(-5, -1, 2))
    assert volume == 9
    with pytest.raises(Degenerate):
        tetra_volume(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(1, 1, 0))


def test_parallelepiped_volume():
    assert parallelepiped_volume(
        Vec3(1, 0, 0), Vec3(0, 2, 0), Vec3(0, 0, 3)) == 6


# -- planes ----------------------------------------------------------------

def test_plane_three_points_fixture():
    plane = plane_three_points(Vec3(1, 1, 0), Vec3(-2, 0, 4), Vec3(2, 3, -1))
    assert (plane.a, plane.b, plane.c, plane.d) == (7, -1, 5, -6)
    assert str(plane) == "7x - y + 5z - 6 = 0"
    for p in (Vec3(1, 1, 0), Vec3(-2, 0, 4), Vec3(2, 3, -1)):
        assert plane.contains(p)
    with pytest.raises(CollinearPoints):
        plane_three_points(Vec3(0, 0, 0), Vec3(1, 1, 1), Vec3(2, 2, 2))


def test_plane_point_normal():
    plane = plane_point_normal(Vec3(1, 2, 3), Vec3(0, 0, 2))
    assert plane.contains(Vec3(5, -7, 3))
    assert not plane.contains(Vec3(0, 0, 0))
    with pytest.raises(ZeroVector):
        plane_point_normal(Vec3(0, 0, 0), Vec3(0, 0, 0))


def test_segment_form():
    plane = Plane(7, -1, 5, -6)
    assert plane_segment_form(plane) == (F(6, 7), F(-6), F(6, 5))
    with pytest.raises(ZeroCoefficient):
        plane_segment_form(Plane(1, 0, 1, -1))


def test_hesse_form():
    hesse = plane_hesse(Plane(7, -1, 5, -6))
    assert abs(hesse.p - 6 / math.sqrt(75)) < TOL
    assert abs(hesse.cos_a**2 + hesse.cos_b**2 + hesse.cos_g**2 - 1) < TOL
    assert hesse.p >= 0
    # flipped input plane gives the same oriented form
    flipped = plane_hesse(Plane(-7, 1, -5, 6))
    assert abs(flipped.cos_a - hesse.cos_a) < TOL
    assert abs(flipped.p - hesse.p) < TOL


@pytest.mark.parametrize("plane", [Plane(0, 0, 1, 0), Plane(0, 0, -1, 0), Plane(0, -2, 0, 0),
                                   Plane(0, 0, -1, 3)])
def test_hesse_form_has_no_negative_zeros(plane):
    hesse = plane_hesse(plane)
    values = (hesse.cos_a, hesse.cos_b, hesse.cos_g, hesse.p)
    assert all(v != 0 or math.copysign(1.0, v) > 0 for v in values), values


def test_plane_parametric():
    plane = Plane(1, 1, 1, -3)
    point, u_dir, v_dir = plane_parametric(plane)
    assert plane.contains(point)
    assert dot(plane.normal(), u_dir) == 0
    assert dot(plane.normal(), v_dir) == 0
    assert not collinear(u_dir, v_dir)


def test_point_plane_distance_pyramid_height():
    # height of S(0,6,4) over the plane of A(3,5,3), B(-2,11,-5), C(1,-1,4)
    base = plane_three_points(Vec3(3, 5, 3), Vec3(-2, 11, -5), Vec3(1, -1, 4))
    result = point_plane_distance(Vec3(0, 6, 4), base)
    assert result["d_sq"] == 9
    assert abs(result["d"] - 3.0) < TOL
    assert point_plane_distance(Vec3(3, 5, 3), base)["d_sq"] == 0


def test_origin_distance():
    assert point_plane_distance(Vec3(0, 0, 0), Plane(1, 1, 1, -3))["d_sq"] == 3


# -- lines -----------------------------------------------------------------

def test_line_two_points():
    line = line_two_points(Vec3(0, 0, 0), Vec3(1, 1, 1))
    assert line.dir == Vec3(1, 1, 1)
    assert line.contains(Vec3(5, 5, 5))
    with pytest.raises(CoincidentPoints):
        line_two_points(Vec3(1, 2, 3), Vec3(1, 2, 3))
    with pytest.raises(ZeroVector):
        line_point_dir(Vec3(0, 0, 0), Vec3(0, 0, 0))


def test_plane_pair_line_fixture():
    p1 = Plane(2, -1, -1, -4)
    p2 = Plane(2, -3, -2, 7)
    line = line_plane_intersection_line(p1, p2)
    assert line.dir == Vec3(-1, 2, -4)
    assert p1.contains(line.point) and p2.contains(line.point)
    # the text's ad-hoc anchor x=0 lies on the same line
    assert line.contains(Vec3(0, 15, -19))
    with pytest.raises(ParallelPlanes):
        line_plane_intersection_line(Plane(1, 1, 1, 0), Plane(2, 2, 2, -5))


def test_closed_form_solves_match_gauss_oracle():
    """decompose, the plane-pair anchor and the line intersection point
    against solve_gauss on the same small integer systems."""
    rng = random.Random(2024)

    def gauss(columns, rhs):
        a = Matrix([[col[i] for col in columns] for i in range(len(rhs))])
        solution = solve_gauss(LinearSystem(a, rhs))
        assert isinstance(solution, Unique)
        return solution.values

    checked = {"three": 0, "two": 0, "planes": 0, "lines": 0}
    for _ in range(300):
        a, b, c, target = (rand_vec(rng) for _ in range(4))
        if lin_indep(a, b, c):
            assert decompose(target, (a, b, c)) == gauss(
                [v.components() for v in (a, b, c)], target.components())
            checked["three"] += 1
        if not collinear(a, b):
            in_plane = a.scaled(rng.randint(-5, 5)) + b.scaled(F(rng.randint(-5, 5), 3))
            assert decompose(in_plane, (a, b)) == gauss(
                [a.components(), b.components()], in_plane.components())
            checked["two"] += 1
        if not collinear(a, b):
            p1 = Plane(a.x, a.y, a.z, rng.randint(-9, 9))
            p2 = Plane(b.x, b.y, b.z, rng.randint(-9, 9))
            line = line_plane_intersection_line(p1, p2)
            sizes = [abs(v) for v in line.dir.components()]
            keep = [i for i in range(3) if i != sizes.index(max(sizes))]
            values = gauss([[p.normal().components()[i] for p in (p1, p2)] for i in keep],
                           (-p1.d, -p2.d))
            anchor = [F(0)] * 3
            for i, value in zip(keep, values):
                anchor[i] = value
            assert line.point == Vec3(*anchor)
            checked["planes"] += 1
        if not collinear(a, b):
            meet = rand_vec(rng)
            l1 = line_point_dir(meet - a.scaled(rng.randint(-3, 3)), a)
            l2 = line_point_dir(meet + b.scaled(F(rng.randint(-3, 3), 2)), b)
            result = lines_relation(l1, l2)
            t = gauss([a.components(), (-b).components()],
                      (l2.point - l1.point).components())[0]
            assert result["kind"] == "intersecting"
            assert result["point"] == l1.at(t) == meet
            checked["lines"] += 1
    assert min(checked.values()) > 200, checked


def test_line_parametric():
    line = line_point_dir(Vec3(1, 2, 3), Vec3(-1, 0, 2))
    x, y, z = line_parametric(line)
    assert (x(0), y(0), z(0)) == (1, 2, 3)
    assert (x(F(1, 2)), y(F(1, 2)), z(F(1, 2))) == (F(1, 2), 2, 4)


def test_point_line_distance():
    line = line_point_dir(Vec3(0, 0, 0), Vec3(1, 0, 0))
    result = point_line_distance(Vec3(0, 0, 1), line)
    assert result["d_sq"] == 1 and abs(result["d"] - 1.0) < TOL
    assert point_line_distance(Vec3(7, 0, 0), line)["d_sq"] == 0


def test_point_line_distance_vs_minimization(rng):
    # d is the minimum of |point - line.at(t)| over t
    for _ in range(20):
        line = line_point_dir(rand_vec(rng), rand_vec(rng, -3, 3))
        if line.dir.is_zero():
            continue
        point = rand_vec(rng)
        d = point_line_distance(point, line)["d"]
        samples = [
            math.sqrt(float(norm_sq(point - line.at(F(t, 8)))))
            for t in range(-400, 401)
        ]
        assert min(samples) >= d - TOL
        assert min(samples) - d < 0.05  # the grid comes close to the minimum


# -- mutual positions ------------------------------------------------------

def test_planes_relation_perpendicular():
    result = planes_relation(Plane(1, 3, -4, 5), Plane(2, 2, 2, -7))
    assert abs(result["angle"] - math.pi / 2) < TOL
    assert result["perpendicular"]
    assert not result["parallel"]
    assert result["intersection"] is not None


def test_planes_relation_identical_and_parallel():
    plane = Plane(1, -2, 3, -4)
    same = planes_relation(plane, Plane(2, -4, 6, -8))
    assert same["identical"] and same["parallel"]
    shifted = planes_relation(plane, Plane(1, -2, 3, 5))
    assert shifted["parallel"] and not shifted["identical"]
    assert shifted["intersection"] is None


def proportional(p1, p2):
    """(A2, B2, C2, D2) = k (A1, B1, C1, D1) for some k != 0."""
    row1, row2 = (p1.a, p1.b, p1.c, p1.d), (p2.a, p2.b, p2.c, p2.d)
    k = next(y / x for x, y in zip(row1, row2) if x != 0)
    return k != 0 and all(y == k * x for x, y in zip(row1, row2))


def test_planes_relation_identical_is_proportionality(rng):
    """Planes with many zero coefficients, against scalings by positive
    and negative rationals, scalings with one coefficient changed, and
    random planes."""
    counts = {True: 0, False: 0}
    for _ in range(600):
        row = [rng.choice([0, 0, 1, -1, 2, F(-3, 2), 5]) for _ in range(4)]
        if row[:3] == [0, 0, 0]:
            continue
        k = F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
        other = [k * x for x in row]
        shape = rng.choice(["scaled", "changed", "random"])
        if shape == "changed":
            other[rng.randrange(4)] += rng.choice([-1, 1, F(1, 2)])
        elif shape == "random":
            other = [rng.choice([0, 1, -1, 2, F(1, 3)]) for _ in range(4)]
        if other[:3] == [0, 0, 0]:
            continue
        p1, p2 = Plane(*row), Plane(*other)
        identical = planes_relation(p1, p2)["identical"]
        assert identical is proportional(p1, p2), (p1, p2)
        counts[identical] += 1
    assert min(counts.values()) > 50


def test_lines_relation_skew_fixture():
    l1 = line_point_dir(Vec3(1, -2, 5), Vec3(2, 1, -1))
    l2 = line_point_dir(Vec3(-3, 3, 0), Vec3(1, 2, -3))
    result = lines_relation(l1, l2)
    assert result["kind"] == "skew"
    offset = l2.point - l1.point
    assert mixed(l1.dir, l2.dir, offset) != 0  # non-coplanar oracle
    expected = mixed(l1.dir, l2.dir, offset) ** 2 / norm_sq(cross(l1.dir, l2.dir))
    assert result["d_sq"] == expected
    assert abs(result["d"] - math.sqrt(expected)) < TOL


def test_lines_relation_intersecting():
    # two lines built through (1,2,3)
    l1 = line_point_dir(Vec3(0, 0, 0), Vec3(1, 2, 3))
    l2 = line_point_dir(Vec3(1, 2, 0), Vec3(0, 0, 1))
    result = lines_relation(l1, l2)
    assert result["kind"] == "intersecting"
    assert result["point"] == Vec3(1, 2, 3)


def test_lines_relation_parallel_and_identical():
    l1 = line_point_dir(Vec3(0, 0, 0), Vec3(1, 1, 0))
    assert lines_relation(l1, l1)["kind"] == "identical"
    shifted = line_point_dir(Vec3(0, 0, 1), Vec3(2, 2, 0))
    result = lines_relation(l1, shifted)
    assert result["kind"] == "parallel"
    assert result["d_sq"] == 1


def test_angle_between_lines_is_acute(rng):
    for _ in range(50):
        d1, d2 = rand_vec(rng, -4, 4), rand_vec(rng, -4, 4)
        if d1.is_zero() or d2.is_zero():
            continue
        theta = angle_between_lines(
            line_point_dir(Vec3(0, 0, 0), d1), line_point_dir(Vec3(1, 1, 1), d2))
        assert -TOL <= theta <= math.pi / 2 + TOL


def test_line_plane_parallel_fixture():
    # (x-1)/2 = y/3 = (z+1)/-1 vs x+y+5z-7=0
    line = line_point_dir(Vec3(1, 0, -1), Vec3(2, 3, -1))
    result = line_plane_relation(line, Plane(1, 1, 5, -7))
    assert result["kind"] == "parallel_disjoint"
    assert result["d_sq"] > 0


def test_line_plane_contained_fixture():
    # (x-2)/3 = (y-1)/-2 = (z-3)/2 vs 2x+2y-z-3=0
    line = line_point_dir(Vec3(2, 1, 3), Vec3(3, -2, 2))
    assert line_plane_relation(line, Plane(2, 2, -1, -3)) == {"kind": "contained"}


def test_line_plane_piercing_fixture():
    # (x-1)/3 = (y-2)/-2 = (z-3)/1 vs 6x-4y+2z+7=0
    line = line_point_dir(Vec3(1, 2, 3), Vec3(3, -2, 1))
    result = line_plane_relation(line, Plane(6, -4, 2, 7))
    assert result["kind"] == "intersecting"
    assert result["t"] == F(-11, 28)
    assert result["point"] == Vec3(F(-5, 28), F(78, 28), F(73, 28))
    assert abs(result["sin_angle"] - 1.0) < TOL


def test_triangle_metrics_fixture():
    # A(2,-1,3), B(1,1,1), C(0,0,5): right isoceles, perimeter 6 + 3*sqrt(2)
    metrics = triangle_metrics(Vec3(2, -1, 3), Vec3(1, 1, 1), Vec3(0, 0, 5))
    angles = sorted(metrics["angles"])
    assert abs(angles[2] - math.pi / 2) < TOL
    assert abs(angles[0] - math.pi / 4) < TOL
    assert abs(angles[1] - math.pi / 4) < TOL
    assert abs(sum(angles) - math.pi) < TOL
    assert abs(metrics["perimeter"] - (6 + 3 * math.sqrt(2))) < TOL
    with pytest.raises(Degenerate):
        triangle_metrics(Vec3(0, 0, 0), Vec3(1, 1, 1), Vec3(2, 2, 2))
