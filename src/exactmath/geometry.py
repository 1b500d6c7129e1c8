"""3D vector algebra over rationals and analytic geometry of planes and
lines.

Anything expressible without square roots (dot, cross, mixed product,
squared distances, volumes, all incidence predicates) is exact; metric
scalars that need a square root come back as floats alongside their exact
squares where the formula is a ratio of rationals.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CoincidentPoints,
    CollinearPoints,
    Degenerate,
    DependentBasis,
    NotInSpan,
    ParallelPlanes,
    ZeroCoefficient,
    ZeroVector,
)
from .rationals import signed_sum


@dataclass(frozen=True)
class Vec3:
    x: Fraction
    y: Fraction
    z: Fraction

    def __init__(self, x, y, z):
        object.__setattr__(self, "x", Fraction(x))
        object.__setattr__(self, "y", Fraction(y))
        object.__setattr__(self, "z", Fraction(z))

    def components(self) -> tuple:
        return (self.x, self.y, self.z)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0

    def __add__(self, other):
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Vec3(-self.x, -self.y, -self.z)

    def scaled(self, alpha) -> "Vec3":
        alpha = Fraction(alpha)
        return Vec3(alpha * self.x, alpha * self.y, alpha * self.z)

    def __str__(self):
        return f"({self.x}, {self.y}, {self.z})"


def dot(a: Vec3, b: Vec3) -> Fraction:
    return a.x * b.x + a.y * b.y + a.z * b.z


def cross(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(
        a.y * b.z - a.z * b.y,
        a.z * b.x - a.x * b.z,
        a.x * b.y - a.y * b.x,
    )


def norm_sq(a: Vec3) -> Fraction:
    return dot(a, a)


def norm(a: Vec3) -> float:
    return math.sqrt(norm_sq(a))


def _cosine(a: Vec3, b: Vec3) -> float:
    return dot(a, b) / (norm(a) * norm(b))


def _acos(cosine: float) -> float:
    """acos of a cosine that rounding may have pushed just past [-1, 1]."""
    return math.acos(max(-1.0, min(1.0, cosine)))


def _acute_angle(a: Vec3, b: Vec3) -> float:
    """Angle between the lines (or planes) that a and b are directions
    (or normals) of, in [0, pi/2]."""
    return _acos(abs(_cosine(a, b)))


def angle(a: Vec3, b: Vec3) -> float:
    """Angle between two nonzero vectors, in [0, pi]."""
    if a.is_zero() or b.is_zero():
        raise ZeroVector("angles with the null vector are undefined")
    return _acos(_cosine(a, b))


def proj_scalar(a: Vec3, b: Vec3) -> float:
    """Scalar projection of a onto b: (a·b)/|b|."""
    if b.is_zero():
        raise ZeroVector("projection onto the null vector is undefined")
    return float(dot(a, b)) / norm(b)


def mixed(a: Vec3, b: Vec3, c: Vec3) -> Fraction:
    """Triple product (a x b)·c, the determinant of the component rows."""
    return dot(cross(a, b), c)


def collinear(a: Vec3, b: Vec3) -> bool:
    return cross(a, b).is_zero()


def coplanar(a: Vec3, b: Vec3, c: Vec3) -> bool:
    return mixed(a, b, c) == 0


def lin_indep(a: Vec3, b: Vec3, c: Vec3) -> bool:
    return mixed(a, b, c) != 0


def decompose(target: Vec3, basis) -> tuple:
    """Exact coefficients of target in a basis of 2 or 3 vectors.

    A 2-vector basis must be independent and span a plane containing the
    target; a 3-vector basis must be independent.  Cramer's rule in mixed
    products; a 2-vector basis (a, b) is completed by a x b, whose
    coefficient is then 0.
    """
    basis = tuple(basis)
    if len(basis) == 3:
        if not lin_indep(*basis):
            raise DependentBasis("the three basis vectors are coplanar")
        frame = basis
    elif len(basis) == 2:
        if collinear(*basis):
            raise DependentBasis("the two basis vectors are collinear")
        if not coplanar(*basis, target):
            raise NotInSpan("target is outside the plane of the basis")
        frame = (*basis, cross(*basis))
    else:
        raise DependentBasis("a basis here has 2 or 3 vectors")
    volume = mixed(*frame)
    return tuple(mixed(*frame[:i], target, *frame[i + 1:]) / volume
                 for i in range(len(basis)))


# -- derived measures ------------------------------------------------------

def parallelogram_area_sq(a: Vec3, b: Vec3) -> Fraction:
    return norm_sq(cross(a, b))


def triangle_area(p1: Vec3, p2: Vec3, p3: Vec3) -> float:
    return math.sqrt(parallelogram_area_sq(p2 - p1, p3 - p1)) / 2


def parallelepiped_volume(a: Vec3, b: Vec3, c: Vec3) -> Fraction:
    return abs(mixed(a, b, c))


def tetra_volume(p1: Vec3, p2: Vec3, p3: Vec3, p4: Vec3) -> Fraction:
    """Exact |mixed|/6 of the three edge vectors from p1."""
    volume = parallelepiped_volume(p2 - p1, p3 - p1, p4 - p1)
    if volume == 0:
        raise Degenerate("the four points are coplanar")
    return volume / 6


# -- planes ----------------------------------------------------------------

@dataclass(frozen=True)
class Plane:
    """Ax + By + Cz + D = 0 with rational coefficients, (A,B,C) != 0."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, a, b, c, d):
        a, b, c, d = (Fraction(v) for v in (a, b, c, d))
        if a == 0 and b == 0 and c == 0:
            raise ZeroVector("a plane needs a nonzero normal")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def normal(self) -> Vec3:
        return Vec3(self.a, self.b, self.c)

    def normalized(self) -> "Plane":
        """Equivalent plane with coprime integer coefficients and a
        positive leading coefficient."""
        coeffs = (self.a, self.b, self.c, self.d)
        denom = math.lcm(*(x.denominator for x in coeffs))
        ints = [x.numerator * denom // x.denominator for x in coeffs]
        g = math.gcd(*ints)
        ints = [x // g for x in ints]
        lead = next(x for x in ints[:3] if x != 0)
        if lead < 0:
            ints = [-x for x in ints]
        return Plane(*ints)

    def value_at(self, p: Vec3) -> Fraction:
        return self.a * p.x + self.b * p.y + self.c * p.z + self.d

    def contains(self, p: Vec3) -> bool:
        return self.value_at(p) == 0

    def __str__(self):
        return signed_sum(((self.a, "x"), (self.b, "y"), (self.c, "z"), (self.d, ""))) + " = 0"


@dataclass(frozen=True)
class HesseForm:
    """x cosA + y cosB + z cosG - p = 0 with a unit normal and p >= 0."""

    cos_a: float
    cos_b: float
    cos_g: float
    p: float


def plane_point_normal(point: Vec3, normal: Vec3) -> Plane:
    if normal.is_zero():
        raise ZeroVector("a plane needs a nonzero normal")
    return Plane(normal.x, normal.y, normal.z, -dot(normal, point))


def plane_three_points(p1: Vec3, p2: Vec3, p3: Vec3) -> Plane:
    normal = cross(p2 - p1, p3 - p1)
    if normal.is_zero():
        raise CollinearPoints("the three points are collinear")
    return plane_point_normal(p1, normal).normalized()


def plane_segment_form(plane: Plane) -> tuple:
    """Axis intercepts (l, m, n): x/l + y/m + z/n = 1."""
    if plane.a == 0 or plane.b == 0 or plane.c == 0 or plane.d == 0:
        raise ZeroCoefficient("segment form needs all of A, B, C, D nonzero")
    return (-plane.d / plane.a, -plane.d / plane.b, -plane.d / plane.c)


def plane_hesse(plane: Plane) -> HesseForm:
    """Normalize to a unit normal, oriented so the origin distance p >= 0;
    for D = 0 the normal keeps (A, B, C) lexicographically positive."""
    length = math.sqrt(plane.a ** 2 + plane.b ** 2 + plane.c ** 2)
    if plane.d > 0:
        sign = -1
    elif plane.d < 0:
        sign = 1
    else:
        sign = 1 if (plane.a, plane.b, plane.c) > (0, 0, 0) else -1
    # signed while exact, so a zero coefficient stays +0.0
    return HesseForm(*(float(sign * x) / length
                       for x in (plane.a, plane.b, plane.c, -plane.d)))


def plane_parametric(plane: Plane) -> tuple:
    """(point, u_dir, v_dir): every point is point + u*u_dir + v*v_dir."""
    n = plane.normal()
    # anchor: solve for the coordinate with a nonzero coefficient
    if plane.a != 0:
        point = Vec3(-plane.d / plane.a, 0, 0)
    elif plane.b != 0:
        point = Vec3(0, -plane.d / plane.b, 0)
    else:
        point = Vec3(0, 0, -plane.d / plane.c)
    axis = Vec3(1, 0, 0) if not collinear(n, Vec3(1, 0, 0)) else Vec3(0, 1, 0)
    u_dir = cross(n, axis)
    v_dir = cross(n, u_dir)
    return point, u_dir, v_dir


def _distance(d_sq: Fraction) -> dict:
    """An exact squared distance and its root."""
    return {"d": math.sqrt(d_sq), "d_sq": d_sq}


def point_plane_distance(point: Vec3, plane: Plane) -> dict:
    """Exact squared distance (Ax+By+Cz+D)^2/(A^2+B^2+C^2) and its root."""
    return _distance(plane.value_at(point) ** 2 / norm_sq(plane.normal()))


# -- lines -----------------------------------------------------------------

@dataclass(frozen=True)
class Line:
    """point + t*dir with a nonzero rational direction vector."""

    point: Vec3
    dir: Vec3

    def __post_init__(self):
        if self.dir.is_zero():
            raise ZeroVector("a line needs a nonzero direction")

    def at(self, t) -> Vec3:
        return self.point + self.dir.scaled(t)

    def contains(self, p: Vec3) -> bool:
        return collinear(p - self.point, self.dir)

    def __str__(self):
        p, d = self.point, self.dir
        return (f"(x-({p.x}))/{d.x} = (y-({p.y}))/{d.y} = (z-({p.z}))/{d.z}")


def line_two_points(p1: Vec3, p2: Vec3) -> Line:
    if p1 == p2:
        raise CoincidentPoints("two identical points do not fix a line")
    return Line(p1, p2 - p1)


def line_point_dir(point: Vec3, direction: Vec3) -> Line:
    return Line(point, direction)


def line_plane_intersection_line(p1: Plane, p2: Plane) -> Line:
    """The line of two non-parallel planes; direction n1 x n2, anchor found
    by zeroing the coordinate with the largest |direction| component."""
    direction = cross(p1.normal(), p2.normal())
    if direction.is_zero():
        raise ParallelPlanes("the planes are parallel or identical")
    magnitudes = [abs(v) for v in direction.components()]
    zero_coord = magnitudes.index(max(magnitudes))
    i, j = (k for k in range(3) if k != zero_coord)
    # Cramer on n1[i] u + n1[j] v = -d1, n2[i] u + n2[j] v = -d2; the
    # determinant is +-direction[zero_coord], so it is not 0
    n1, n2 = p1.normal().components(), p2.normal().components()
    det2 = n1[i] * n2[j] - n1[j] * n2[i]
    coords = [Fraction(0)] * 3
    coords[i] = (p2.d * n1[j] - p1.d * n2[j]) / det2
    coords[j] = (p1.d * n2[i] - p2.d * n1[i]) / det2
    return Line(Vec3(*coords), direction)


def line_parametric(line: Line):
    """Coordinate functions x(t), y(t), z(t)."""
    return (
        lambda t: line.point.x + Fraction(t) * line.dir.x,
        lambda t: line.point.y + Fraction(t) * line.dir.y,
        lambda t: line.point.z + Fraction(t) * line.dir.z,
    )


def point_line_distance(point: Vec3, line: Line) -> dict:
    """d^2 = |a x M1M2|^2 / |a|^2, exact."""
    return _distance(norm_sq(cross(line.dir, point - line.point)) / norm_sq(line.dir))


# -- mutual positions ------------------------------------------------------

def planes_relation(p1: Plane, p2: Plane) -> dict:
    """Angle, parallelism/perpendicularity/identity predicates (all exact),
    and the intersection line when the planes meet."""
    n1, n2 = p1.normal(), p2.normal()
    parallel = collinear(n1, n2)
    return {
        "angle": _acute_angle(n1, n2),
        "parallel": parallel,
        "perpendicular": dot(n1, n2) == 0,
        # proportional coefficient rows have the same canonical form
        "identical": p1.normalized() == p2.normalized(),
        "intersection": None if parallel else line_plane_intersection_line(p1, p2),
    }


def lines_relation(l1: Line, l2: Line) -> dict:
    """Classify two lines as identical, parallel, intersecting (with the
    exact common point) or skew (with the exact squared distance)."""
    result = {"angle": angle_between_lines(l1, l2)}
    if collinear(l1.dir, l2.dir):
        if l1.contains(l2.point):
            result["kind"] = "identical"
        else:
            result["kind"] = "parallel"
            result.update(point_line_distance(l2.point, l1))
        return result
    offset = l2.point - l1.point
    volume = mixed(l1.dir, l2.dir, offset)
    if volume == 0:
        # coplanar and non-parallel: p1 + t*a1 = p2 + s*a2, so t*a1 + s*(-a2) = p2 - p1
        result["kind"] = "intersecting"
        result["point"] = l1.at(decompose(offset, (l1.dir, -l2.dir))[0])
        return result
    result["kind"] = "skew"
    result.update(_distance(volume ** 2 / norm_sq(cross(l1.dir, l2.dir))))
    return result


def angle_between_lines(l1: Line, l2: Line) -> float:
    """Acute angle between the direction vectors."""
    return _acute_angle(l1.dir, l2.dir)


def line_plane_relation(line: Line, plane: Plane) -> dict:
    """parallel_disjoint / contained / intersecting with the exact piercing
    point and sin of the incidence angle."""
    slope = dot(plane.normal(), line.dir)
    if slope == 0:
        if plane.contains(line.point):
            return {"kind": "contained"}
        return {"kind": "parallel_disjoint",
                **point_plane_distance(line.point, plane)}
    t = -plane.value_at(line.point) / slope
    sin_angle = abs(slope) / (norm(plane.normal()) * norm(line.dir))
    return {
        "kind": "intersecting",
        "point": line.at(t),
        "t": t,
        "sin_angle": min(1.0, sin_angle),
    }


def triangle_metrics(p1: Vec3, p2: Vec3, p3: Vec3) -> dict:
    """Side lengths, interior angles, perimeter and area of a triangle."""
    sides = {
        "a": p3 - p2,  # opposite p1
        "b": p3 - p1,
        "c": p2 - p1,
    }
    if cross(sides["b"], sides["c"]).is_zero():
        raise Degenerate("collinear vertices")
    return {
        "lengths": {k: norm(v) for k, v in sides.items()},
        "angles": (
            angle(p2 - p1, p3 - p1),
            angle(p1 - p2, p3 - p2),
            angle(p1 - p3, p2 - p3),
        ),
        "perimeter": sum(norm(v) for v in sides.values()),
        "area": triangle_area(p1, p2, p3),
    }
