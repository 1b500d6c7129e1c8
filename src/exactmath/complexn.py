"""Complex numbers: exact Gaussian-rational arithmetic plus floating polar
form with De Moivre powers and n-th roots.

Everything algebraic (add/sub/mul/div, conjugate, |z|^2) stays exact in
rationals; polar quantities are double floats and every polar assertion in
the tests carries a 1e-9 tolerance.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadDegree, DivisionByZero, OutOfDomain, TooLarge, ZeroArgument

TWO_PI = 2 * math.pi
MAX_ROOTS = 10_000


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        if other.is_zero():
            raise DivisionByZero("complex division by zero")
        d = other.re ** 2 + other.im ** 2
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        im = abs(self.im)
        im_text = "" if im == 1 else str(im)
        if self.re == 0:
            return f"{'-' if self.im < 0 else ''}{im_text}i"
        return f"{self.re}{sign}{im_text}i"


@dataclass(frozen=True)
class Polar:
    r: float
    theta: float

    def __post_init__(self):
        if self.r < 0 or not math.isfinite(self.theta):
            raise OutOfDomain("polar form needs r >= 0 and a finite angle")


def conj(z: GaussianRational) -> GaussianRational:
    return GaussianRational(z.re, -z.im)


def modulus_sq(z: GaussianRational) -> Fraction:
    return z.re ** 2 + z.im ** 2


def modulus(z: GaussianRational) -> float:
    return math.sqrt(modulus_sq(z))


def i_pow(n: int) -> GaussianRational:
    """i^n for any integer n (i^-1 = -i)."""
    return (
        GaussianRational(1, 0),
        GaussianRational(0, 1),
        GaussianRational(-1, 0),
        GaussianRational(0, -1),
    )[n % 4]


def canonical_angle(theta: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0:
        theta += TWO_PI
    return theta if theta < TWO_PI else 0.0


def arg_principal_xy(x: float, y: float) -> float:
    if x == 0 and y == 0:
        raise ZeroArgument("the argument of 0 is undefined")
    return math.atan2(y, x)  # already the piecewise principal value in (-pi, pi]


def arg_principal(z: GaussianRational) -> float:
    return arg_principal_xy(float(z.re), float(z.im))


def arg_canonical_xy(x: float, y: float) -> float:
    return canonical_angle(arg_principal_xy(x, y))


def arg_canonical(z: GaussianRational) -> float:
    return arg_canonical_xy(float(z.re), float(z.im))


def polar_of(x: float, y: float) -> Polar:
    """Polar form of the point (x, y); the angle is the canonical one."""
    if x == 0 and y == 0:
        return Polar(0.0, 0.0)
    return Polar(math.hypot(x, y), arg_canonical_xy(x, y))


def to_polar(z: GaussianRational) -> Polar:
    return polar_of(float(z.re), float(z.im))


def from_polar(p: Polar) -> tuple[float, float]:
    return p.r * math.cos(p.theta), p.r * math.sin(p.theta)


def polar_mul(p1: Polar, p2: Polar) -> Polar:
    return Polar(p1.r * p2.r, canonical_angle(p1.theta + p2.theta))


def polar_div(p1: Polar, p2: Polar) -> Polar:
    if p2.r == 0:
        raise DivisionByZero("polar division by zero")
    return Polar(p1.r / p2.r, canonical_angle(p1.theta - p2.theta))


def pow_int(p: Polar, n: int) -> Polar:
    """De Moivre: radii power up, angles scale, result canonicalized."""
    if n == 0:
        return Polar(1.0, 0.0)
    if p.r == 0:
        if n < 0:
            raise DivisionByZero("negative power of zero")
        return Polar(0.0, 0.0)
    try:
        r, theta = p.r ** n, n * p.theta
    except OverflowError:
        r = math.inf
    if not 0 < r < math.inf:
        raise OutOfDomain(f"z^n for |z| = {p.r:.10g}, n = {n} is outside the float range")
    return Polar(r, canonical_angle(theta))


def roots_n(z: GaussianRational, n: int) -> list[Polar]:
    """All n distinct n-th roots, n >= 2.

    Root k has radius |z|^(1/n) and angle (arg + 2*k*pi)/n for the canonical
    argument, so consecutive angles differ by 2*pi/n.
    """
    if z.is_zero():
        raise ZeroArgument("roots of 0 are not enumerated")
    if n < 2:
        raise BadDegree(f"root degree must be >= 2, got {n}")
    if n > MAX_ROOTS:
        raise TooLarge(f"{n} roots exceed the cap of {MAX_ROOTS}")
    r = modulus(z) ** (1.0 / n)
    phi = arg_canonical(z)
    return [Polar(r, canonical_angle((phi + TWO_PI * k) / n)) for k in range(n)]
