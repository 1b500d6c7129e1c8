"""Proportions, extended proportions, percent problems, and mixture
(alligation) calculations including the multi-component star scheme, with
the literals of a proportion member ("2x-3") and of a percent ("32%").

All computation is exact in rationals; display rounding is the caller's
business.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AnnihilatingDelta,
    BadWeights,
    Degenerate,
    NonPositive,
    NoSolution,
    ParseError,
    TargetCollision,
    UnbalancedSides,
    Unsolvable,
    WrongArity,
)
from .rationals import parse_rational, signed_terms


@dataclass(frozen=True)
class Affine:
    """slope*x + intercept, the left members of a proportion."""

    slope: Fraction
    intercept: Fraction = Fraction(0)

    def __init__(self, slope, intercept=0):
        object.__setattr__(self, "slope", Fraction(slope))
        object.__setattr__(self, "intercept", Fraction(intercept))

    @staticmethod
    def x() -> "Affine":
        return Affine(1, 0)

    @staticmethod
    def const(c) -> "Affine":
        return Affine(0, c)


def parse_affine(text: str) -> Affine:
    """Parse "x", "x+9", "2x-3", "5" (in the unknown x)."""
    terms = signed_terms(text, "x")
    if not terms:
        raise ParseError("empty proportion member")
    parts = {True: Fraction(0), False: Fraction(0)}  # has x? -> summed coefficient
    for has_x, coeff in terms:
        parts[has_x] += parse_rational(coeff)
    return Affine(parts[True], parts[False])


def parse_percent(text: str) -> Fraction:
    """Rational with optional '%' (no-op scale) or per-mille suffix."""
    text = text.strip()
    if text.endswith("‰"):
        return parse_rational(text[:-1]) / 10
    return parse_rational(text.removesuffix("%"))


def solve_proportion(lhs1: Affine, lhs2, rhs1: Affine, rhs2) -> Fraction:
    """Solve lhs1 : lhs2 = rhs1 : rhs2 for x by cross-multiplication."""
    lhs2, rhs2 = Fraction(lhs2), Fraction(rhs2)
    # lhs1*rhs2 = rhs1*lhs2  ->  slope*x = constant
    slope = lhs1.slope * rhs2 - rhs1.slope * lhs2
    constant = rhs1.intercept * lhs2 - lhs1.intercept * rhs2
    if slope == 0:
        if constant == 0:
            raise Degenerate("every x satisfies the proportion")
        raise NoSolution("the proportion has no solution")
    return constant / slope


def extended_split(total, weights) -> list[Fraction]:
    """Split a total into parts proportional to positive weights."""
    total = Fraction(total)
    weights = [Fraction(w) for w in weights]
    if total <= 0 or not weights or any(w <= 0 for w in weights):
        raise BadWeights("total and every weight must be positive")
    unit = total / sum(weights)
    return [unit * w for w in weights]


def percent_solve(g=None, i=None, p=None) -> Fraction:
    """The percent rule G : 100 = I : p; pass exactly two of the three."""
    if [g, i, p].count(None) != 1:
        raise WrongArity("exactly one of G, I, p must be missing")
    g, i, p = (None if v is None else Fraction(v) for v in (g, i, p))
    if g is None:
        if p <= 0:
            raise NonPositive("p must be positive to recover G")
        return 100 * i / p
    if g <= 0:
        raise NonPositive("G must be positive")
    if i is None:
        return g * p / 100
    return 100 * i / g


def percent_chain(start=None, final=None, deltas=()) -> Fraction:
    """Chain of signed percent changes: final = start * prod(1 + d/100).

    Exactly one endpoint is given; the other is returned, exactly.
    """
    if (start is None) == (final is None):
        raise WrongArity("give exactly one of start and final")
    factor = Fraction(1)
    for delta in deltas:
        step = 1 + Fraction(delta) / 100
        if step <= 0:
            raise AnnihilatingDelta(f"change of {delta}% annihilates the value")
        factor *= step
    if final is None:
        return Fraction(start) * factor
    return Fraction(final) / factor


@dataclass(frozen=True)
class MixtureResult:
    amounts: tuple
    degenerate: bool = False


def simple_mixture(s1, s2, target, total) -> MixtureResult:
    """Two-component mixture: amounts (x1, x2) with x1+x2 = total and
    x1*s1 + x2*s2 = total*target."""
    s1, s2, target, total = (Fraction(v) for v in (s1, s2, target, total))
    if total <= 0:
        raise NonPositive("total must be positive")
    if s1 == s2:
        if target != s1:
            raise Unsolvable("equal intensities cannot hit a different target")
        return MixtureResult((total, Fraction(0)), degenerate=True)
    if not (min(s1, s2) <= target <= max(s1, s2)):
        raise Unsolvable("target outside the interval of the intensities")
    x1 = total * (target - s2) / (s1 - s2)
    return MixtureResult((x1, total - x1))


def mixture_missing_intensity(x1, s1, x2, target) -> Fraction:
    """Intensity s2 so that x1@s1 mixed with x2 yields (x1+x2)@target."""
    x1, s1, x2, target = (Fraction(v) for v in (x1, s1, x2, target))
    if x2 <= 0:
        raise NonPositive("the second amount must be positive")
    return ((x1 + x2) * target - x1 * s1) / x2


def star_scheme(values, target, total) -> list[Fraction]:
    """Multi-component alligation via the star scheme.

    Needs equally many intensities above and below the target and none equal
    to it.  Values are sorted descending; the k-th above-target value is
    paired with the k-th below-target value in ascending order, and each
    pair exchanges cross-differences; amounts scale so they sum to the
    total.  (The underlying problem has many solutions; this pairing is the
    canonical one, and both conservation equations always hold.)
    """
    target, total = Fraction(target), Fraction(total)
    values = [Fraction(v) for v in values]
    if total <= 0:
        raise NonPositive("total must be positive")
    if any(v == target for v in values):
        raise TargetCollision("an intensity equals the target")
    above = sorted((v for v in values if v > target), reverse=True)
    below = sorted(v for v in values if v < target)
    if len(above) != len(below):
        raise UnbalancedSides(
            f"{len(above)} intensities above vs {len(below)} below the target")
    share = {}
    for high, low in zip(above, below):
        share[high] = share.get(high, Fraction(0)) + (target - low)
        share[low] = share.get(low, Fraction(0)) + (high - target)
    unit = total / sum(share[v] for v in values)
    return [unit * share[v] for v in values]
