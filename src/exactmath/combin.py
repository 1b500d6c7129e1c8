"""Combinatorics: factorials, binomial coefficients, binomial expansions with
rational coefficients/exponents, and the closed-form sum formulas from the
induction chapter.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import OutOfDomain, TooLarge, UnknownKind
from .rationals import DIGIT_LIMIT, MAX_DIGITS, signed_sum

# 1558! is the largest factorial of at most MAX_DIGITS digits.
MAX_FACTORIAL = 1500


def factorial(n: int) -> int:
    if n < 0:
        raise OutOfDomain(f"factorial requires n >= 0, got {n}")
    if n > MAX_FACTORIAL:
        raise TooLarge(f"{n}! exceeds the cap of {MAX_FACTORIAL}!")
    result = 1
    for k in range(2, n + 1):
        result *= k
    return result


def _binomial_row(n: int, stop: int, k: int | None = None):
    """C(n, 0), C(n, 1), ..., C(n, stop) by the multiplicative formula
    C(n, j+1) = C(n, j)(n-j)/(j+1).

    Each division is exact (Pascal's rule guarantees integrality), so no big
    factorials are formed.  For stop <= n/2 the values grow, and
    C(n, j) >= 2^j, so the first one past MAX_DIGITS, within about 14 300
    steps, raises TooLarge naming binom(n, k), or binom(n, j) when k is not given.
    """
    value = 1
    yield value
    for j in range(stop):
        value = value * (n - j) // (j + 1)
        if value >= DIGIT_LIMIT:
            raise TooLarge(f"binom({n}, {k or j + 1}) has more than {MAX_DIGITS} digits")
        yield value


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), read off the row up to min(k, n-k)."""
    if n < 0 or not 0 <= k <= n:
        raise OutOfDomain(f"binom requires 0 <= k <= n, got n={n}, k={k}")
    return max(_binomial_row(n, min(k, n - k), k))  # it grows up to n/2: the last is largest


# A positive integer of at least 2^_DIGIT_BITS has more than MAX_DIGITS digits.
_DIGIT_BITS = DIGIT_LIMIT.bit_length()


def _prime_to(p: int, others) -> int:
    """The largest divisor of p >= 1 that shares no prime with any of others."""
    for q in others:
        g = math.gcd(p, q)
        while g > 1:
            p //= g
            # g^2 has the primes of g: a factor r^e of p goes in about log2(e) steps, not e
            g = math.gcd(p, g * g)
    return p


def _check_power_digits(what: str, factors) -> None:
    """Raise TooLarge when the product of x^m over the (x, m) factors,
    m >= 0, has a numerator or denominator past MAX_DIGITS digits, read off
    bit lengths before any power is formed.  Only lower bounds on the
    numerator and denominator in lowest terms are tested, so what this
    refuses cannot be printed:
    - the numerator is at least |product| and the denominator at least
      1/|product|;
    - the part of each base's numerator that shares no prime with any
      base's denominator divides the numerator, and likewise for the
      denominator, so a base near 1 is refused too."""
    factors = [(abs(x.numerator), x.denominator, m) for x, m in factors if m]
    if any(p == 0 for p, _, _ in factors):
        return  # the product is 0
    # an integer j >= 1 lies in [2^(bitlen(j) - 1), 2^bitlen(j - 1)],
    # so lo <= log2|product| <= hi
    lo = hi = num = den = 0
    for p, q, m in factors:
        lo += m * (p.bit_length() - 1 - (q - 1).bit_length())
        hi += m * ((p - 1).bit_length() - q.bit_length() + 1)
        num += m * (_prime_to(p, (q for _, q, _ in factors)).bit_length() - 1)
        den += m * (_prime_to(q, (p for p, _, _ in factors)).bit_length() - 1)
    if max(lo, -hi, num, den) >= _DIGIT_BITS:
        raise TooLarge(f"{what} has more than {MAX_DIGITS} digits")


@dataclass(frozen=True, order=True)
class Monomial:
    """A single term coeff * x^exponent with rational coeff and exponent."""

    exponent: Fraction
    coeff: Fraction

    @property
    def power(self) -> str:
        """The power of x as printed: "" for x^0, then x, x^4, x^(20/3)."""
        if self.exponent == 0:
            return ""
        exp = str(self.exponent) if self.exponent.denominator == 1 else f"({self.exponent})"
        return "x" if exp == "1" else f"x^{exp}"

    def __str__(self):
        """81, x, 216*x, -x^3, 495*x^(20/3)."""
        return signed_sum([(self.coeff, self.power)], "*")


def binom_term(n: int, k: int, c1: Fraction, e1: Fraction,
               c2: Fraction, e2: Fraction) -> Monomial:
    """Term T_{k+1} of (c1*x^e1 + c2*x^e2)^n, k = 0..n."""
    if not 0 <= k <= n:
        raise OutOfDomain(f"term index requires 0 <= k <= n, got n={n}, k={k}")
    count = binom(n, k)
    _check_power_digits(f"the coefficient of term {k}", ((count, 1), (c1, n - k), (c2, k)))
    coeff = count * c1 ** (n - k) * c2 ** k
    exponent = e1 * (n - k) + e2 * k
    return Monomial(Fraction(exponent), Fraction(coeff))


def binom_expand(n: int, c1: Fraction, e1: Fraction,
                 c2: Fraction, e2: Fraction) -> list[Monomial]:
    """Full expansion of (c1*x^e1 + c2*x^e2)^n, n >= 1.

    Terms come back sorted by ascending exponent.  The row C(n, 0..n) is
    walked with binom's row first, so it is checked against MAX_DIGITS
    before any power of c1 or c2 is formed.  When e1 == e2 every term merges
    into one, (c1 + c2)^n * x^(e1*n), or none when c1 + c2 = 0; otherwise no
    two terms merge, and the end terms c1^n and c2^n are checked instead.
    Each checked power has its base in lowest terms, so only what cannot be
    printed is refused.
    """
    if n < 1:
        raise OutOfDomain(f"expansion requires n >= 1, got {n}")
    if c1 == 0 or c2 == 0:
        raise OutOfDomain("expansion requires nonzero coefficients")
    # the row is symmetric and peaks at n//2: walking it to there raises
    # TooLarge at the first C(n, k) past MAX_DIGITS
    for _ in _binomial_row(n, n // 2):
        pass
    c1, c2 = Fraction(c1), Fraction(c2)  # int operands step exactly too
    if e1 == e2:
        total = c1 + c2
        if total == 0:
            return []
        _check_power_digits("the merged term of the expansion", ((total, n),))
        return [Monomial(Fraction(e1 * n), total ** n)]
    for end in (c1, c2):
        _check_power_digits("an end term of the expansion", ((end, n),))
    ratio = c2 / c1
    coeff = c1 ** n  # C(n, k) c1^(n-k) c2^k, in lowest terms
    terms = []
    for k in range(n + 1):
        if k:
            # one small factor a step: Fraction reduces against its small
            # numerator and denominator, never by a gcd of two big numbers
            coeff *= Fraction(n - k + 1, k) * ratio
        terms.append(Monomial(Fraction(e1 * (n - k) + e2 * k), coeff))
    return sorted(terms)


# Closed forms proved by induction in the text; the loop oracle lives in the
# test suite.
_CLOSED_FORMS = {
    "first_n": lambda n: Fraction(n * (n + 1), 2),
    "odd": lambda n: Fraction(n * n),
    "triangular": lambda n: Fraction(n * (n + 1) * (n + 2), 6),
    "squares": lambda n: Fraction(n * (n + 1) * (2 * n + 1), 6),
    "recip_consecutive": lambda n: Fraction(n, n + 1),
    "recip_odd": lambda n: Fraction(n, 2 * n + 1),
    "product_consecutive": lambda n: Fraction(n * (n + 1) * (n + 2), 3),
}


def closed_form_sum(kind: str, n: int) -> Fraction:
    """Closed-form value of one of the induction-chapter sums.

    Kinds: first_n (1+2+...+n), odd (1+3+...+(2n-1)), triangular
    (1+3+6+...+n(n+1)/2), squares (1^2+...+n^2), recip_consecutive
    (sum 1/(k(k+1))), recip_odd (sum 1/((2k-1)(2k+1))),
    product_consecutive (1*2+2*3+...+n(n+1)).
    """
    if kind not in _CLOSED_FORMS:
        raise UnknownKind(f"unknown sum kind {kind!r}")
    if n < 1:
        raise OutOfDomain(f"sum requires n >= 1, got {n}")
    return _CLOSED_FORMS[kind](n)


def sum_kinds() -> tuple[str, ...]:
    return tuple(_CLOSED_FORMS)
