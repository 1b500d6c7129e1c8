"""Integer number theory: division with remainder, divisibility, Euclid's
algorithm with its remainder chain, lcm, prime factorization, and positional
representation in bases 2..16.

All integers are Python ints (unbounded), so nothing here ever overflows.
"""

import math
from dataclasses import dataclass

from .errors import (
    BadBase,
    BothZero,
    NegativeValue,
    NonPositiveDivisor,
    OutOfDomain,
    TooLarge,
    ZeroArgument,
    ZeroDivisorQuery,
)
from .rationals import DIGIT_LIMIT, MAX_DIGITS


def divmod_euclid(a: int, b: int) -> tuple[int, int]:
    """Division with remainder: a = b*q + r with 0 <= r < b.

    Requires b > 0; works for negative a as well (the remainder stays
    nonnegative, e.g. divmod_euclid(-7, 3) == (-3, 2)).
    """
    if b <= 0:
        raise NonPositiveDivisor(f"divisor must be positive, got {b}")
    q, r = divmod(a, b)  # Python floor division already gives 0 <= r < b
    return q, r


def divides(a: int, b: int) -> bool:
    """True iff a | b, i.e. b is a multiple of a.  a must be nonzero."""
    if a == 0:
        raise ZeroDivisorQuery("0 divides nothing (divisibility by zero is undefined)")
    return b % a == 0


def gcd(a: int, b: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Greatest common divisor by the Euclidean algorithm.

    Returns (g, trace) where trace lists the remainder chain for |a|, |b|
    as (dividend, divisor, quotient, remainder) rows; the result is the
    last nonzero remainder.  Signs are ignored; gcd(0, b) == |b|.
    """
    if a == 0 and b == 0:
        raise BothZero("gcd(0, 0) is undefined")
    x, y = sorted((abs(a), abs(b)), reverse=True)
    trace = []
    while y != 0:
        q, r = divmod(x, y)
        trace.append((x, y, q, r))
        x, y = y, r
    return x, trace


def _decimal_digits(n: int) -> int:
    """The number of decimal digits of n != 0, also past the int/str limit."""
    digits = abs(n).bit_length() * 3 // 10  # 3/10 < log10(2): not past the count
    while abs(n) >= 10 ** digits:
        digits += 1
    return digits


def lcm(a: int, b: int) -> int:
    """Least common multiple of two nonzero integers.  One of more than
    MAX_DIGITS digits cannot be printed in decimal and raises TooLarge."""
    if a == 0 or b == 0:
        raise ZeroArgument("lcm requires nonzero arguments")
    result = abs(a // math.gcd(a, b) * b)
    if result >= DIGIT_LIMIT:
        raise TooLarge(f"lcm of integers of {_decimal_digits(a)} and {_decimal_digits(b)} "
                       f"digits has more than {MAX_DIGITS} digits")
    return result


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 2 as ascending (prime, multiplicity) pairs."""
    if n < 2:
        raise OutOfDomain(f"factorization requires n >= 2, got {n}")
    factors = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            mult = 0
            while rest % p == 0:
                rest //= p
                mult += 1
            factors.append((p, mult))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return factors


# The first 13 primes as Miller-Rabin bases decide primality exactly for
# n < 3317044064679887385961981 (Sorenson & Webster 2015, Math. Comp. 86).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality for n >= 1 (1 is not prime): trial division by the primes
    up to 41, then deterministic Miller-Rabin with those primes as bases
    below 3.3e24 and trial division above."""
    if n < 1:
        raise OutOfDomain(f"primality requires n >= 1, got {n}")
    if n == 1:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        p = 3
        while p * p <= n:
            if n % p == 0:
                return False
            p += 2
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Digits:
    """Positional representation a_k..a_0 in a base between 2 and 16.

    The leading digit is nonzero unless the value is 0 (then coeffs == (0,)).
    """

    base: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not 2 <= self.base <= 16:
            raise BadBase(f"base must be in 2..16, got {self.base}")
        if not self.coeffs:
            raise BadBase("empty digit list")
        if any(not 0 <= d < self.base for d in self.coeffs):
            raise BadBase(f"digit out of range for base {self.base}: {self.coeffs}")
        if len(self.coeffs) > 1 and self.coeffs[0] == 0:
            raise BadBase("leading zero digit")

    def __str__(self):
        return "".join("0123456789abcdef"[d] for d in self.coeffs)


def to_base(n: int, b: int) -> Digits:
    """Digits of n >= 0 in base b, most significant first."""
    if not 2 <= b <= 16:
        raise BadBase(f"base must be in 2..16, got {b}")
    if n < 0:
        raise NegativeValue(f"base conversion requires n >= 0, got {n}")
    if n == 0:
        return Digits(b, (0,))
    digits = []
    while n > 0:
        n, d = divmod(n, b)
        digits.append(d)
    return Digits(b, tuple(reversed(digits)))


def from_base(d: Digits) -> int:
    """Evaluate a_k*b^k + ... + a_1*b + a_0, a value of at most MAX_DIGITS
    decimal digits; a longer digit string stops as soon as it passes them."""
    value = 0
    for digit in d.coeffs:
        value = value * d.base + digit
        if value >= DIGIT_LIMIT:
            raise TooLarge(f"{len(d.coeffs)} base-{d.base} digits give more than "
                           f"{MAX_DIGITS} decimal digits")
    return value
