"""Integer number theory: division with remainder, divisibility, Euclid's
algorithm with its remainder chain, lcm, prime factorization, and positional
representation in bases 2..16.

All integers are Python ints (unbounded), so nothing here ever overflows.
"""

import math
from dataclasses import dataclass
from itertools import count

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
    """Least common multiple of two nonzero integers."""
    if a == 0 or b == 0:
        raise ZeroArgument("lcm requires nonzero arguments")
    return abs(a // math.gcd(a, b) * b)


# The first 13 primes as Miller-Rabin bases decide primality exactly for
# n < 3317044064679887385961981 (Sorenson & Webster 2015, Math. Comp. 86).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# Pollard's rho finds a prime factor p in a small multiple of sqrt(p) steps
# (Brent 1980, BIT 20).  A factorization that needs more than MAX_RHO steps
# raises TooLarge.  The count varies with n: 850 products of two random
# primes between 9*10^11 and 10^12 took a median 1.6 and at most 3.86
# million steps, so a few such products reach the cap.  A product of two
# 20-digit primes reaches it in about 2.5 s (CPython 3.11, 2-vCPU VM).
MAX_RHO = 1 << 22
_RHO_BATCH = 128  # steps per gcd
# From _MR_LIMIT on, the odd numbers below 4096 are tried as divisors too
# before Miller-Rabin, whose cost grows with n, so a smooth n needs none.
_TRIAL_BIG = (*_MR_BASES, *range(43, 1 << 12, 2))


def _work(n: int) -> int:
    """What one step mod n counts for against MAX_RHO: the square of n's
    length in 512-bit words, about its cost against a step mod a number of
    one word."""
    return (n.bit_length() // 512 + 1) ** 2


def _mr_cost(n: int) -> int:
    """What Miller-Rabin with the 13 bases counts for against MAX_RHO: one
    step mod n per bit and base from _MR_LIMIT on, and nothing below it,
    where it takes at most 13 * 82 squarings."""
    return len(_MR_BASES) * n.bit_length() * _work(n) if n >= _MR_LIMIT else 0


def is_prime(n: int) -> bool:
    """Primality for n >= 1 (1 is not prime): trial division by the primes
    up to 41, then Miller-Rabin with those primes as bases, which decides
    below 3.3e24.  At or above it the odd numbers below 4096 are tried
    first, a base that proves n composite gives False, and an n that passes
    all of them raises TooLarge, as does an n whose 13 tests would pass
    MAX_RHO steps."""
    if n < 1:
        raise OutOfDomain(f"primality requires n >= 1, got {n}")
    if n == 1:
        return False
    for p in _MR_BASES if n < _MR_LIMIT else _TRIAL_BIG:
        if n % p == 0:
            return n == p
    if _mr_cost(n) > MAX_RHO:
        raise TooLarge(f"primality of a {_decimal_digits(n)}-digit number exceeds "
                       f"the cap of {MAX_RHO} steps")
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
    if n >= _MR_LIMIT:
        raise TooLarge(f"a {_decimal_digits(n)}-digit number that passes Miller-Rabin "
                       f"for the bases up to 41 may be composite from {_MR_LIMIT} on")
    return True


def _rho(n: int, spend) -> int:
    """A proper divisor of the odd composite n by Pollard's rho with Brent's
    cycle finding on x -> x^2 + c mod n.  The differences multiply up for
    one gcd per _RHO_BATCH steps, and a gcd of n itself starts over with the
    next c.  spend(k * _work(n)) is called before every k steps."""
    work = _work(n)
    for c in count(1):
        y = r = q = g = 1
        while g == 1:
            x = y
            spend(r * work)
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, _RHO_BATCH):
                batch = min(_RHO_BATCH, r - k)
                spend(batch * work)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 2 as ascending (prime, multiplicity)
    pairs: trial division by the primes up to 41 (from 3.3e24 on, by the
    odd numbers below 4096 too), then is_prime on each cofactor and _rho to
    split the composite ones, within MAX_RHO steps."""
    if n < 2:
        raise OutOfDomain(f"factorization requires n >= 2, got {n}")
    factors = []
    pending = [n]  # cofactors whose product is what is left of n
    steps = 0

    def spend(work):
        nonlocal steps
        steps += work
        if steps > MAX_RHO:
            raise TooLarge(f"factorization of a {_decimal_digits(n)}-digit number exceeds "
                           f"the cap of {MAX_RHO} steps")

    def take(p):
        """Divide every power of the prime p out of the pending cofactors."""
        mult = 0
        for i, m in enumerate(pending):
            while m % p == 0:
                m //= p
                mult += 1
            pending[i] = m
        pending[:] = [m for m in pending if m > 1]
        factors.append((p, mult))

    for p in _MR_BASES if n < _MR_LIMIT else _TRIAL_BIG:
        if pending and pending[0] % p == 0:  # then p is prime: its factors are out
            take(p)
    while pending:
        m = pending[-1]
        spend(_mr_cost(m))
        if is_prime(m):
            take(m)
        else:
            d = _rho(m, spend)
            pending[-1:] = [m // d, d]
    return sorted(factors)


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
