import math

import pytest
from hypothesis import given, strategies as st

from exactmath import (
    Digits,
    divides,
    divmod_euclid,
    factorize,
    from_base,
    gcd,
    is_prime,
    lcm,
    to_base,
)
from exactmath.errors import (
    BadBase,
    BothZero,
    NegativeValue,
    NonPositiveDivisor,
    OutOfDomain,
    TooLarge,
    ZeroArgument,
    ZeroDivisorQuery,
)


def test_divmod_basic():
    assert divmod_euclid(47, 5) == (9, 2)
    assert divmod_euclid(-7, 3) == (-3, 2)
    assert divmod_euclid(6, 6) == (1, 0)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_divmod_contract(a, b):
    q, r = divmod_euclid(a, b)
    assert a == b * q + r
    assert 0 <= r < b


def test_divmod_rejects_nonpositive():
    with pytest.raises(NonPositiveDivisor):
        divmod_euclid(5, 0)
    with pytest.raises(NonPositiveDivisor):
        divmod_euclid(5, -3)


def test_divides():
    assert divides(6, 198)
    assert not divides(4, 198)
    with pytest.raises(ZeroDivisorQuery):
        divides(0, 4)


def test_gcd_examples():
    assert gcd(252, 198)[0] == 18
    assert gcd(222, 102)[0] == 6
    assert gcd(90, 24)[0] == 6
    assert gcd(0, 7)[0] == 7
    assert gcd(-252, 198)[0] == 18


def test_gcd_trace_is_remainder_chain():
    g, trace = gcd(252, 198)
    # each row is a valid division step, chained dividend <- divisor <- remainder
    for dividend, divisor, q, r in trace:
        assert dividend == divisor * q + r
        assert 0 <= r < divisor
    for prev, cur in zip(trace, trace[1:]):
        assert cur[0] == prev[1] and cur[1] == prev[3]
    assert trace[-1][3] == 0
    assert trace[-1][1] == g


def test_gcd_both_zero():
    with pytest.raises(BothZero):
        gcd(0, 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_gcd_matches_math(a, b):
    if a == 0 and b == 0:
        return
    assert gcd(a, b)[0] == math.gcd(a, b)


def test_lcm():
    assert lcm(90, 24) == 360
    assert lcm(4, 6) == 12
    with pytest.raises(ZeroArgument):
        lcm(0, 5)


def test_lcm_is_exact_past_the_digit_limit():
    """lcm returns the exact value; whether it can be printed is decided
    where the CLI renders it."""
    assert lcm(10 ** 4299, 9) == 9 * 10 ** 4299
    assert lcm(10 ** 4299, 11) == 11 * 10 ** 4299
    assert lcm(-10 ** 5000, 3) == 3 * 10 ** 5000
    assert lcm(2 ** 20000, 3 ** 10000) == 2 ** 20000 * 3 ** 10000  # 10 792 digits


@given(st.integers(1, 10**4), st.integers(1, 10**4))
def test_gcd_lcm_product(a, b):
    assert gcd(a, b)[0] * lcm(a, b) == a * b


def test_factorize():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(2) == [(2, 1)]
    with pytest.raises(OutOfDomain):
        factorize(1)


@given(st.integers(2, 10**6))
def test_factorize_reconstructs(n):
    prod = 1
    for p, m in factorize(n):
        assert is_prime(p)
        prod *= p**m
    assert prod == n


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(91)
    with pytest.raises(OutOfDomain):
        is_prime(0)


def test_base_fixtures():
    assert str(to_base(125, 7)) == "236"
    assert str(to_base(147, 2)) == "10010011"
    assert str(to_base(400, 4)) == "12100"
    assert from_base(Digits(2, (1, 1, 0, 0, 1))) == 25
    assert from_base(Digits(3, (2, 2, 2, 2))) == 80
    assert str(to_base(255, 16)) == "ff"
    assert str(to_base(0, 5)) == "0"


def test_base_round_trip_small():
    for n in range(10**4 + 1):
        for b in (2, 7, 16):
            assert from_base(to_base(n, b)) == n


def test_base_errors():
    with pytest.raises(BadBase):
        to_base(10, 1)
    with pytest.raises(BadBase):
        to_base(10, 17)
    with pytest.raises(NegativeValue):
        to_base(-1, 2)
    with pytest.raises(BadBase):
        Digits(2, (2, 0))
    with pytest.raises(BadBase):
        Digits(8, (0, 3))


def test_from_base_stays_printable():
    """A value of more than 4300 decimal digits cannot be printed."""
    assert from_base(Digits(10, (9,) * 4300)) == 10 ** 4300 - 1
    assert from_base(Digits(2, (1,) * 5000)) == 2 ** 5000 - 1
    with pytest.raises(TooLarge, match="4301 base-10 digits give more than 4300"):
        from_base(Digits(10, (1,) + (0,) * 4300))
    # stops at the limit instead of building a million-digit value
    with pytest.raises(TooLarge, match="1000000 base-12 digits"):
        from_base(Digits(12, (1,) * 10 ** 6))
