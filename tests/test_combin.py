import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exactmath import (
    Monomial,
    binom,
    binom_expand,
    binom_term,
    closed_form_sum,
    divides,
    factorial,
    sum_kinds,
)
from exactmath.combin import MAX_DIGITS, MAX_FACTORIAL
from exactmath.errors import OutOfDomain, TooLarge, UnknownKind

F = Fraction


def test_factorial():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(10) == 3628800
    with pytest.raises(OutOfDomain):
        factorial(-1)


def test_factorial_cap():
    assert factorial(MAX_FACTORIAL) == math.factorial(MAX_FACTORIAL)
    assert len(str(factorial(MAX_FACTORIAL))) <= MAX_DIGITS
    with pytest.raises(TooLarge, match=r"^1501! exceeds the cap of 1500!$"):
        factorial(MAX_FACTORIAL + 1)


def first_k_past_the_digit_limit(n):
    """The least k with C(n, k) of more than MAX_DIGITS digits (k <= n/2)."""
    limit = 10 ** MAX_DIGITS
    # C(n, j) >= 2^j, so C(n, 14300) is past the limit once n >= 28600
    low, high = 0, min(n // 2, 14300)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if math.comb(n, mid) < limit else (low, mid)
    return high


@pytest.mark.parametrize("n", [14300, 20000, 10**6, 10**18])
def test_binom_cap_is_the_first_result_past_the_digit_limit(n):
    """Walk k up to the last C(n, k) of at most MAX_DIGITS digits: it is
    exact, and the next one raises."""
    high = first_k_past_the_digit_limit(n)
    low = high - 1
    assert binom(n, low) == math.comb(n, low)
    assert binom(n, n - low) == math.comb(n, low)
    with pytest.raises(TooLarge, match=rf"^binom\({n}, {high}\) has more than 4300 digits$"):
        binom(n, high)
    with pytest.raises(TooLarge):
        binom(n, n - high)


def test_binom_values():
    assert binom(7, 2) == 21
    assert binom(12, 4) == 495
    assert binom(5, 0) == 1
    assert binom(5, 5) == 1
    with pytest.raises(OutOfDomain):
        binom(5, 7)


@given(st.integers(0, 60), st.integers(0, 60))
def test_binom_identities(n, k):
    if k <= n:
        assert binom(n, k) == binom(n, n - k)
        assert binom(n, k) == factorial(n) // (factorial(k) * factorial(n - k))
    if 1 <= k < n:
        # Pascal's rule
        assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


@given(st.integers(0, 40))
def test_binom_row_sum(n):
    assert sum(binom(n, k) for k in range(n + 1)) == 2**n


def test_expand_3_plus_2x_pow4():
    terms = binom_expand(4, F(3), F(0), F(2), F(1))
    assert terms == [
        Monomial(F(0), F(81)),
        Monomial(F(1), F(216)),
        Monomial(F(2), F(216)),
        Monomial(F(3), F(96)),
        Monomial(F(4), F(16)),
    ]


def test_expand_evaluates_correctly():
    # substitute x = 5/3 and compare against direct exponentiation
    x = F(5, 3)
    terms = binom_expand(6, F(1, 2), F(1), F(-2), F(3))
    total = sum(t.coeff * x**t.exponent for t in terms)
    assert total == (x / 2 - 2 * x**3) ** 6


def expand_by_terms(n, c1, e1, c2, e2):
    """Reference expansion: each term from math.comb and two powers."""
    merged = {}
    for k in range(n + 1):
        exponent = F(e1 * (n - k) + e2 * k)
        term = math.comb(n, k) * F(c1) ** (n - k) * F(c2) ** k
        merged[exponent] = merged.get(exponent, 0) + term
    return [Monomial(e, F(c)) for e, c in sorted(merged.items()) if c != 0]


@pytest.mark.parametrize("args", [
    (1, F(1), F(1), F(1), F(0)),
    (7, F(-2, 3), F(1), F(5), F(-1, 2)),
    (9, F(1), F(1), F(-1), F(1)),         # (x - x)^9: every term cancels
    (10, F(3, 4), F(2), F(-4, 9), F(2)),  # like exponents merge into one term
    (12, F(1), F(1), F(1), F(-2)),
    (1500, F(-1, 2), F(1), F(3), F(0)),
], ids=str)
def test_expand_matches_term_by_term_reference(args):
    assert binom_expand(*args) == expand_by_terms(*args)


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@given(st.integers(1, 40), fractions.filter(bool), fractions, fractions.filter(bool), fractions)
@example(600, F(3, 4), F(2), F(-4, 9), F(2))  # like exponents: one term, (c1 + c2)^n
@example(600, F(-7, 8), F(-1, 3), F(7, 8), F(-1, 3))  # like exponents that cancel
def test_expand_matches_reference_on_random_operands(n, c1, e1, c2, e2):
    assert binom_expand(n, c1, e1, c2, e2) == expand_by_terms(n, c1, e1, c2, e2)


def test_expand_of_int_operands_is_exact():
    """Plain int operands give Fraction coefficients, exact past 2^53."""
    terms = binom_expand(40, 3, 0, 1, 1)
    assert all(type(t.coeff) is F for t in terms)
    assert terms == expand_by_terms(40, 3, 0, 1, 1)
    assert str(terms[1]) == "162102206120759050680*x"


@pytest.mark.parametrize("n", [14300, 20000, 10**6, 10**18])
def test_expand_cap_is_binoms(n):
    """binom_expand raises binom's message for the first C(n, k) past the
    digit limit, whatever the coefficients."""
    high = first_k_past_the_digit_limit(n)
    with pytest.raises(TooLarge, match=rf"^binom\({n}, {high}\) has more than 4300 digits$"):
        binom_expand(n, F(2), F(1), F(-1, 3), F(0))


def test_term_fractional_exponents():
    # 5th term of (x^(1/2) + x^(2/3))^12
    term = binom_term(12, 4, F(1), F(1, 2), F(1), F(2, 3))
    assert term == Monomial(F(20, 3), F(495))


def test_constant_term():
    # (x + x^-2)^12 has constant term 495
    terms = binom_expand(12, F(1), F(1), F(1), F(-2))
    constant = [t for t in terms if t.exponent == 0]
    assert constant == [Monomial(F(0), F(495))]


def past_the_digit_limit(x):
    return max(abs(x.numerator), x.denominator) >= 10 ** MAX_DIGITS


@pytest.mark.parametrize("c", [F(2), F(-1, 2)])
def test_power_cap_is_exact_at_a_power_of_two(c):
    """2^14284 has 4300 digits and 2^14285 has 4301: the bit-length test
    refuses the second before forming it and lets the first through."""
    coeff = binom_term(14284, 0, c, F(1), F(1), F(0)).coeff
    assert len(str(max(abs(coeff.numerator), coeff.denominator))) == MAX_DIGITS
    with pytest.raises(TooLarge, match=r"^the coefficient of term 0 has more than 4300 digits$"):
        binom_term(14285, 0, c, F(1), F(1), F(0))
    with pytest.raises(TooLarge, match=r"^an end term of the expansion has more than 4300 digits$"):
        binom_expand(14285, F(1), F(0), c, F(1))


big_fractions = st.builds(F, st.integers(-10**25, 10**25), st.integers(1, 10**25))


# a body checks a refusal by forming the refused value, up to 150 000
# digits for n = 6000 and coefficients near 1: about 0.2 s, past the
# default deadline
@settings(deadline=None, derandomize=True)
@given(st.integers(1, 6000), st.integers(0, 6000), big_fractions, big_fractions)
@example(6000, 0, F(10**25 + 1, 10**25), F(1))  # near 1: refused by the reduced-value bounds
def test_power_caps_refuse_only_what_cannot_be_printed(n, k, c1, c2):
    """A refusal from the bit-length bounds is never wrong: the value it
    stands for has a numerator or denominator past the digit limit."""
    k %= n + 1
    try:
        binom_term(n, k, c1, F(1), c2, F(0))
    except TooLarge as exc:
        if str(exc).startswith("the coefficient"):
            assert past_the_digit_limit(binom(n, k) * c1 ** (n - k) * c2 ** k)
    if c1 and c2:
        try:
            binom_expand(n, c1, F(1), c2, F(0))
        except TooLarge as exc:
            if str(exc).startswith("an end term"):
                assert past_the_digit_limit(c1 ** n) or past_the_digit_limit(c2 ** n)
        try:
            binom_expand(n, c1, F(1), c2, F(1))
        except TooLarge as exc:
            if str(exc).startswith("the merged term"):
                assert past_the_digit_limit((c1 + c2) ** n)


@pytest.mark.parametrize("c", [F(3, 2), F(3**20, 2**20)])
def test_power_caps_refuse_nothing_that_cancels(c):
    """c^1500 (1/c)^1500 = 1: each base's numerator shares its primes with
    the other's denominator, so the bounds on the reduced value count
    neither, though 3^30000 alone has more than 4300 digits."""
    assert binom_term(3000, 1500, c, F(1), 1 / c, F(0)).coeff == binom(3000, 1500)


def test_term_out_of_range():
    with pytest.raises(OutOfDomain):
        binom_term(4, 5, F(1), F(1), F(1), F(0))


def test_closed_form_sums_vs_loops():
    kinds = {
        "first_n": lambda n: sum(range(1, n + 1)),
        "odd": lambda n: sum(2 * k - 1 for k in range(1, n + 1)),
        "triangular": lambda n: sum(k * (k + 1) // 2 for k in range(1, n + 1)),
        "squares": lambda n: sum(k * k for k in range(1, n + 1)),
        "recip_consecutive": lambda n: sum(
            F(1, k * (k + 1)) for k in range(1, n + 1)),
        "recip_odd": lambda n: sum(
            F(1, (2 * k - 1) * (2 * k + 1)) for k in range(1, n + 1)),
        "product_consecutive": lambda n: sum(k * (k + 1) for k in range(1, n + 1)),
    }
    assert set(kinds) == set(sum_kinds())
    checkpoints = list(range(1, 40)) + [100, 250, 500]
    for kind, loop in kinds.items():
        for n in checkpoints:
            assert closed_form_sum(kind, n) == loop(n), (kind, n)


def test_closed_form_rejects():
    with pytest.raises(UnknownKind):
        closed_form_sum("cubes", 3)
    with pytest.raises(OutOfDomain):
        closed_form_sum("first_n", 0)


def test_divisibility_families():
    for n in range(1, 301):
        assert divides(3, 5**n + 2 ** (n + 1))
        assert divides(6, n**3 + 11 * n)
        assert divides(6, 7**n - 1)
        assert divides(3, n**3 - n)
        assert divides(6, n**3 + 5 * n)
        assert divides(17, 7 * 5 ** (2 * n - 1) + 2 ** (3 * n + 1))


@given(
    st.fractions(min_value=-1, max_value=1000, max_denominator=100).filter(
        lambda h: h > -1 and h != 0),
    st.integers(2, 20),
)
def test_bernoulli_inequality(h, n):
    assert (1 + h) ** n > 1 + n * h
