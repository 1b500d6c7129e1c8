from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exactmath import parse_rational
from exactmath.errors import DivisionByZero, ParseError
from exactmath.rationals import signed_sum, signed_terms

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_parse_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(".5") == Fraction(1, 2)
    assert parse_rational("-0.1") == Fraction(-1, 10)


@pytest.mark.parametrize("bad", ["", "1/0", "two", "1.2.3", "1/ 2x"])
def test_parse_rejects(bad):
    with pytest.raises((ParseError, DivisionByZero)):
        parse_rational(bad)


def test_literal_past_the_int_digit_limit_is_a_parse_error():
    """int() refuses more than 4300 digits; the sign does not count."""
    assert parse_rational("-" + "9" * 4300) == -(10 ** 4300 - 1)
    for text in ("1" * 4301, "1/" + "3" * 4301, "0." + "5" * 4301, "-" + "7" * 5000):
        with pytest.raises(ParseError, match="exceeds the limit of 4300"):
            parse_rational(text)


@given(rationals)
def test_format_parse_round_trip(q):
    # str(Fraction) is the output format everywhere; it must parse back
    assert parse_rational(str(q)) == q


def test_format_integers_plain():
    assert str(Fraction(6, 3)) == "2"
    assert str(Fraction(-5, 6)) == "-5/6"


def test_signed_terms_split_a_sum_into_coefficients():
    assert signed_terms("2x - 3/4 + x", "x") == [(True, "2"), (False, "-3/4"), (True, "+1")]
    assert signed_terms("-i+.5", "i") == [(True, "-1"), (False, "+.5")]
    assert signed_terms(" ", "i") == []


def test_signed_sum_writes_the_sum_as_the_text_does():
    F = Fraction
    assert signed_sum([(F(4), "x"), (F(-1), "y"), (F(0), "z"), (F(-12), "")]) == "4x - y - 12"
    assert signed_sum([(F(-1, 2), "t1"), (F(1), "t2"), (F(3), "")], "*") == "-1/2*t1 + t2 + 3"
    assert signed_sum([(F(0), "t1"), (F(0), "")], "*") == "0"
    assert signed_sum([(F(-5, 3), "")]) == "-5/3"
