"""Exact rational scalars, their shared literal grammar and the signed-sum
notation built on them.

The kernel-wide scalar is :class:`fractions.Fraction` (re-exported as
``Rational``): always normalized, denominator positive, arbitrary precision.
The literal grammar accepted everywhere is

    integer | "p/q" | finite decimal

Finite decimals convert exactly ("2.4" -> 12/5); anything else is a
:class:`~exactmath.errors.ParseError`.  A signed sum of such coefficients
("2x - 3", "1/2-3/4i", "x1 = 2*t1 + 1") is split by signed_terms and
printed by signed_sum.
"""

import re
import sys
from fractions import Fraction

from .errors import DivisionByZero, ParseError

Rational = Fraction

# Python refuses to convert an int of more than 4300 digits to or from str,
# so a result that is printed in decimal stays below DIGIT_LIMIT.
MAX_DIGITS = 4300
DIGIT_LIMIT = 10 ** MAX_DIGITS

_LITERAL = re.compile(
    r"""^\s*
        (?P<sign>[+-]?)\s*
        (?:
            (?P<num>\d+)\s*/\s*(?P<den>\d+)      # p/q
          | (?P<int>\d+)(?:\.(?P<frac>\d+))?     # integer or finite decimal
          | \.(?P<onlyfrac>\d+)                  # .5
        )
        \s*$""",
    re.VERBOSE,
)


def literal_int(digits: str) -> int:
    """int(digits) for a string of decimal digits, optionally signed; one
    past Python's int/str digit limit is a ParseError, not a ValueError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"a literal of {len(digits.lstrip('+-'))} digits exceeds the "
                         f"limit of {sys.get_int_max_str_digits()}") from None


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: "5", "-3/4", "2.4", ".5"."""
    m = _LITERAL.match(text)
    if m is None:
        raise ParseError(f"not a rational literal: {text!r}")
    sign = -1 if m.group("sign") == "-" else 1
    if m.group("num") is not None:
        den = literal_int(m.group("den"))
        if den == 0:
            raise DivisionByZero(f"zero denominator in {text!r}")
        return Fraction(sign * literal_int(m.group("num")), den)
    if m.group("onlyfrac") is not None:
        frac = m.group("onlyfrac")
        return sign * Fraction(literal_int(frac), 10 ** len(frac))
    value = Fraction(literal_int(m.group("int")))
    if m.group("frac"):
        frac = m.group("frac")
        value += Fraction(literal_int(frac), 10 ** len(frac))
    return sign * value


def signed_terms(text: str, symbol: str) -> list[tuple[bool, str]]:
    """The terms of a signed sum such as "1/2-3/4i" or "2x - 3", spaces
    ignored: (whether the term ends in symbol, its coefficient as a rational
    literal).  A bare symbol has the coefficient "1", "+1" or "-1"."""
    # re compiles the pattern at the first call, not when every run imports this module
    terms = [(term.endswith(symbol), term.removesuffix(symbol))
             for term in re.split(r"(?=[+-])", text.replace(" ", "")) if term]
    return [(has, body + "1" if has and body in ("", "+", "-") else body) for has, body in terms]


def signed_sum(terms, times: str = "") -> str:
    """Print (coefficient, name) terms as the text writes a sum: zero terms
    left out, a coefficient of size 1 left off, later terms joined by " + "
    or " - ", and "0" for no term at all.  An empty name marks the
    constant; times goes between a coefficient and its name."""
    parts = []
    for coeff, name in terms:
        if coeff == 0:
            continue
        size = abs(coeff)
        body = str(size) if not name else name if size == 1 else f"{size}{times}{name}"
        sign = "-" if coeff < 0 else "+" if parts else ""
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    return " ".join(parts) or "0"
