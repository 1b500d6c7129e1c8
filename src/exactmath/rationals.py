"""Exact rational scalars and their shared literal grammar.

The kernel-wide scalar is :class:`fractions.Fraction` (re-exported as
``Rational``): always normalized, denominator positive, arbitrary precision.
The literal grammar accepted everywhere is

    integer | "p/q" | finite decimal

Finite decimals convert exactly ("2.4" -> 12/5); anything else is a
:class:`~exactmath.errors.ParseError`.
"""

import re
from fractions import Fraction

from .errors import DivisionByZero, ParseError

Rational = Fraction

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


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: "5", "-3/4", "2.4", ".5"."""
    m = _LITERAL.match(text)
    if m is None:
        raise ParseError(f"not a rational literal: {text!r}")
    sign = -1 if m.group("sign") == "-" else 1
    if m.group("num") is not None:
        den = int(m.group("den"))
        if den == 0:
            raise DivisionByZero(f"zero denominator in {text!r}")
        return Fraction(sign * int(m.group("num")), den)
    if m.group("onlyfrac") is not None:
        frac = m.group("onlyfrac")
        return sign * Fraction(int(frac), 10 ** len(frac))
    value = Fraction(int(m.group("int")))
    if m.group("frac"):
        frac = m.group("frac")
        value += Fraction(int(frac), 10 ** len(frac))
    return sign * value

