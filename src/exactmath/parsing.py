"""Literal grammars of sets, relations, complex numbers in a+bi form,
points/vectors, planes and lines.  The other literals live next to their
types: rationals (rationals.parse_rational), matrices (Matrix.from_string),
linear systems (LinearSystem.from_string), Cayley tables
(Magma.from_string), proportion members and percents (ratio.parse_affine,
ratio.parse_percent).  Each parser here imports the module of its type when
it runs, so parsing a set does not load geometry and matrices.
"""

import re

from .errors import ParseError
from .rationals import literal_int, parse_rational, signed_terms


def _atom(token: str):
    token = token.strip()
    if re.fullmatch(r"[+-]?\d+", token):
        return literal_int(token)
    if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", token):
        return token
    raise ParseError(f"not a set atom: {token!r}")


def _braced(text: str, kind: str) -> str:
    """What a brace-delimited literal holds, stripped."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"{kind} literal must be brace-delimited: {text!r}")
    return text[1:-1].strip()


def parse_set(text: str):
    """Parse "{1, 2, 3}" or "{a, b}"; "{}" is the empty set."""
    from .sets import FinSet

    body = _braced(text, "set")
    if not body:
        return FinSet()
    return FinSet(_atom(token) for token in body.split(","))


_PAIR = re.compile(r"\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)")


def parse_pairs(text: str) -> list[tuple]:
    """Parse "{(1,2),(2,3)}" into a pair list."""
    body = _braced(text, "relation")
    if not body:
        return []
    pairs = [(_atom(m.group(1)), _atom(m.group(2))) for m in _PAIR.finditer(body)]
    if not pairs:
        raise ParseError(f"no pairs found in {text.strip()!r}")
    return pairs


def parse_relation(text: str, source=None, target=None):
    """Relation from a pair literal; source/target (FinSets) default to
    the atoms that actually appear."""
    from .relations import Relation
    from .sets import FinSet

    pairs = parse_pairs(text)
    if source is None:
        source = FinSet(a for a, _ in pairs)
    if target is None:
        target = FinSet(b for _, b in pairs)
    return Relation(source, target, pairs)


def parse_complex(text: str):
    """Parse "a+bi" forms: "3+4i", "-i", "2", "1/2-3/4i", "4i"."""
    from .complexn import GaussianRational

    terms = signed_terms(text, "i")
    if not terms:
        raise ParseError("empty complex literal")
    parts = {}  # imaginary? -> coefficient
    for imaginary, coeff in terms:
        if imaginary in parts:
            raise ParseError(f"two {'imaginary' if imaginary else 'real'} parts in {text!r}")
        parts[imaginary] = parse_rational(coeff)
    return GaussianRational(parts.get(False, 0), parts.get(True, 0))


def parse_vec3(text: str):
    """Parse "(x, y, z)"; parentheses optional."""
    from .geometry import Vec3

    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = body.split(",")
    if len(parts) != 3:
        raise ParseError(f"a point/vector needs 3 components: {text!r}")
    return Vec3(*(parse_rational(p) for p in parts))


def parse_plane(text: str):
    """Parse "A B C D" (whitespace-separated rational coefficients)."""
    from .geometry import Plane

    parts = text.split()
    if len(parts) != 4:
        raise ParseError(f"a plane literal has 4 coefficients: {text!r}")
    return Plane(*(parse_rational(p) for p in parts))


_LINE = re.compile(r"^\s*point\s*=\s*(\([^)]*\))\s+dir\s*=\s*(\([^)]*\))\s*$")
_CANONICAL_PART = re.compile(
    r"^\s*\(\s*([xyz])\s*([+-])\s*((?:\([^()]*\)|[^()])+)\)\s*/\s*(\S+)\s*$"
    r"|^\s*([xyz])\s*/\s*(\S+)\s*$")


def parse_line(text: str):
    """Parse "point=(..) dir=(..)" or the canonical string
    "(x-x0)/l=(y-y0)/m=(z-z0)/n" (zero denominators rejected)."""
    from .geometry import Line, Vec3

    m = _LINE.match(text)
    if m:
        return Line(parse_vec3(m.group(1)), parse_vec3(m.group(2)))
    parts = text.split("=")
    if len(parts) != 3:
        raise ParseError(f"not a line literal: {text!r}")
    anchor = {}
    direction = {}
    for part in parts:
        m = _CANONICAL_PART.match(part)
        if m is None:
            raise ParseError(f"bad canonical line fragment: {part!r}")
        if m.group(1):
            var = m.group(1)
            sign = -1 if m.group(2) == "+" else 1
            offset = m.group(3).strip()
            if offset.startswith("(") and offset.endswith(")"):
                offset = offset[1:-1]
            anchor[var] = sign * parse_rational(offset)
            denom = parse_rational(m.group(4))
        else:
            var = m.group(5)
            anchor[var] = 0
            denom = parse_rational(m.group(6))
        if denom == 0:
            raise ParseError("zero denominator; use the parametric form")
        direction[var] = denom
    if set(anchor) != {"x", "y", "z"}:
        raise ParseError(f"a canonical line names x, y and z once each: {text!r}")
    return Line(
        Vec3(anchor["x"], anchor["y"], anchor["z"]),
        Vec3(direction["x"], direction["y"], direction["z"]),
    )
