"""Finite binary operations: Cayley tables, algebraic-law checks, and
classification along the chain magma -> semigroup -> monoid -> group ->
abelian group.

The carrier keeps the order it was given in, so printed tables match the
text's row/column convention.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import CarrierMismatch, OutOfDomain, ParseError, TooLarge

MAX_CARRIER = 64


class StructureClass(Enum):
    MAGMA = "magma"
    SEMIGROUP = "semigroup"
    MONOID = "monoid"
    GROUP = "group"
    ABELIAN_GROUP = "abelian_group"


@dataclass(frozen=True)
class Magma:
    """A carrier with a |S| x |S| operation table in carrier order.

    Entries outside the carrier are kept as-is and flagged via ``closed``.
    """

    carrier: tuple
    table: tuple  # tuple of rows, row i holds carrier[i] op carrier[j]

    def __post_init__(self):
        n = len(self.carrier)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise CarrierMismatch("table shape must match the carrier")
        if len(set(self.carrier)) != n:
            raise CarrierMismatch("carrier elements must be distinct")

    @staticmethod
    def from_string(text: str) -> "Magma":
        """Parse a carrier line, then one row of the table per carrier
        element; entries are split on whitespace."""
        lines = [line.split() for line in text.splitlines() if line.strip()]
        if len(lines) < 2:
            raise ParseError("table input: carrier line, then |S| rows")
        try:
            return Magma(tuple(lines[0]), tuple(map(tuple, lines[1:])))
        except CarrierMismatch as exc:
            raise ParseError(str(exc)) from None

    @property
    def closed(self) -> bool:
        members = set(self.carrier)
        return all(entry in members for row in self.table for entry in row)

    def apply(self, a, b):
        return self.table[self.carrier.index(a)][self.carrier.index(b)]

    def __str__(self):
        cells = [["*"] + [str(c) for c in self.carrier]]
        for c, row in zip(self.carrier, self.table):
            cells.append([str(c)] + [str(entry) for entry in row])
        widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
        lines = []
        for i, row in enumerate(cells):
            line = " | ".join(cell.rjust(w) for cell, w in zip(row, widths))
            lines.append(line)
            if i == 0:
                lines.append("-" * len(line))
        return "\n".join(lines)


def _check_carrier_size(size: int) -> None:
    if size > MAX_CARRIER:
        raise TooLarge(f"carrier of {size} elements exceeds {MAX_CARRIER}")


def cayley_table(carrier, op) -> Magma:
    """Tabulate a binary operation over an ordered carrier (size <= 64)."""
    carrier = tuple(carrier)
    _check_carrier_size(len(carrier))
    table = tuple(tuple(op(a, b) for b in carrier) for a in carrier)
    return Magma(carrier, table)


def _check_modulus(n: int) -> None:
    """Reject n before the carrier {0..n-1} is built."""
    if n < 1:
        raise OutOfDomain(f"modulus must be >= 1, got {n}")
    _check_carrier_size(n)


def mod_add_table(n: int) -> Magma:
    """Cayley table of ({0..n-1}, +_n), n >= 1."""
    _check_modulus(n)
    return cayley_table(range(n), lambda a, b: (a + b) % n)


def mod_mul_table(n: int) -> Magma:
    """Cayley table of ({0..n-1}, *_n), n >= 1."""
    _check_modulus(n)
    return cayley_table(range(n), lambda a, b: (a * b) % n)


def _indexed(m: Magma) -> tuple:
    """The table in carrier indices: row i, column j holds the index of
    carrier[i] op carrier[j].  A non-closed table has no such form."""
    index = {c: i for i, c in enumerate(m.carrier)}
    try:
        return tuple(tuple(index[entry] for entry in row) for row in m.table)
    except KeyError as exc:
        raise CarrierMismatch(f"table entry {exc.args[0]!r} is not in the carrier") from None


def classify_structure(m: Magma) -> dict:
    """Law checks by brute force and the resulting structure class.

    Associativity compares |S|^2 rows of |S| indices: the row of a*b with
    a applied to the row of b.  The neutral element, when reported, is
    unique: two neutral elements e and f would give e = e*f = f.  In a
    group every inverse is unique and two-sided.
    """
    closed = m.closed
    result = {
        "closed": closed,
        "associative": False,
        "commutative": False,
        "neutral": None,
        "all_invertible": False,
        "class": StructureClass.MAGMA,
    }
    if not closed:
        return result

    t = _indexed(m)
    columns = tuple(zip(*t))
    # (a*b)*c == a*(b*c) for every c, as one row comparison per (a, b)
    result["associative"] = all(
        t[ab] == tuple(map(row.__getitem__, t[b]))
        for row in t for b, ab in enumerate(row)
    )
    result["commutative"] = columns == t
    identity = tuple(range(len(t)))
    e = next((e for e in identity if t[e] == identity and columns[e] == identity), None)
    if e is not None:
        result["neutral"] = m.carrier[e]
        result["all_invertible"] = all(
            any(ax == e and columns[a][x] == e for x, ax in enumerate(row))
            for a, row in enumerate(t)
        )

    if result["associative"]:
        if result["neutral"] is not None:
            if result["all_invertible"]:
                result["class"] = (StructureClass.ABELIAN_GROUP
                                   if result["commutative"]
                                   else StructureClass.GROUP)
            else:
                result["class"] = StructureClass.MONOID
        else:
            result["class"] = StructureClass.SEMIGROUP
    return result


def inverses(m: Magma) -> dict:
    """Map each element to its (unique) two-sided inverse, if the structure
    has a neutral element."""
    e = classify_structure(m)["neutral"]
    if e is None:
        return {}
    e = m.carrier.index(e)
    t = _indexed(m)
    table = {}
    for a, row in enumerate(t):
        for x, ax in enumerate(row):
            if ax == e and t[x][a] == e:
                table[m.carrier[a]] = m.carrier[x]
                break
    return table


def check_distributive(m1: Magma, m2: Magma) -> bool:
    """Is the second operation distributive over the first, both sides?

    Both tables must be closed over the shared carrier."""
    if m1.carrier != m2.carrier:
        raise CarrierMismatch("distributivity needs a shared carrier")
    add, mul = _indexed(m1), _indexed(m2)
    # row a of mul applied to b+c, against the sum of a*b with each a*c;
    # then the same with mul's columns for right distributivity
    return all(
        tuple(map(times.__getitem__, add[b])) == tuple(map(add[ab].__getitem__, times))
        for side in (mul, tuple(zip(*mul)))
        for times in side for b, ab in enumerate(times)
    )
