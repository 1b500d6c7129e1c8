"""Propositional logic: formula trees, a precedence-climbing parser, truth
tables, and tautology/contradiction/contingency classification.

Concrete syntax: atoms match [a-z][a-z0-9]*, negation (``_NEGATION``) binds
tightest, the binary connectives bind as listed in ``_BINARY``, and
parentheses override precedence.
"""

import re
from dataclasses import dataclass
from enum import Enum
from itertools import product

from .errors import ParseError, TooManyAtoms, UnboundAtom

MAX_ATOMS = 20


class Formula:
    """Base class for formula nodes; all subclasses are frozen dataclasses."""

    def atoms(self) -> list[str]:
        """Atom names in first-occurrence order."""
        seen: list[str] = []

        def walk(f):
            if isinstance(f, Atom):
                if f.name not in seen:
                    seen.append(f.name)
            elif isinstance(f, Not):
                walk(f.operand)
            else:
                walk(f.left)
                walk(f.right)

        walk(self)
        return seen


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class _Binary(Formula):
    """A connective of two operands.  The dataclass __eq__ also compares
    classes, so And(p, q) != Or(p, q)."""

    left: Formula
    right: Formula


class And(_Binary):
    """left & right"""


class Or(_Binary):
    """left | right"""


class Xor(_Binary):
    """left ^ right"""


class Implies(_Binary):
    """left -> right"""


class Iff(_Binary):
    """left <-> right"""


class Classification(Enum):
    TAUTOLOGY = "tautology"
    CONTRADICTION = "contradiction"
    CONTINGENT = "contingent"


# Binary connectives from the loosest to the tightest binding: equivalence,
# implication (right-associative), exclusive disjunction, disjunction and
# conjunction (left-associative).  Negation binds tighter than all of them.
# Each row gives the connective's symbol, its node class and its truth
# function on truth columns: a, b and the all-true column full (see _column).
_BINARY = (
    ("<->", Iff, lambda a, b, full: full ^ a ^ b),
    ("->", Implies, lambda a, b, full: (full ^ a) | b),
    ("^", Xor, lambda a, b, full: a ^ b),
    ("|", Or, lambda a, b, full: a | b),
    ("&", And, lambda a, b, full: a & b),
)
_CONNECTIVE = {symbol: (level, node) for level, (symbol, node, _) in enumerate(_BINARY)}
_SYMBOL = {node: symbol for symbol, node, _ in _BINARY}
_TRUTH = {node: truth for _, node, truth in _BINARY}
_PRECEDENCE = {node: level for level, node
               in enumerate([node for _, node, _ in _BINARY] + [Not, Atom], start=1)}
_NEGATION = ("!", "~")

# a token, or the end of the text (an empty group 1) after any blanks
_TOKEN = re.compile(r"\s*(<->|->|[!~&|^()]|[a-z][a-z0-9]*|\Z)")


def _tokenize(text: str):
    """(token, position) pairs, ended by the sentinel (None, len(text))."""
    tokens = []
    pos = 0
    while m := _TOKEN.match(text, pos):
        token, pos = m.group(1) or None, m.end()
        tokens.append((token, m.start(1)))
        if token is None:
            return tokens
    bad = len(text) - len(text[pos:].lstrip())  # the first non-blank character
    raise ParseError(f"unexpected character {text[bad]!r}", position=bad)


def parse_formula(text: str) -> Formula:
    if not text.strip():
        raise ParseError("empty formula")
    tokens = _tokenize(text)
    index = 0

    def binary(level):
        """Operands joined by connectives of `level` or tighter (precedence
        climbing)."""
        nonlocal index
        f = unary()
        while (entry := _CONNECTIVE.get(tokens[index][0])) and entry[0] >= level:
            tightness, node = entry
            index += 1
            # the right operand of a left-associative connective stops at
            # the next connective of the same level
            f = node(f, binary(tightness + (node is not Implies)))
        return f

    def unary():
        nonlocal index
        token, position = tokens[index]
        index += 1
        if token in _NEGATION:
            return Not(unary())
        if token == "(":
            f = binary(0)
            if tokens[index][0] != ")":
                raise ParseError("expected ')'", position=tokens[index][1])
            index += 1
            return f
        if token is None:
            raise ParseError("unexpected end of input", position=position)
        if re.fullmatch(r"[a-z][a-z0-9]*", token):
            return Atom(token)
        raise ParseError(f"unexpected token {token!r}", position=position)

    f = binary(0)
    token, position = tokens[index]
    if token is not None:
        raise ParseError(f"trailing input {token!r}", position=position)
    return f


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(print(f)) == f."""

    def render(node, parent_prec):
        prec = _PRECEDENCE[type(node)]
        if isinstance(node, Atom):
            text = node.name
        elif isinstance(node, Not):
            text = _NEGATION[0] + render(node.operand, prec)
        else:
            symbol = _SYMBOL[type(node)]
            # left-assoc chains keep the left child at equal precedence;
            # implication is right-associative so the mirror rule applies
            if isinstance(node, Implies):
                left = render(node.left, prec + 1)
                right = render(node.right, prec)
            else:
                left = render(node.left, prec)
                right = render(node.right, prec + 1)
            text = f"{left} {symbol} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text

    return render(f, 0)


def evaluate(f: Formula, assignment: dict[str, bool]) -> bool:
    """Evaluate under a total assignment of the formula's atoms."""
    if isinstance(f, Atom):
        try:
            return assignment[f.name]
        except KeyError:
            raise UnboundAtom(f"no value for atom {f.name!r}") from None
    if isinstance(f, Not):
        return not evaluate(f.operand, assignment)
    left = evaluate(f.left, assignment)
    right = evaluate(f.right, assignment)
    if isinstance(f, And):
        return left and right
    if isinstance(f, Or):
        return left or right
    if isinstance(f, Xor):
        return left != right
    if isinstance(f, Implies):
        return (not left) or right
    return left == right  # Iff


@dataclass(frozen=True)
class TruthTable:
    """The result of a formula for every assignment of its atoms.  Rendering
    expects the rows truth_table gives: all 2^k assignments, the first atom
    changing slowest and T before F."""

    atoms: tuple[str, ...]
    rows: tuple[tuple[tuple[bool, ...], bool], ...]

    def __str__(self):
        """The atom cells of all rows double once per atom: each prefix
        gains a T cell, then an F cell."""
        header = " ".join(self.atoms) + " | *"
        cells = [""]
        for _ in self.atoms:
            cells = [prefix + cell for prefix in cells for cell in ("T ", "F ")]
        return "\n".join([header, "-" * len(header),
                          *[prefix + ("| T" if result else "| F")
                            for prefix, (_, result) in zip(cells, self.rows)]])


def _column(f: Formula, atoms: list[str]) -> int:
    """The truth column of f as one 2^n-bit integer: bit r is f's value in
    truth-table row r, so every connective is one bitwise operation."""
    n = len(atoms)
    if n > MAX_ATOMS:
        raise TooManyAtoms(f"{n} atoms exceeds the cap of {MAX_ATOMS}")
    size = 1 << n
    full = (1 << size) - 1
    columns = {}
    for i, name in enumerate(atoms):
        # atom i is T on runs of `run` rows alternating with F, T first;
        # one T-run/F-run period is copied, doubling, over all the rows
        run = 1 << (n - 1 - i)
        column, width = (1 << run) - 1, 2 * run
        while width < size:
            column |= column << width
            width *= 2
        columns[name] = column

    def walk(g):
        if isinstance(g, Atom):
            return columns[g.name]
        if isinstance(g, Not):
            return full ^ walk(g.operand)
        return _TRUTH[type(g)](walk(g.left), walk(g.right), full)

    return walk(f)


def truth_table(f: Formula) -> TruthTable:
    """All 2^n assignments, first atom varying slowest, T before F."""
    atoms = f.atoms()
    size = 1 << len(atoms)
    # the column's bits, row 0 first
    bits = format(_column(f, atoms), "b").zfill(size)[::-1]
    rows = zip(product((True, False), repeat=len(atoms)), map("1".__eq__, bits))
    return TruthTable(tuple(atoms), tuple(rows))


def classify(f: Formula) -> Classification:
    atoms = f.atoms()
    column = _column(f, atoms)
    if column == (1 << (1 << len(atoms))) - 1:
        return Classification.TAUTOLOGY
    if column == 0:
        return Classification.CONTRADICTION
    return Classification.CONTINGENT


def equivalent(f: Formula, g: Formula) -> bool:
    return classify(Iff(f, g)) is Classification.TAUTOLOGY
