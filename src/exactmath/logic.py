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
_BINARY = (("<->", Iff), ("->", Implies), ("^", Xor), ("|", Or), ("&", And))
_CONNECTIVE = {symbol: (level, node) for level, (symbol, node) in enumerate(_BINARY)}
_NEGATION = ("!", "~")

_TOKEN = re.compile(r"\s*(<->|->|[!~&|^()]|[a-z][a-z0-9]*)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:  # report the character after the whitespace _TOKEN skipped
            bad = len(text) - len(text[pos:].lstrip())
            if bad < len(text):
                raise ParseError(f"unexpected character {text[bad]!r}", position=bad)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, token: str):
        if self.peek() != token:
            raise ParseError(f"expected {token!r}", position=self._position())
        self.advance()

    def _position(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def parse(self) -> Formula:
        f = self.binary()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", position=self._position())
        return f

    def binary(self, level=0) -> Formula:
        """Operands joined by connectives of `level` or tighter (precedence
        climbing)."""
        f = self.unary()
        while self.peek() in _CONNECTIVE:
            tightness, node = _CONNECTIVE[self.peek()]
            if tightness < level:
                break
            self.advance()
            # the right operand of a left-associative connective stops at
            # the next connective of the same level
            f = node(f, self.binary(tightness + (node is not Implies)))
        return f

    def unary(self) -> Formula:
        token = self.peek()
        if token in _NEGATION:
            self.advance()
            return Not(self.unary())
        if token == "(":
            self.advance()
            f = self.binary()
            self.expect(")")
            return f
        if token is None:
            raise ParseError("unexpected end of input", position=self._position())
        if re.fullmatch(r"[a-z][a-z0-9]*", token):
            self.advance()
            return Atom(token)
        raise ParseError(f"unexpected token {token!r}", position=self._position())


def parse_formula(text: str) -> Formula:
    if not text.strip():
        raise ParseError("empty formula")
    return _Parser(text).parse()


_SYMBOL = {node: symbol for symbol, node in _BINARY}
_PRECEDENCE = {node: level for level, node
               in enumerate([node for _, node in _BINARY] + [Not, Atom], start=1)}


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
        left = walk(g.left)
        right = walk(g.right)
        if isinstance(g, And):
            return left & right
        if isinstance(g, Or):
            return left | right
        if isinstance(g, Xor):
            return left ^ right
        if isinstance(g, Implies):
            return (full ^ left) | right
        return full ^ (left ^ right)  # Iff

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
