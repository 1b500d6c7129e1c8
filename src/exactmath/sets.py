"""Finite sets of atoms (all integers or all symbols), their Boolean
operations, power set, Cartesian product, and the three-set counting
(inclusion-exclusion) solver.
"""

import operator
from dataclasses import dataclass, field

from .errors import InconsistentCounts, MixedAtoms, NotASubset, TooLarge, UnknownKind

MAX_POWERSET = 20


def _check_atoms(elements):
    kinds = {isinstance(e, bool) or not isinstance(e, int) for e in elements}
    if len(kinds) > 1:
        raise MixedAtoms("a set must hold only integers or only symbols")


@dataclass(frozen=True, slots=True)
class FinSet:
    """Duplicate-free, canonically sorted finite set."""

    elements: tuple
    # str(self) when already known (powerset builds it); None means join on demand
    _text: str | None = field(default=None, repr=False, compare=False)

    def __init__(self, elements=()):
        elements = set(elements)
        _check_atoms(elements)
        object.__setattr__(self, "elements", tuple(sorted(elements)))
        object.__setattr__(self, "_text", None)

    @classmethod
    def _canonical(cls, elements: tuple, text: str) -> "FinSet":
        """Wrap a tuple that is already duplicate-free, sorted and of one
        atom kind, and its text, skipping the checks of __init__."""
        s = object.__new__(cls)
        object.__setattr__(s, "elements", elements)
        object.__setattr__(s, "_text", text)
        return s

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, item):
        return item in self.elements

    def __le__(self, other):
        return set(self.elements) <= set(other.elements)

    def __str__(self):
        if self._text is not None:
            return self._text
        return "{" + ", ".join(str(e) for e in self.elements) + "}"


_SET_OPS = {"union": operator.or_, "intersect": operator.and_, "diff": operator.sub,
            "symdiff": operator.xor}


def set_ops(a: FinSet, b: FinSet, op: str) -> FinSet:
    """union / intersect / diff / symdiff of two sets."""
    if op not in _SET_OPS:
        raise UnknownKind(f"unknown set op {op!r}")
    return FinSet(_SET_OPS[op](set(a.elements), set(b.elements)))


def complement(a: FinSet, universe: FinSet) -> FinSet:
    if not a <= universe:
        raise NotASubset(f"{a} is not a subset of the universe {universe}")
    return FinSet(set(universe.elements) - set(a.elements))


def powerset(a: FinSet) -> list[FinSet]:
    """All 2^|a| subsets, ordered by bitmask over the sorted elements."""
    if len(a) > MAX_POWERSET:
        raise TooLarge(f"power set of {len(a)} elements is too large")
    # doubling keeps the mask order: the copies made for element i are
    # exactly the masks with bit i set; each subset's text doubles beside it
    subsets, texts = [()], ["{}"]
    for e in a.elements:
        t = str(e)
        tail = ", " + t + "}"
        subsets += [s + (e,) for s in subsets]
        texts += ["{" + t + "}"] + [x[:-1] + tail for x in texts[1:]]
    return list(map(FinSet._canonical, subsets, texts))


def cartesian(a: FinSet, b: FinSet) -> list[tuple]:
    return [(x, y) for x in a.elements for y in b.elements]


def three_set_counts(total, f, e, fe, e_nj, f_nj, fenj):
    """Solve the three-set census: sizes of F, E and their overlaps are
    known, everyone belongs to at least one set, and the third set's size
    is the unknown.

    Returns (regions, nj) where regions maps the seven Venn regions
    ('f', 'e', 'nj', 'fe', 'enj', 'fnj', 'fenj') to their exclusive counts.
    """
    nj = total - f - e + fe + e_nj + f_nj - fenj
    regions = {
        "fenj": fenj,
        "fe": fe - fenj,
        "enj": e_nj - fenj,
        "fnj": f_nj - fenj,
        "f": f - fe - f_nj + fenj,
        "e": e - fe - e_nj + fenj,
        "nj": nj - e_nj - f_nj + fenj,
    }
    if any(count < 0 for count in regions.values()):
        raise InconsistentCounts(f"negative Venn region in {regions}")
    return regions, nj
