"""Binary relations between finite sets: sections, composition, inverse,
property detection, equivalence classes and quotient sets, partial orders,
and function/injection/surjection/bijection analysis.
"""

from dataclasses import dataclass

from .errors import DomainMismatch, NotBijective, NotEndorelation
from .sets import FinSet


@dataclass(frozen=True)
class Relation:
    source: FinSet
    target: FinSet
    pairs: frozenset

    def __init__(self, source: FinSet, target: FinSet, pairs):
        pairs = frozenset(pairs)
        for a, b in pairs:
            if a not in source or b not in target:
                raise DomainMismatch(f"pair ({a}, {b}) outside {source} x {target}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "pairs", pairs)

    def domain(self) -> FinSet:
        return FinSet(a for a, _ in self.pairs)

    def range(self) -> FinSet:
        return FinSet(b for _, b in self.pairs)

    def is_endorelation(self) -> bool:
        return self.source == self.target

    def __str__(self):
        body = ", ".join(f"({a}, {b})" for a, b in sorted(self.pairs, key=repr))
        return "{" + body + "}"


def from_predicate(source: FinSet, target: FinSet, predicate) -> Relation:
    """Build the extensional relation {(a, b) : predicate(a, b)}."""
    return Relation(
        source, target,
        ((a, b) for a in source for b in target if predicate(a, b)),
    )


def _successors(rel: Relation) -> dict:
    """a -> {b : (a, b) in rel} for every a in the source."""
    succ = {a: set() for a in rel.source}
    for a, b in rel.pairs:
        succ[a].add(b)
    return succ


def rel_inverse(rel: Relation) -> Relation:
    return Relation(rel.target, rel.source, ((b, a) for a, b in rel.pairs))


def rel_compose(first: Relation, second: Relation) -> Relation:
    """Composition second∘first: a related to c iff a→x in first and x→c
    in second for some x."""
    if first.target != second.source:
        raise DomainMismatch("target of the first relation must equal the "
                             "source of the second")
    succ = _successors(second)
    return Relation(first.source, second.target,
                    {(a, c) for a, x in first.pairs for c in succ[x]})


def rel_section(rel: Relation, a) -> FinSet:
    """The section through a: all b with (a, b) in the relation."""
    return FinSet(b for x, b in rel.pairs if x == a)


def rel_properties(rel: Relation) -> dict[str, bool]:
    """Reflexivity, antireflexivity, symmetry, antisymmetry, transitivity
    (endorelations only)."""
    if not rel.is_endorelation():
        raise NotEndorelation("properties are defined on relations A -> A")
    succ = _successors(rel)
    pairs = rel.pairs
    return {
        "reflexive": all(a in succ[a] for a in succ),
        "antireflexive": all(a not in succ[a] for a in succ),
        "symmetric": all((b, a) in pairs for a, b in pairs),
        "antisymmetric": all(a == b for a, b in pairs if (b, a) in pairs),
        # (a, b) and (b, c) give (a, c): every successor of b is one of a
        "transitive": all(succ[b] <= succ[a] for a, b in pairs),
    }


def equivalence_analysis(rel: Relation) -> dict:
    """Whether the relation is an equivalence; if so, its classes (a
    partition of the carrier) and the quotient set."""
    props = rel_properties(rel)
    is_equivalence = props["reflexive"] and props["symmetric"] and props["transitive"]
    classes: list[FinSet] = []
    if is_equivalence:
        seen = set()
        for a in rel.source.elements:
            if a in seen:
                continue
            cls = rel_section(rel, a)
            seen.update(cls.elements)
            classes.append(cls)
    return {
        "is_equivalence": is_equivalence,
        "classes": classes,
        "quotient": classes,
    }


def factor_set(rel: Relation) -> list[FinSet]:
    """Quotient set of an equivalence relation."""
    analysis = equivalence_analysis(rel)
    if not analysis["is_equivalence"]:
        raise NotEndorelation("factor set requires an equivalence relation")
    return analysis["classes"]


def is_partial_order(rel: Relation) -> bool:
    props = rel_properties(rel)
    return props["reflexive"] and props["antisymmetric"] and props["transitive"]


def fn_analysis(rel: Relation) -> dict[str, bool]:
    """Function / injective / surjective / bijective flags by enumeration.

    The three classification flags are False when the relation is not a
    function at all.
    """
    images = _successors(rel)
    is_function = all(len(imgs) == 1 for imgs in images.values())
    if not is_function:
        return {"is_function": False, "injective": False,
                "surjective": False, "bijective": False}
    values = [b for imgs in images.values() for b in imgs]
    injective = len(set(values)) == len(values)
    surjective = set(values) == set(rel.target.elements)
    return {
        "is_function": True,
        "injective": injective,
        "surjective": surjective,
        "bijective": injective and surjective,
    }


def fn_compose(f: Relation, g: Relation) -> Relation:
    """The mapping h(x) = g(f(x))."""
    if not fn_analysis(f)["is_function"] or not fn_analysis(g)["is_function"]:
        raise DomainMismatch("composition of mappings requires two functions")
    return rel_compose(f, g)


def fn_inverse(f: Relation) -> Relation:
    if not fn_analysis(f)["bijective"]:
        raise NotBijective("only bijections have an inverse mapping")
    return rel_inverse(f)
