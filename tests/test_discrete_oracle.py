"""Differential tests for the whole-table discrete kernels: bit-parallel
truth columns and their rendering, indexed Cayley-table law checks, the
doubling power set, relation properties, composition and function flags,
Miller-Rabin primality and Pollard-rho factorization, each checked against
a plain one-row/one-lookup or pair-of-pairs reference written here or
against sympy."""

import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from exactmath import (
    FinSet,
    Magma,
    Relation,
    StructureClass,
    check_distributive,
    classify_structure,
    equivalence_analysis,
    fn_analysis,
    inverses,
    powerset,
    rel_compose,
    rel_properties,
)
from exactmath.arith import factorize, is_prime
from exactmath.cli import dispatch
from exactmath.errors import CarrierMismatch, TooLarge, TooManyAtoms
from exactmath.logic import (
    And,
    Atom,
    Classification,
    Iff,
    Implies,
    Not,
    Or,
    Xor,
    classify,
    equivalent,
    evaluate,
    parse_formula,
    truth_table,
)

# -- truth tables --------------------------------------------------------------

formulas = st.recursive(
    st.sampled_from("abcdefgh").map(Atom),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Xor(*t)),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
        st.tuples(sub, sub).map(lambda t: Iff(*t)),
    ),
    max_leaves=30,
)


def reference_rows(f):
    """Row by row with evaluate: first atom slowest, T before F."""
    atoms = f.atoms()
    return [(values, evaluate(f, dict(zip(atoms, values))))
            for values in product((True, False), repeat=len(atoms))]


@settings(max_examples=300)
@given(formulas)
def test_truth_table_matches_evaluate(f):
    table = truth_table(f)
    rows = reference_rows(f)
    assert table.atoms == tuple(f.atoms())
    assert list(table.rows) == rows
    assert all(type(v) is bool for values, result in table.rows
               for v in values + (result,))
    results = [result for _, result in rows]
    want = (Classification.TAUTOLOGY if all(results)
            else Classification.CONTRADICTION if not any(results)
            else Classification.CONTINGENT)
    assert classify(f) is want


def reference_render(table):
    """TruthTable text row by row: the cells of each row, then its result."""
    header = " ".join(table.atoms) + " | *"
    lines = [header, "-" * len(header)]
    for values, result in table.rows:
        cells = " ".join("T" if v else "F" for v in values)
        lines.append(f"{cells} | {'T' if result else 'F'}")
    return "\n".join(lines)


@settings(max_examples=300)
@given(formulas)
def test_truth_table_text_matches_row_by_row_render(f):
    table = truth_table(f)
    assert str(table) == reference_render(table)


@settings(max_examples=200)
@given(formulas, formulas)
def test_equivalent_matches_evaluate(f, g):
    atoms = Iff(f, g).atoms()
    same = all(evaluate(f, env) == evaluate(g, env)
               for env in (dict(zip(atoms, values))
                           for values in product((True, False), repeat=len(atoms))))
    assert equivalent(f, g) is same


def test_classify_shares_the_atom_cap():
    formula = parse_formula(" | ".join(f"a{i}" for i in range(21)))
    with pytest.raises(TooManyAtoms):
        classify(formula)
    with pytest.raises(TooManyAtoms):
        equivalent(formula, formula)


# -- Cayley tables ---------------------------------------------------------------


def reference_classify(carrier, table):
    op = {(a, b): table[i][j] for i, a in enumerate(carrier)
          for j, b in enumerate(carrier)}
    closed = all(v in carrier for v in op.values())
    info = {"closed": closed, "associative": False, "commutative": False,
            "neutral": None, "all_invertible": False, "class": StructureClass.MAGMA}
    if not closed:
        return info
    info["associative"] = all(op[op[a, b], c] == op[a, op[b, c]]
                              for a in carrier for b in carrier for c in carrier)
    info["commutative"] = all(op[a, b] == op[b, a] for a in carrier for b in carrier)
    for e in carrier:
        if all(op[a, e] == a and op[e, a] == a for a in carrier):
            info["neutral"] = e
            info["all_invertible"] = all(
                any(op[a, x] == e and op[x, a] == e for x in carrier) for a in carrier)
    if info["associative"]:
        if info["neutral"] is None:
            info["class"] = StructureClass.SEMIGROUP
        elif not info["all_invertible"]:
            info["class"] = StructureClass.MONOID
        elif info["commutative"]:
            info["class"] = StructureClass.ABELIAN_GROUP
        else:
            info["class"] = StructureClass.GROUP
    return info


def reference_inverses(carrier, table):
    e = reference_classify(carrier, table)["neutral"]
    if e is None:
        return {}
    op = {(a, b): table[i][j] for i, a in enumerate(carrier)
          for j, b in enumerate(carrier)}
    return {a: next(x for x in carrier if op[a, x] == e and op[x, a] == e)
            for a in carrier
            if any(op[a, x] == e and op[x, a] == e for x in carrier)}


def reference_distributive(carrier, add_table, mul_table):
    add = {(a, b): add_table[i][j] for i, a in enumerate(carrier)
           for j, b in enumerate(carrier)}
    mul = {(a, b): mul_table[i][j] for i, a in enumerate(carrier)
           for j, b in enumerate(carrier)}
    if any(v not in carrier for v in list(add.values()) + list(mul.values())):
        return None  # not closed: no verdict
    return all(mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
               and mul[add[b, c], a] == add[mul[b, a], mul[c, a]]
               for a in carrier for b in carrier for c in carrier)


LAWS = {
    "random": None,
    "unital": None,  # random, but the first element is neutral
    "cyclic": lambda a, b, n: (a + b) % n,
    "times": lambda a, b, n: (a * b) % n,
    "left_zero": lambda a, b, n: a,  # every element a right neutral
    "right_zero": lambda a, b, n: b,  # every element a left neutral
    "max": lambda a, b, n: max(a, b),
    "subtract": lambda a, b, n: (a - b) % n,
}


@st.composite
def tables(draw, n=None):
    """A carrier of up to 6 letters in random order and a table over it:
    random, or a known law under relabelling, optionally with one entry
    changed (possibly to a value outside the carrier)."""
    if n is None:
        n = draw(st.integers(0, 6))
    carrier = tuple(draw(st.permutations("abcdef"))[:n])
    name = draw(st.sampled_from(sorted(LAWS)))
    law = LAWS[name]
    if law is None or n == 0:
        table = [[draw(st.sampled_from(carrier)) for _ in carrier] for _ in carrier]
        if name == "unital" and n:
            table[0] = list(carrier)
            for i, row in enumerate(table):
                row[0] = carrier[i]
    else:
        table = [[carrier[law(i, j, n)] for j in range(n)] for i in range(n)]
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(st.sampled_from(carrier + ("z",)))
    return carrier, tuple(tuple(row) for row in table)


@settings(max_examples=400)
@given(tables())
def test_classify_structure_matches_brute_force(case):
    carrier, table = case
    m = Magma(carrier, table)
    assert classify_structure(m) == reference_classify(carrier, table)
    assert inverses(m) == reference_inverses(carrier, table)


@settings(max_examples=300)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(tables(n), tables(n))))
def test_check_distributive_matches_brute_force(pair):
    (carrier, add_table), (other, mul_table) = pair
    # the second table is re-read over the first carrier, so both share it
    relabel = dict(zip(other, carrier))
    mul_table = tuple(tuple(relabel.get(v, v) for v in row) for row in mul_table)
    m1, m2 = Magma(carrier, add_table), Magma(carrier, mul_table)
    want = reference_distributive(carrier, add_table, mul_table)
    if want is None:
        with pytest.raises(CarrierMismatch):
            check_distributive(m1, m2)
    else:
        assert check_distributive(m1, m2) is want


def test_one_sided_neutrals_and_inverses_do_not_count():
    # x*y = y: every element is a left neutral, none is two-sided
    m = Magma((0, 1), ((0, 1), (0, 1)))
    info = classify_structure(m)
    assert info["neutral"] is None
    assert info["class"] is StructureClass.SEMIGROUP
    assert inverses(m) == {}
    # e is neutral and every element has a right inverse, but a*b = e while
    # b*a = a, so a has no two-sided inverse
    m = Magma(("e", "a", "b"), (("e", "a", "b"), ("a", "b", "e"), ("b", "a", "e")))
    info = classify_structure(m)
    assert info == reference_classify(m.carrier, m.table)
    assert info["neutral"] == "e" and info["all_invertible"] is False
    assert inverses(m) == {"e": "e", "b": "b"}


# -- power sets ------------------------------------------------------------------

atom_sets = st.one_of(
    st.sets(st.integers(-50, 50), max_size=9),
    st.sets(st.text("abcxyz", min_size=1, max_size=3), max_size=9),
)


@given(atom_sets)
def test_powerset_matches_bitmask_definition(elements):
    a = FinSet(elements)
    subsets = powerset(a)
    want = [FinSet(e for i, e in enumerate(a.elements) if mask >> i & 1)
            for mask in range(2 ** len(a))]
    assert subsets == want
    assert [s.elements for s in subsets] == [s.elements for s in want]
    assert [hash(s) for s in subsets] == [hash(s) for s in want]
    assert all(type(s) is FinSet for s in subsets)
    # want's members join their text on demand; powerset's carry it from the doubling
    assert [str(s) for s in subsets] == [str(w) for w in want]
    assert [repr(s) for s in subsets] == [repr(w) for w in want]


# -- relations -------------------------------------------------------------------

def carriers(max_size=6):
    return st.integers(0, max_size).map(lambda n: FinSet(range(n)))


@st.composite
def relations(draw, source=None, target=None):
    """A relation between two carriers of at most 6 elements: any pair set,
    or one that also holds the pairs of a random partition of the source, so
    that equivalences and functions are drawn often."""
    source = draw(carriers()) if source is None else source
    target = draw(carriers()) if target is None else target
    all_pairs = [(a, b) for a in source for b in target]
    pairs = set(draw(st.lists(st.sampled_from(all_pairs), max_size=20))) if all_pairs else set()
    shape = draw(st.sampled_from(["any", "partition", "function"]))
    if shape == "partition" and source == target:
        label = {a: draw(st.integers(0, 2)) for a in source}
        pairs = {(a, b) for a in source for b in source if label[a] == label[b]}
    elif shape == "function" and len(target):
        pairs = {(a, draw(st.sampled_from(target.elements))) for a in source}
    return Relation(source, target, pairs)


endorelations = carriers().flatmap(lambda a: relations(a, a))


def reference_properties(rel):
    """The five flags by their definitions, over single pairs and pairs of
    pairs."""
    pairs = rel.pairs
    return {
        "reflexive": all((a, a) in pairs for a in rel.source),
        "antireflexive": all((a, a) not in pairs for a in rel.source),
        "symmetric": all((b, a) in pairs for a, b in pairs),
        "antisymmetric": all(a == b for a, b in pairs for c, d in pairs
                             if (c, d) == (b, a)),
        "transitive": all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c),
    }


@settings(max_examples=400)
@given(endorelations)
def test_rel_properties_match_pair_definitions(rel):
    assert rel_properties(rel) == reference_properties(rel)


@settings(max_examples=300)
@given(endorelations)
def test_equivalence_classes_match_the_partition(rel):
    flags = reference_properties(rel)
    is_equivalence = flags["reflexive"] and flags["symmetric"] and flags["transitive"]
    classes = []
    for a in rel.source:  # the class of each element not yet covered
        if not any(a in c for c in classes):
            classes.append(FinSet(b for x, b in rel.pairs if x == a))
    analysis = equivalence_analysis(rel)
    assert analysis["is_equivalence"] is is_equivalence
    assert analysis["classes"] == analysis["quotient"] == (classes if is_equivalence else [])


@st.composite
def composable(draw):
    a, b, c = draw(carriers()), draw(carriers()), draw(carriers())
    return draw(relations(a, b)), draw(relations(b, c))


@settings(max_examples=400)
@given(composable())
def test_rel_compose_matches_pair_definition(pair):
    first, second = pair
    want = {(a, c) for a, x in first.pairs for y, c in second.pairs if x == y}
    assert rel_compose(first, second) == Relation(first.source, second.target, want)


@settings(max_examples=400)
@given(relations())
def test_fn_analysis_matches_definitions(rel):
    images = {a: {b for x, b in rel.pairs if x == a} for a in rel.source}
    is_function = all(len(bs) == 1 for bs in images.values())
    values = [b for bs in images.values() for b in bs]
    injective = is_function and len(set(values)) == len(values)
    surjective = is_function and set(values) == set(rel.target)
    assert fn_analysis(rel) == {"is_function": is_function, "injective": injective,
                                "surjective": surjective,
                                "bijective": injective and surjective}


# -- primality -------------------------------------------------------------------

MR_LIMIT = 3317044064679887385961981


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_matches_sympy_below_1e5():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(1, 10**5) if is_prime(n)] == \
        [n for n in range(1, 10**5) if sympy.isprime(n)]


@settings(max_examples=300)
@given(st.one_of(
    st.integers(1, 10**24),
    st.integers(1, 10**12).map(lambda k: 2 * k + 1),
    st.integers(MR_LIMIT - 10**6, MR_LIMIT - 1),
))
def test_is_prime_matches_sympy_below_the_bound(n):
    sympy = pytest.importorskip("sympy")
    assert is_prime(n) is bool(sympy.isprime(n))


@given(st.integers(1, 10**11))
def test_is_prime_on_primes_and_their_products(k):
    sympy = pytest.importorskip("sympy")
    p, q = sympy.nextprime(k), sympy.nextprime(k + 10**6)
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)


@pytest.mark.parametrize("n,fooled", [
    (3215031751, (2, 3, 5, 7)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
])
def test_strong_pseudoprimes_are_composite(n, fooled):
    # each n passes Miller-Rabin for a prefix of the bases; the full set of
    # 13 bases still catches it
    assert all(strong_probable_prime(n, a) for a in fooled)
    assert not is_prime(n)


def test_is_prime_above_the_bound_proves_composites():
    assert not is_prime(43 ** 16)  # >= the bound, no factor below 43
    assert not is_prime(MR_LIMIT * 43)


PRIME_25 = 4000000000000000000000027  # above the bound
SEMIPRIME_40 = 20000000000000000011 * 50000000000000000059


def test_is_prime_above_the_bound_gives_no_probable_prime():
    with pytest.raises(TooLarge):
        is_prime(PRIME_25)
    with pytest.raises(TooLarge):  # 13 tests would pass MAX_RHO steps
        is_prime(4099 ** 1100)
    assert not is_prime(43 ** 2600)  # tried divisors answer before that cap
    assert not is_prime(SEMIPRIME_40)


# -- factorization ---------------------------------------------------------------


# derandomized, because rho's step count varies with n: an n that reaches
# MAX_RHO fails on every run, not on some
@settings(deadline=None, derandomize=True)
@given(st.integers(2, 10**24))
def test_factorize_matches_sympy_below_1e24(n):
    sympy = pytest.importorskip("sympy")
    assert factorize(n) == sorted(sympy.factorint(n).items())


# a bound of 6 to 12 digits whose prevprime has as many digits: no prime gap
# below 10^12 is longer than 1000
prime_bounds = st.integers(6, 12).flatmap(lambda d: st.integers(10 ** (d - 1) + 1000, 10 ** d))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(prime_bounds, prime_bounds)
@example(10**12, 999_999_000_000)  # the draws above rarely give two 12-digit primes
@example(10**12, 900_001_000_000)
def test_factorize_products_of_two_primes(a, b):
    # sympy's factorint takes over a second on some of these products, so the
    # oracle is the two primes sympy gives
    sympy = pytest.importorskip("sympy")
    p, q = sympy.prevprime(a), sympy.prevprime(b)
    assert factorize(p * q) == sorted(Counter((p, q)).items())


def test_factorize_splits_prime_powers_and_many_primes():
    sympy = pytest.importorskip("sympy")
    primes = list(sympy.primerange(43, 400))
    n = math.prod(p ** (i % 3 + 1) for i, p in enumerate(primes))
    assert factorize(n) == [(p, i % 3 + 1) for i, p in enumerate(primes)]
    assert factorize(43 ** 200) == [(43, 200)]
    assert factorize(2 ** 14000 * 3) == [(2, 14000), (3, 1)]
    assert factorize(43 ** 2600 * 4093) == [(43, 2600), (4093, 1)]
    with pytest.raises(TooLarge):  # 13 tests of 4099^1100 would pass MAX_RHO steps
        factorize(4099 ** 1100)


MR_MESSAGE = ("too large: a 25-digit number that passes Miller-Rabin for the bases up to 41 "
              "may be composite from 3317044064679887385961981 on\n")


@pytest.mark.parametrize("argv,out,err,code", [
    (["nt", "factor", "1000000016000000063"], "1000000007 * 1000000009\n", "", 0),
    (["nt", "prime", str(PRIME_25)], "", MR_MESSAGE, 1),
    (["nt", "factor", str(PRIME_25)], "", MR_MESSAGE, 1),
    (["nt", "factor", str(SEMIPRIME_40)], "",
     "too large: factorization of a 40-digit number exceeds the cap of 4194304 steps\n", 1),
    (["nt", "prime", str(SEMIPRIME_40)], "false\n", "", 0),
], ids=["19-digit semiprime", "prime 25 digits", "factor 25 digits", "factor 40 digits",
        "prime 40 digits"])
def test_large_factor_and_prime_operands_through_dispatch(argv, out, err, code, capsys):
    assert dispatch(argv) == code
    assert capsys.readouterr() == (out, err)
