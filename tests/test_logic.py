import pytest
from hypothesis import given, strategies as st

from exactmath import (
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
    print_formula,
    truth_table,
)
from exactmath.errors import ParseError, TooManyAtoms, UnboundAtom


def test_parser_precedence_and_shape():
    assert parse_formula("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse_formula("!p | q") == Or(Not(Atom("p")), Atom("q"))
    assert parse_formula("p ^ q -> r") == Implies(Xor(Atom("p"), Atom("q")), Atom("r"))
    # implication associates to the right
    assert parse_formula("p -> q -> r") == Implies(
        Atom("p"), Implies(Atom("q"), Atom("r")))
    assert parse_formula("p <-> q <-> r") == Iff(Iff(Atom("p"), Atom("q")), Atom("r"))
    assert parse_formula("~(p & q)") == Not(And(Atom("p"), Atom("q")))


@pytest.mark.parametrize("bad", ["", "p &", "(p", "p q", "p -> -> q", "P", "p @ q"])
def test_parser_rejects(bad):
    with pytest.raises(ParseError):
        parse_formula(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_formula("p & (q |")
    assert info.value.position is not None


@pytest.mark.parametrize("text,message,position", [
    ("(p", "expected ')'", 2),
    ("((p & q)", "expected ')'", 8),
    ("p -> (q", "expected ')'", 7),
    ("p & (q |", "unexpected end of input", 8),
    ("p q", "trailing input 'q'", 2),
    ("p & q r", "trailing input 'r'", 6),
    ("(p & q) (r)", "trailing input '('", 8),
    ("p ->", "unexpected end of input", 4),
    ("p -> -> q", "unexpected token '->'", 5),
    ("p <->", "unexpected end of input", 5),
    ("q | p <->", "unexpected end of input", 9),
    (")", "unexpected token ')'", 0),
    ("p)", "trailing input ')'", 1),
    ("p <-> q)", "trailing input ')'", 7),
    ("&p", "unexpected token '&'", 0),
    ("p&@", "unexpected character '@'", 2),
    ("P", "unexpected character 'P'", 0),
    ("()", "unexpected token ')'", 1),
    ("p & ()", "unexpected token ')'", 5),
    ("p & !", "unexpected end of input", 5),
    ("p @ q", "unexpected character '@'", 2),
    ("p &  \t#", "unexpected character '#'", 6),
])
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert (str(info.value), info.value.position) == (message, position)


TAUTOLOGIES = [
    "(p & !p) -> q",                 # ex falso
    "p | !p",                        # excluded middle
    "!(p & q) <-> (!p | !q)",        # De Morgan
    "!(p | q) <-> (!p & !q)",        # De Morgan
    "(p -> q) <-> (!q -> !p)",       # contraposition
    "((p -> q) & (q -> r)) -> (p -> r)",
    "p <-> !!p",
]


@pytest.mark.parametrize("text", TAUTOLOGIES)
def test_tautologies(text):
    assert classify(parse_formula(text)) is Classification.TAUTOLOGY


def test_contradiction_and_contingent():
    assert classify(parse_formula("p & !p")) is Classification.CONTRADICTION
    assert classify(parse_formula("p -> (q | r)")) is Classification.CONTINGENT
    assert classify(parse_formula("p & q")) is Classification.CONTINGENT


def test_truth_table_order():
    table = truth_table(parse_formula("p & !q"))
    assert table.atoms == ("p", "q")
    assert [values for values, _ in table.rows] == [
        (True, True), (True, False), (False, True), (False, False)]
    assert [result for _, result in table.rows] == [False, True, False, False]


def test_truth_table_atom_order_is_first_occurrence():
    table = truth_table(parse_formula("q | p"))
    assert table.atoms == ("q", "p")


def test_truth_table_render():
    text = str(truth_table(parse_formula("p | q")))
    assert text.splitlines()[0] == "p q | *"
    assert text.splitlines()[2] == "T T | T"
    assert text.splitlines()[-1] == "F F | F"


def test_atom_cap():
    formula = " | ".join(f"a{i}" for i in range(21))
    with pytest.raises(TooManyAtoms):
        truth_table(parse_formula(formula))


def test_evaluate_unbound():
    with pytest.raises(UnboundAtom):
        evaluate(parse_formula("p & q"), {"p": True})


formulas = st.recursive(
    st.sampled_from("pqrs").map(Atom),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Xor(*t)),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
        st.tuples(sub, sub).map(lambda t: Iff(*t)),
    ),
    max_leaves=25,
)


@given(formulas)
def test_printer_parser_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(formulas)
def test_equivalence_reflexive_and_negation(f):
    assert equivalent(f, f)
    assert not equivalent(f, Not(f))


@given(formulas, formulas)
def test_equivalence_symmetric(f, g):
    assert equivalent(f, g) == equivalent(g, f)


def test_equivalent_examples():
    f = parse_formula("p -> q")
    g = parse_formula("!p | q")
    assert equivalent(f, g)
    assert not equivalent(f, parse_formula("q -> p"))
