from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exactmath import (
    FinSet,
    GaussianRational,
    Line,
    Plane,
    Relation,
    Vec3,
    parse_complex,
    parse_line,
    parse_pairs,
    parse_plane,
    parse_relation,
    parse_set,
    parse_vec3,
)
from exactmath.errors import ParseError

F = Fraction


def test_parse_set():
    assert parse_set("{1, 2, 3}") == FinSet([1, 2, 3])
    assert parse_set(" {a,b} ") == FinSet(["a", "b"])
    assert parse_set("{}") == FinSet()
    assert parse_set("{-4}") == FinSet([-4])


@pytest.mark.parametrize("bad", ["1, 2", "{1, 2", "{1.5}", "{a b}", "{(}"])
def test_parse_set_rejects(bad):
    with pytest.raises(ParseError):
        parse_set(bad)


def test_parse_pairs():
    assert parse_pairs("{(1,2),(2,3)}") == [(1, 2), (2, 3)]
    assert parse_pairs("{ (a, 1) }") == [("a", 1)]
    assert parse_pairs("{}") == []
    with pytest.raises(ParseError):
        parse_pairs("(1,2)")
    with pytest.raises(ParseError):
        parse_pairs("{1,2}")


def test_parse_relation_defaults():
    rel = parse_relation("{(1,4),(2,5)}")
    assert rel.source == FinSet([1, 2])
    assert rel.target == FinSet([4, 5])
    assert rel.pairs == frozenset({(1, 4), (2, 5)})


def test_parse_relation_explicit_sets():
    rel = parse_relation("{(1,1)}", FinSet([1, 2]), FinSet([1, 2]))
    assert rel.source == FinSet([1, 2])


@pytest.mark.parametrize("text,expected", [
    ("3+4i", GaussianRational(3, 4)),
    ("-i", GaussianRational(0, -1)),
    ("i", GaussianRational(0, 1)),
    ("4i", GaussianRational(0, 4)),
    ("2", GaussianRational(2, 0)),
    ("1/2-3/4i", GaussianRational(F(1, 2), F(-3, 4))),
    ("-2 + i", GaussianRational(-2, 1)),
])
def test_parse_complex(text, expected):
    assert parse_complex(text) == expected


@given(st.builds(GaussianRational, st.fractions(), st.fractions()))
def test_parse_complex_round_trips_str(z):
    assert parse_complex(str(z)) == z


@pytest.mark.parametrize("bad", ["", "1+2", "i+i", "3+4j", "1+2+3i"])
def test_parse_complex_rejects(bad):
    with pytest.raises(ParseError):
        parse_complex(bad)


def test_parse_vec3():
    assert parse_vec3("(1, -2, 3)") == Vec3(1, -2, 3)
    assert parse_vec3("1/2, 0, -5") == Vec3(F(1, 2), 0, -5)
    with pytest.raises(ParseError):
        parse_vec3("(1, 2)")


def test_parse_plane():
    assert parse_plane("7 -1 5 -6") == Plane(7, -1, 5, -6)
    assert parse_plane("1/2 0 1 3") == Plane(F(1, 2), 0, 1, 3)
    with pytest.raises(ParseError):
        parse_plane("1 2 3")


def test_parse_line_point_dir():
    line = parse_line("point=(1, 0, -1) dir=(2, 3, -1)")
    assert line == Line(Vec3(1, 0, -1), Vec3(2, 3, -1))


def test_parse_line_canonical():
    line = parse_line("(x-1)/2 = (y+3)/-1 = z/5")
    assert line.point == Vec3(1, -3, 0)
    assert line.dir == Vec3(2, -1, 5)


def test_parse_line_round_trips_str():
    original = Line(Vec3(F(5, 3), -2, 0), Vec3(2, -1, 4))
    assert parse_line(str(original)) == original


@pytest.mark.parametrize("bad", [
    "x/1 = y/2",
    "(x-1)/0 = y/1 = z/1",
    "(x-1)/2 = (x-2)/3 = z/1",
    "(w-1)/2 = y/1 = z/1",
    "nonsense",
])
def test_parse_line_rejects(bad):
    with pytest.raises(ParseError):
        parse_line(bad)
