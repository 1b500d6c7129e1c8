import random

import pytest

from exactmath import (
    GaussianRational,
    Magma,
    StructureClass,
    cayley_table,
    check_distributive,
    classify_structure,
    inverses,
    mod_add_table,
    mod_mul_table,
)
from exactmath.errors import CarrierMismatch, OutOfDomain, ParseError, TooLarge


def test_magma_shape_checks():
    with pytest.raises(CarrierMismatch):
        Magma((1, 1), ((1, 1), (1, 1)))
    with pytest.raises(CarrierMismatch):
        Magma((1, 2), ((1, 2),))
    with pytest.raises(TooLarge):
        cayley_table(range(65), lambda a, b: a)


def test_from_string_reads_the_carrier_then_the_rows():
    assert Magma.from_string("e a\n\ne a\na e\n") == Magma(("e", "a"), (("e", "a"), ("a", "e")))
    with pytest.raises(ParseError, match="table shape"):
        Magma.from_string("e a\ne a\na")
    with pytest.raises(ParseError, match="^carrier elements must be distinct$"):
        Magma.from_string("e e\ne e\ne e")


def test_closed_flag():
    open_table = Magma((0, 1), ((0, 1), (1, 2)))
    assert not open_table.closed
    assert classify_structure(open_table)["class"] is StructureClass.MAGMA


def test_z6_addition_is_abelian_group():
    m = mod_add_table(6)
    info = classify_structure(m)
    assert info["class"] is StructureClass.ABELIAN_GROUP
    assert info["neutral"] == 0
    assert inverses(m) == {0: 0, 1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    # the printed table: row a is (a, a+1, ..., a+5) mod 6
    assert m.table == tuple(
        tuple((a + b) % 6 for b in range(6)) for a in range(6))


def test_z6_multiplication_is_only_a_monoid():
    info = classify_structure(mod_mul_table(6))
    assert info["class"] is StructureClass.MONOID
    assert info["neutral"] == 1
    assert not info["all_invertible"]


def test_mod_distributivity():
    assert check_distributive(mod_add_table(6), mod_mul_table(6))
    assert not check_distributive(mod_mul_table(6), mod_add_table(6))
    with pytest.raises(CarrierMismatch):
        check_distributive(mod_add_table(5), mod_add_table(6))
    # an entry outside the shared carrier is a carrier mismatch, not a
    # leaked lookup error
    with pytest.raises(CarrierMismatch):
        check_distributive(Magma((0, 1), ((0, 1), (1, 2))), mod_mul_table(2))


@pytest.mark.parametrize("n", [0, -1])
def test_modular_tables_need_a_positive_modulus(n):
    with pytest.raises(OutOfDomain):
        mod_add_table(n)
    with pytest.raises(OutOfDomain):
        mod_mul_table(n)


@pytest.mark.parametrize("n", [65, 10**8])
def test_modular_tables_check_the_cap_before_building(n, monkeypatch):
    def build(carrier, op):
        raise AssertionError("the carrier was built before the size check")

    monkeypatch.setattr("exactmath.algstruct.cayley_table", build)
    with pytest.raises(TooLarge):
        mod_add_table(n)
    with pytest.raises(TooLarge):
        mod_mul_table(n)


def _gauss(re, im):
    return GaussianRational(re, im)


def test_fourth_roots_of_unity_table():
    # carrier in the printed order -1, 1, i, -i
    minus1, one = _gauss(-1, 0), _gauss(1, 0)
    i, minus_i = _gauss(0, 1), _gauss(0, -1)
    m = cayley_table((minus1, one, i, minus_i), lambda a, b: a * b)
    assert m.table == (
        (one, minus1, minus_i, i),
        (minus1, one, i, minus_i),
        (minus_i, i, minus1, one),
        (i, minus_i, one, minus1),
    )
    info = classify_structure(m)
    assert info["class"] is StructureClass.ABELIAN_GROUP
    assert info["neutral"] == one


def test_max_min_operations_on_1_to_6():
    carrier = (1, 2, 3, 4, 5, 6)
    max_m = cayley_table(carrier, max)
    min_m = cayley_table(carrier, min)
    assert classify_structure(max_m)["class"] is StructureClass.MONOID
    assert classify_structure(max_m)["neutral"] == 1
    assert classify_structure(min_m)["neutral"] == 6
    assert check_distributive(max_m, min_m)


def test_shifted_addition_group_laws_sampled():
    # x * y = x + y - 4 on Z: abelian group with e = 4 and x' = 8 - x.
    # The carrier is infinite, so check the laws on sampled integers.
    rng = random.Random(7)
    star = lambda x, y: x + y - 4
    for _ in range(200):
        x, y, z = (rng.randint(-50, 50) for _ in range(3))
        assert star(star(x, y), z) == star(x, star(y, z))
        assert star(x, y) == star(y, x)
        assert star(x, 4) == x and star(4, x) == x
        assert star(x, 8 - x) == 4


def test_apply_and_str():
    m = mod_add_table(3)
    assert m.apply(2, 2) == 1
    text = str(m)
    assert text.splitlines()[0].split("|")[0].strip() == "*"
    assert len(text.splitlines()) == 5
