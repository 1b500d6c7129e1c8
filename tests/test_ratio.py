from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactmath import (
    Affine,
    MixtureResult,
    extended_split,
    mixture_missing_intensity,
    percent_chain,
    percent_solve,
    simple_mixture,
    solve_proportion,
    star_scheme,
)
from exactmath.errors import (
    AnnihilatingDelta,
    BadWeights,
    Degenerate,
    NonPositive,
    NoSolution,
    TargetCollision,
    UnbalancedSides,
    Unsolvable,
    WrongArity,
)
from exactmath.ratio import parse_affine, parse_percent

F = Fraction


# -- proportions -----------------------------------------------------------

def test_proportion_fixture():
    # (x+9) : 6 = x : 5 -> x = 45
    assert solve_proportion(Affine(1, 9), 6, Affine.x(), 5) == 45


def test_parse_affine_and_percent():
    assert parse_affine("x+9") == Affine(1, 9)
    assert parse_affine("2x - 3 + x") == Affine(3, -3)
    assert parse_affine("-x") == Affine(-1)
    assert parse_affine("5") == Affine.const(5)
    assert parse_percent(" 32% ") == 32
    assert parse_percent("5‰") == F(1, 2)
    assert parse_percent("1/3") == F(1, 3)


def test_proportion_plain_fourth():
    # 3 : 4 = x : 10 -> x = 15/2
    assert solve_proportion(Affine.const(3), 4, Affine.x(), 10) == F(15, 2)


def test_proportion_degenerate_cases():
    with pytest.raises(Degenerate):
        solve_proportion(Affine.x(), 2, Affine.x(), 2)
    with pytest.raises(NoSolution):
        solve_proportion(Affine(1, 1), 2, Affine.x(), 2)


@given(
    a=st.fractions(min_value=-20, max_value=20, max_denominator=6),
    b=st.fractions(min_value=-20, max_value=20, max_denominator=6),
    c=st.fractions(min_value=1, max_value=20, max_denominator=6),
    d=st.fractions(min_value=1, max_value=20, max_denominator=6),
)
def test_proportion_solution_satisfies_cross_product(a, b, c, d):
    lhs = Affine(a, b)
    try:
        x = solve_proportion(lhs, c, Affine.x(), d)
    except (Degenerate, NoSolution):
        return
    assert (a * x + b) * d == x * c


def test_extended_split_fixtures():
    # 198 split 1:2:3:5 and 120 split 1:5:9
    assert extended_split(198, [1, 2, 3, 5]) == [18, 36, 54, 90]
    assert extended_split(120, [1, 5, 9]) == [8, 40, 72]


def test_extended_split_properties():
    parts = extended_split(F(7, 3), [2, 3, 7])
    assert sum(parts) == F(7, 3)
    assert parts[1] / parts[0] == F(3, 2)


def test_extended_split_rejects():
    with pytest.raises(BadWeights):
        extended_split(0, [1, 2])
    with pytest.raises(BadWeights):
        extended_split(10, [1, -2])
    with pytest.raises(BadWeights):
        extended_split(10, [])


# -- percents --------------------------------------------------------------

def test_percent_solve_fixture():
    # I = 30 is p = 32% of G -> G = 93.75
    assert percent_solve(i=30, p=32) == F(375, 4)
    assert percent_solve(g=F(375, 4), p=32) == 30
    assert percent_solve(g=F(375, 4), i=30) == 32


def test_percent_solve_rejects():
    with pytest.raises(WrongArity):
        percent_solve(g=1)
    with pytest.raises(WrongArity):
        percent_solve(g=1, i=2, p=3)
    with pytest.raises(NonPositive):
        percent_solve(i=30, p=0)
    with pytest.raises(NonPositive):
        percent_solve(g=-5, p=10)


def test_percent_chain_fixtures():
    # start after -10% then +15% ends at 60 -> start = 4000/69
    assert percent_chain(final=60, deltas=[-10, 15]) == F(4000, 69)
    # final of 62.5 after -10% then -20% starting from... solve forward
    assert percent_chain(start=F(125, 2), deltas=[-10, -20]) == 45
    assert percent_chain(final=45, deltas=[-10, -20]) == F(125, 2)


def test_percent_chain_order_independence():
    deltas = [7, -3, 12, -25]
    for rotated in ([deltas[i:] + deltas[:i]] for i in range(4)):
        assert percent_chain(start=880, deltas=rotated[0]) == \
            percent_chain(start=880, deltas=deltas)


def test_percent_chain_round_trip():
    value = percent_chain(start=F(17, 3), deltas=[5, -40, 250])
    assert percent_chain(final=value, deltas=[5, -40, 250]) == F(17, 3)


def test_percent_chain_rejects():
    with pytest.raises(WrongArity):
        percent_chain(deltas=[1])
    with pytest.raises(WrongArity):
        percent_chain(start=1, final=2)
    with pytest.raises(AnnihilatingDelta):
        percent_chain(start=10, deltas=[-100])


# -- mixtures --------------------------------------------------------------

def test_simple_mixture_fixture():
    # 48% and 78% to make 10 units at 60% -> 6 and 4
    result = simple_mixture(48, 78, 60, 10)
    assert result.amounts == (6, 4)
    assert not result.degenerate
    x1, x2 = result.amounts
    assert x1 * 48 + x2 * 78 == 10 * 60


def test_simple_mixture_degenerate_and_rejects():
    same = simple_mixture(50, 50, 50, 8)
    assert same.degenerate and sum(same.amounts) == 8
    with pytest.raises(Unsolvable):
        simple_mixture(50, 50, 60, 8)
    with pytest.raises(Unsolvable):
        simple_mixture(10, 20, 30, 8)
    with pytest.raises(NonPositive):
        simple_mixture(10, 20, 15, 0)


def test_mixture_missing_intensity_fixture():
    # 4 units at 48% plus 6 units at s2 gives 10 units at 66% -> s2 = 78
    assert mixture_missing_intensity(4, 48, 6, 66) == 78
    with pytest.raises(NonPositive):
        mixture_missing_intensity(4, 48, 0, 66)


def test_star_scheme_fixture():
    # prices 160, 140, 110, 50 blended to 120 with total 560
    amounts = star_scheme([160, 140, 110, 50], 120, 560)
    assert amounts == [280, 40, 80, 160]
    assert sum(amounts) == 560
    assert sum(a * v for a, v in zip(amounts, [160, 140, 110, 50])) == 560 * 120


def test_star_scheme_two_values_matches_simple_mixture():
    star = star_scheme([48, 78], 60, 10)
    simple = simple_mixture(48, 78, 60, 10)
    assert tuple(star) == simple.amounts


def test_star_scheme_conservation(rng):
    for _ in range(50):
        k = rng.randint(1, 3)
        target = F(rng.randint(20, 80))
        above = [target + off for off in rng.sample(range(1, 41), k)]
        below = [target - off for off in rng.sample(range(1, 20), k)]
        values = above + below
        rng.shuffle(values)
        total = F(rng.randint(1, 500))
        amounts = star_scheme(values, target, total)
        assert all(a >= 0 for a in amounts)
        assert sum(amounts) == total
        assert sum(a * v for a, v in zip(amounts, values)) == total * target


def test_star_scheme_rejects():
    with pytest.raises(TargetCollision):
        star_scheme([10, 20, 30], 20, 5)
    with pytest.raises(UnbalancedSides):
        star_scheme([10, 20, 30], 15, 5)
    with pytest.raises(NonPositive):
        star_scheme([10, 30], 20, 0)
