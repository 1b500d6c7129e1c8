import math
import random
from fractions import Fraction

import pytest

from exactmath import (
    GaussianRational,
    Polar,
    arg_canonical,
    arg_principal,
    conj,
    from_polar,
    i_pow,
    modulus,
    modulus_sq,
    polar_div,
    polar_mul,
    polar_of,
    pow_int,
    roots_n,
    to_polar,
)
from exactmath.complexn import MAX_ROOTS
from exactmath.errors import BadDegree, DivisionByZero, OutOfDomain, TooLarge, ZeroArgument

TOL = 1e-9
F = Fraction


def G(re, im=0):
    return GaussianRational(F(re), F(im))


def test_exact_arithmetic():
    assert G(3, 4) * G(2, -5) == G(26, -7)
    assert G(3, 4) + G(2, -5) == G(5, -1)
    assert G(3, 4) - G(2, -5) == G(1, 9)
    assert G(2, -3) / G(1, 1) == G(F(-1, 2), F(-5, 2))
    with pytest.raises(DivisionByZero):
        G(1) / G(0)


def test_division_inverts_multiplication():
    rng = random.Random(3)
    for _ in range(100):
        a = G(rng.randint(-9, 9), rng.randint(-9, 9))
        b = G(rng.randint(-9, 9), rng.randint(-9, 9))
        if b.is_zero():
            continue
        assert (a * b) / b == a


def test_conj_and_modulus():
    z = G(3, -4)
    assert conj(z) == G(3, 4)
    assert modulus_sq(z) == 25
    assert modulus(z) == 5.0
    assert z * conj(z) == G(modulus_sq(z))


def test_i_powers():
    assert i_pow(0) == G(1)
    assert i_pow(1) == G(0, 1)
    assert i_pow(2) == G(-1)
    assert i_pow(3) == G(0, -1)
    assert i_pow(81) == G(0, 1)
    assert i_pow(-1) == G(0, -1)


def test_i_power_sum_fixture():
    # i^81 + i^43 + (-1-i)^80 / 2^40 + i^19 = 1 - i
    base = G(-1, -1)
    power = G(1)
    for _ in range(80):
        power = power * base
    scaled = power / G(2**40)
    total = i_pow(81) + i_pow(43) + scaled + i_pow(19)
    assert total == G(1, -1)


def test_args():
    assert abs(arg_principal(G(1, 1)) - math.pi / 4) < TOL
    assert abs(arg_principal(G(-1, 0)) - math.pi) < TOL
    assert abs(arg_principal(G(1, -1)) + math.pi / 4) < TOL
    assert abs(arg_canonical(G(1, -1)) - 7 * math.pi / 4) < TOL
    with pytest.raises(ZeroArgument):
        arg_principal(G(0))


def test_polar_fixture_4sqrt3_plus_4i():
    p = polar_of(4 * math.sqrt(3.0), 4.0)
    assert abs(p.r - 8.0) < TOL
    assert abs(p.theta - math.pi / 6) < TOL


def test_polar_round_trip():
    rng = random.Random(4)
    for _ in range(100):
        x, y = rng.uniform(-10, 10), rng.uniform(-10, 10)
        back_x, back_y = from_polar(polar_of(x, y))
        assert abs(back_x - x) < TOL and abs(back_y - y) < TOL


def test_polar_mul_div():
    p1 = polar_of(0.0, 2.0)   # 2i
    p2 = polar_of(1.0, 1.0)
    prod = polar_mul(p1, p2)
    x, y = from_polar(prod)
    assert abs(x + 2.0) < TOL and abs(y - 2.0) < TOL  # 2i*(1+i) = -2+2i
    quot = polar_div(prod, p2)
    assert abs(quot.r - p1.r) < TOL and abs(quot.theta - p1.theta) < TOL
    with pytest.raises(DivisionByZero):
        polar_div(p1, Polar(0.0, 0.0))


def test_de_moivre_matches_repeated_multiplication():
    rng = random.Random(5)
    for _ in range(50):
        z = G(rng.randint(-5, 5), rng.randint(-5, 5))
        if z.is_zero():
            continue
        n = rng.randint(1, 8)
        power = G(1)
        for _ in range(n):
            power = power * z
        x, y = from_polar(pow_int(to_polar(z), n))
        scale = max(1.0, abs(float(power.re)), abs(float(power.im)))
        assert abs(x - float(power.re)) / scale < TOL
        assert abs(y - float(power.im)) / scale < TOL


def test_pow_1_plus_i_8():
    p = pow_int(to_polar(G(1, 1)), 8)
    assert abs(p.r - 16.0) < TOL
    assert abs(p.theta) < TOL


@pytest.mark.parametrize("r,n", [(2.0, 2000), (0.5, 2000), (0.5, -2000), (1.0, 10**400)],
                         ids=["overflow", "underflow", "negative power", "angle overflow"])
def test_pow_outside_the_float_range_is_a_domain_error(r, n):
    # overflow raised OverflowError, and underflow gave r = 0 for a nonzero base
    with pytest.raises(OutOfDomain):
        pow_int(Polar(r, 1.0), n)


def test_cube_roots_of_1_minus_i():
    roots = roots_n(G(1, -1), 3)
    expected = [7 * math.pi / 12, 15 * math.pi / 12, 23 * math.pi / 12]
    assert [abs(root.theta - angle) < TOL
            for root, angle in zip(roots, expected)] == [True] * 3
    for root in roots:
        assert abs(root.r - 2 ** (1 / 6)) < TOL


def test_roots_reconstruct():
    rng = random.Random(6)
    for _ in range(50):
        z = G(rng.randint(-6, 6), rng.randint(-6, 6))
        if z.is_zero():
            continue
        n = rng.randint(2, 6)
        for root in roots_n(z, n):
            x, y = from_polar(pow_int(root, n))
            scale = max(1.0, float(modulus(z)))
            assert abs(x - float(z.re)) / scale < TOL
            assert abs(y - float(z.im)) / scale < TOL


def test_roots_errors():
    with pytest.raises(ZeroArgument):
        roots_n(G(0), 3)
    with pytest.raises(BadDegree):
        roots_n(G(1), 1)


def test_roots_cap():
    assert len(roots_n(G(1), MAX_ROOTS)) == MAX_ROOTS
    with pytest.raises(TooLarge, match="^10001 roots exceed the cap of 10000$"):
        roots_n(G(1), MAX_ROOTS + 1)


def test_str_forms():
    assert str(G(3, 4)) == "3+4i"
    assert str(G(0, -1)) == "-i"
    assert str(G(F(-1, 2), F(-5, 2))) == "-1/2-5/2i"
    assert str(G(7)) == "7"
