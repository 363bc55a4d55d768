import math
from fractions import Fraction

import pytest

from monogenics.constants import constants, gamma_odd_closed_form, sphere_area
from monogenics.scalars import PiScalar


def test_sphere_areas():
    assert sphere_area(1) == PiScalar.of(2)                       # S^0
    assert sphere_area(2) == PiScalar.pi_power(2, 2)              # 2 pi
    assert sphere_area(3) == PiScalar.pi_power(2, 4)              # 4 pi
    assert sphere_area(4) == PiScalar.pi_power(4, 2)              # 2 pi^2
    for m in range(1, 9):
        want = 2 * math.pi ** (m / 2) / math.gamma(m / 2)
        assert abs(float(sphere_area(m)) - want) < 1e-12


def test_m3_values():
    c = constants(3)
    assert c.gamma == PiScalar.of(-2)
    assert c.lam == PiScalar.of(4)
    assert c.sigma_next == PiScalar.pi_power(4, 2)  # 2 pi^2


def test_m1_is_identity_scale():
    assert constants(1).gamma == PiScalar.of(1)


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_gamma_odd_closed_form_agrees(m):
    assert constants(m).gamma == PiScalar.of(gamma_odd_closed_form(m))


@pytest.mark.parametrize("m", [2, 4, 6])
def test_gamma_even_is_imaginary(m):
    g = constants(m).gamma
    assert g.real_part().is_zero()
    assert not g.imag_part().is_zero()
    # the phase is i^(1-m)
    want = PiScalar.i_power(1 - m) * constants(m).lam * Fraction(1, math.factorial(m - 1))
    assert g == want


def test_gamma2_value():
    # 2^(1) Gamma(3/2)^2 / 1! = pi/2, with phase i^(-1) = -i
    assert constants(2).gamma == PiScalar({2: (Fraction(0), Fraction(-1, 2))})


def test_constants_are_built_once_per_m():
    for m in range(1, 8):
        c = constants(m)
        assert constants(m) is c
        assert c.sigma == sphere_area(m) and c.sigma_next == sphere_area(m + 1)
        if m % 2:
            assert c.gamma == PiScalar.of(gamma_odd_closed_form(m))
    for _ in range(2):
        with pytest.raises(ValueError):
            constants(0)
