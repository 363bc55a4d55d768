import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monogenics.scalars import (
    PiScalar,
    Radical,
    canon,
    double_factorial,
    gamma_half,
    pochhammer,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=9)
pi_scalars = st.builds(
    lambda re, im, p: PiScalar({p: (re, im)}),
    rationals, rationals, st.integers(min_value=-3, max_value=3),
)


def test_construction_and_zero():
    assert PiScalar.of(0).is_zero()
    assert PiScalar.of(Fraction(3, 6)) == Fraction(1, 2)
    assert PiScalar.pi_power(2) != PiScalar.of(1)


def test_i_power_cycle():
    i = PiScalar.imaginary(1)
    assert i * i == PiScalar.of(-1)
    for k in range(-8, 9):
        assert PiScalar.i_power(k) == i ** (k % 4)


def test_single_term_inverse():
    x = PiScalar({3: (Fraction(2), Fraction(-1))})
    assert x * x.inverse() == PiScalar.of(1)
    with pytest.raises(ZeroDivisionError):
        (PiScalar.of(1) + PiScalar.pi_power(1)).inverse()


def test_float_demotion():
    x = PiScalar.pi_power(2, Fraction(1, 2))  # pi/2
    assert abs(x * 2.0 - math.pi) < 1e-15
    assert isinstance(x + 0.0, float)
    z = PiScalar.imaginary(1) * 1.0
    assert z == 1j
    # a float or complex on the left of / demotes too
    assert 1.0 / PiScalar.of(2) == 0.5
    assert 1j / PiScalar.imaginary(1) == 1


@given(pi_scalars, pi_scalars, pi_scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


def _reference_product(x, y) -> list:
    """The general double loop over the terms of both factors, led by the
    PiScalar's terms (``__rmul__`` is ``__mul__``), as (p, (re, im)) in order."""
    if not isinstance(x, PiScalar):
        x, y = y, x
    ys = y._terms if isinstance(y, PiScalar) else ({0: (Fraction(y), Fraction(0))} if y else {})
    terms = {}
    for p, (a, b) in x._terms.items():
        for q, (c, d) in ys.items():
            r0, i0 = terms.get(p + q, (Fraction(0), Fraction(0)))
            terms[p + q] = (r0 + a * c - b * d, i0 + a * d + b * c)
    return [(p, t) for p, t in terms.items() if t[0] or t[1]]


half_powers = st.integers(min_value=-3, max_value=3)
product_operands = st.one_of(
    st.builds(lambda re, p: PiScalar({p: (re, Fraction(0))}), rationals, half_powers),
    st.builds(lambda re, im, p: PiScalar({p: (re, im)}), rationals,
              rationals.filter(bool), half_powers),
    st.builds(PiScalar, st.dictionaries(half_powers, st.tuples(rationals, rationals),
                                        min_size=2, max_size=4)),
    st.just(PiScalar()),
    st.integers(min_value=-20, max_value=20),
    rationals,
)


@given(product_operands, product_operands)
def test_products_match_the_general_double_loop(x, y):
    # single-term real, single-term complex, multi-term, zero, int and
    # Fraction operands on either side: the same terms, values, types and
    # order (``to_complex`` sums in term order)
    if not (isinstance(x, PiScalar) or isinstance(y, PiScalar)):
        x = PiScalar.of(x)
    got = x * y
    assert isinstance(got, PiScalar)
    assert list(got._terms.items()) == _reference_product(x, y)
    assert all(type(v) is Fraction for t in got._terms.values() for v in t)


def test_gamma_half_values():
    assert gamma_half(2) == PiScalar.of(1)            # Gamma(1)
    assert gamma_half(8) == PiScalar.of(6)            # Gamma(4)
    assert gamma_half(1) == PiScalar.pi_power(1)      # Gamma(1/2) = sqrt(pi)
    assert gamma_half(5) == PiScalar.pi_power(1, Fraction(3, 4))  # Gamma(5/2)
    for two_x in range(1, 14):
        assert abs(float(gamma_half(two_x)) - math.gamma(two_x / 2)) < 1e-10


def test_double_factorial_and_pochhammer():
    assert [double_factorial(n) for n in (-1, 0, 1, 2, 3, 5, 6)] == [1, 1, 1, 2, 3, 15, 48]
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(3, 0) == 1


def test_radical_algebra():
    r = Radical.sqrt(Fraction(1, 2)) * Radical.sqrt(Fraction(1, 2))
    assert r == Radical.of(Fraction(1, 2))
    h = Radical(Fraction(1, 2), -1)  # sqrt(1/2) * pi^(-1/4)
    assert abs(float(h * h) - 0.5 / math.sqrt(math.pi)) < 1e-15
    assert Radical.of(Fraction(-2, 3)) == -Radical.sqrt(Fraction(4, 9))
    assert float(Radical.of(5) / Radical.of(2)) == pytest.approx(2.5)


def test_canon_demotes_rational_pi_scalars():
    assert canon(PiScalar.of(Fraction(2, 4))) == Fraction(1, 2)
    x = PiScalar.pi_power(1)
    assert canon(x) is x


def _equal_pairs():
    from monogenics.clifford import CliffordElement
    from monogenics.laurent import LaurentPoly

    return [
        pytest.param(CliffordElement(2, {0: 1.0}), CliffordElement(2, {0: Fraction(1)}),
                     id="clifford-float-fraction"),
        pytest.param(CliffordElement(3, {0b101: 0.5, 1: -2.0}),
                     CliffordElement(3, {1: Fraction(-2), 0b101: Fraction(1, 2)}), id="clifford-order"),
        pytest.param(LaurentPoly({-1: 1.0, 2: 0.5}), LaurentPoly({2: Fraction(1, 2), -1: Fraction(1)}),
                     id="laurent-float-fraction"),
        pytest.param(Radical(4), 2, id="radical-int"),
        pytest.param(Radical.of(Fraction(-3, 2)), Fraction(-3, 2), id="radical-fraction"),
        pytest.param(Radical(0, 3, -1), 0, id="radical-zero"),
        pytest.param(PiScalar.of(Fraction(5, 3)), Fraction(5, 3), id="pi-scalar-fraction"),
        pytest.param(PiScalar(), 0, id="pi-scalar-zero"),
    ]


@pytest.mark.parametrize("a, b", _equal_pairs())
def test_equal_values_are_one_set_member(a, b):
    assert a == b and b == a
    assert len({a, b}) == 1


@pytest.mark.parametrize("a, b", _equal_pairs())
def test_equal_values_are_one_dict_key(a, b):
    table = {a: "first"}
    table[b] = "second"
    assert len(table) == 1 and table[a] == "second"


def test_unequal_radicals_stay_apart():
    assert len({Radical(2), Radical(8), Radical(4), Radical(4, 1), Radical(4, 0, -1), 2}) == 5
