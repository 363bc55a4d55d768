import random
from fractions import Fraction

import pytest

from monogenics.clifford import CliffordElement, Paravector
from monogenics.extensions import appell_Q
from monogenics.poly import (
    CliffordPolynomial,
    OperatorTag,
    apply_operator,
    is_monogenic,
    paravector_power,
)
from monogenics.scalars import PiScalar


def radial_sq(m):
    """|x|^2 = x1^2 + ... + xm^2 with unit scalar coefficients."""
    return CliffordPolynomial(m, {tuple(2 * (i == j) for i in range(m + 1)): CliffordElement.one(m)
                                  for j in range(1, m + 1)})


def rand_poly(rng, m, degree, nterms=5):
    terms = {}
    for _ in range(nterms):
        exps = [0] * (m + 1)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(m + 1)] += 1
        coeff = CliffordElement(m, {rng.randrange(1 << m): Fraction(rng.randint(-9, 9), 4)
                                    for _ in range(2)})
        terms[tuple(exps)] = coeff
    return CliffordPolynomial(m, terms)


def test_cauchy_riemann_annihilates_linear_monogenic():
    for m in range(1, 6):
        p = CliffordPolynomial.variable(m, 0) + \
            CliffordPolynomial.vector_variable(m).scale(Fraction(1, m))
        assert apply_operator(OperatorTag.D, p).is_zero()


def test_laplacian_of_constant_and_power():
    m = 3
    const = CliffordPolynomial.scalar_constant(m, Fraction(7))
    assert apply_operator(OperatorTag.LAPLACIAN, const).is_zero()
    # x^2 = x0^2 - |x|^2 + 2 x0 x, so the Laplacian is 2 - 2m = -4 at m = 3
    assert apply_operator(OperatorTag.LAPLACIAN, paravector_power(m, 2)) == \
        CliffordPolynomial.scalar_constant(m, Fraction(-4))


def test_paravector_power_expansion():
    m = 3
    assert paravector_power(m, 0) == CliffordPolynomial.one(m)
    x0 = CliffordPolynomial.variable(m, 0)
    vec = CliffordPolynomial.vector_variable(m)
    want = x0 * x0 - radial_sq(m) + (x0 * vec).scale(2)
    assert paravector_power(m, 2) == want


def test_paravector_power_against_product_chain():
    x = Paravector(Fraction(1), (Fraction(1), Fraction(0), Fraction(0)))
    el = x.to_element()
    chain = CliffordElement.one(3)
    for _ in range(5):
        chain = chain * el
    val = paravector_power(3, 5).evaluate(x.x0, list(x.xv))
    assert val == chain


def test_is_monogenic_basics():
    m = 3
    assert not is_monogenic(CliffordPolynomial.variable(m, 0))
    for mm in range(2, 6):
        for k in range(0, 9):
            assert is_monogenic(appell_Q(mm, k))


def test_operator_factorization_random():
    rng = random.Random(12)
    for _ in range(25):
        m = rng.randint(1, 4)
        p = rand_poly(rng, m, 6)
        dd = apply_operator(OperatorTag.D, apply_operator(OperatorTag.DBAR, p))
        lap = apply_operator(OperatorTag.LAPLACIAN, p)
        dd2 = apply_operator(OperatorTag.DBAR, apply_operator(OperatorTag.D, p))
        assert dd == lap == dd2


def test_dirac_on_vector_powers():
    # d_x x^j = -j x^(j-1) for even j and -(m+j-1) x^(j-1) for odd j
    for m in range(1, 6):
        vec = CliffordPolynomial.vector_variable(m)
        power = CliffordPolynomial.one(m)
        for j in range(1, 11):
            power = power * vec
            got = apply_operator(OperatorTag.DIRAC, power)
            coeff = -j if j % 2 == 0 else -(m + j - 1)
            prev = CliffordPolynomial.one(m)
            for _ in range(j - 1):
                prev = prev * vec
            assert got == prev.scale(Fraction(coeff))


def test_hypercomplex_is_half_dbar():
    rng = random.Random(5)
    p = rand_poly(rng, 3, 5)
    assert apply_operator(OperatorTag.HYPERCOMPLEX, p) == \
        apply_operator(OperatorTag.DBAR, p).scale(Fraction(1, 2))


def test_float_evaluation_matches_finite_differences():
    rng = random.Random(8)
    h = 1e-5
    for _ in range(10):
        m = rng.randint(1, 3)
        p = rand_poly(rng, m, 4).map_coeffs(lambda c: c.to_numeric())
        point = [rng.uniform(-1, 1) for _ in range(m + 1)]
        dp = apply_operator(OperatorTag.D, p)
        got = dp.evaluate(point[0], point[1:])
        acc = (p.evaluate(point[0] + h, point[1:])
               - p.evaluate(point[0] - h, point[1:])).scale(1 / (2 * h))
        for j in range(1, m + 1):
            up = list(point)
            dn = list(point)
            up[j] += h
            dn[j] -= h
            diff = (p.evaluate(up[0], up[1:]) - p.evaluate(dn[0], dn[1:])).scale(1 / (2 * h))
            acc = acc + CliffordElement.generator(m, j).to_numeric() * diff
        assert (got - acc).norm_inf() < 1e-6


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        CliffordPolynomial(2, {(-1, 0, 0): CliffordElement.one(2)})


@pytest.mark.parametrize("exps", [(1.5, 0, 0), (True, 0, 0), (0, False, 1), (Fraction(2), 0, 0), (2.0, 0, 0)])
def test_exponent_that_is_not_an_int_rejected(exps):
    with pytest.raises(ValueError):
        CliffordPolynomial(2, {exps: CliffordElement.one(2)})


@pytest.mark.parametrize("value", [Fraction(2, 3), PiScalar.pi_power(1, Fraction(-1, 2)), 0.375])
def test_diff_refuses_an_index_outside_the_variables(value):
    m = 2
    p = CliffordPolynomial(m, {(1, 2, 3): CliffordElement(m, {0b11: value})})
    for j in (-1, m + 1, 2 * m + 1):
        with pytest.raises(ValueError, match="out of range"):
            p.diff(j)
    assert p.diff(m).terms == {(1, 2, 2): CliffordElement(m, {0b11: value * 3})}
