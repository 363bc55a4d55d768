import math
import random
from fractions import Fraction

import pytest

from monogenics.clifford import CliffordElement
from monogenics.extensions import (
    appell_Q,
    appell_sum,
    appell_weight,
    gck_bessel_form,
    gck_extension,
    intrinsic_split,
    slice_extension,
)
from monogenics.laurent import LaurentPoly
from monogenics.poly import (
    CliffordPolynomial,
    OperatorTag,
    apply_operator,
    is_monogenic,
    paravector_power,
)


def binomial_slice_oracle(m: int, k: int) -> CliffordPolynomial:
    """sum_j C(k,j) x^j x0^(k-j): the terminating extension series of x0^k."""
    out = CliffordPolynomial.zero(m)
    vec = CliffordPolynomial.vector_variable(m)
    x0 = CliffordPolynomial.variable(m, 0)
    vp = CliffordPolynomial.one(m)
    for j in range(k + 1):
        out = out + (vp * x0 ** (k - j)).scale(Fraction(math.comb(k, j)))
        vp = vp * vec
    return out


@pytest.mark.parametrize("m", [2, 3, 4])
def test_slice_extension_of_powers(m):
    for k in range(0, 9):
        sp = slice_extension(LaurentPoly.monomial(k), m).to_polynomial()
        assert sp == binomial_slice_oracle(m, k)
        assert sp == paravector_power(m, k)


def test_slice_extension_identity_and_restriction():
    m = 3
    one = slice_extension(LaurentPoly.one(), m)
    assert one.to_polynomial() == CliffordPolynomial.one(m)
    f0 = LaurentPoly({2: Fraction(3), 0: Fraction(-1)})
    sf = slice_extension(f0, m)
    assert sf.restrict() == f0
    val = sf.evaluate(Fraction(1, 2), [Fraction(0)] * m)
    assert val == CliffordElement.scalar(m, f0.evaluate(Fraction(1, 2)))


def test_slice_extension_negative_power_evaluation():
    m = 2
    sf = slice_extension(LaurentPoly.monomial(-1), m)
    # closed-form value: x^(-1) = conj(x)/|x|^2
    x0, xv = 0.8, [0.3, -0.4]
    n2 = x0 * x0 + sum(c * c for c in xv)
    got = sf.evaluate(x0, xv).to_numeric()
    want = CliffordElement(m, {0: x0 / n2, 1: -xv[0] / n2, 2: -xv[1] / n2})
    assert (got - want).norm_inf() < 1e-14
    with pytest.raises(ZeroDivisionError):
        sf.evaluate(0, [0, 0])


def test_slice_extension_of_mixed_scalar_and_clifford_data():
    e1 = CliffordElement.generator(2, 1)
    sf = slice_extension(LaurentPoly({0: Fraction(2), 1: e1}), 2)
    got = sf.evaluate(0.5, (0.3, 0.1))
    want = sf.to_polynomial().evaluate(0.5, (0.3, 0.1))
    assert (got - want).norm_inf() < 1e-15
    # the Clifford term first, and exact input
    sf = slice_extension(LaurentPoly({0: e1, 2: Fraction(3), 3: Fraction(-1, 2)}), 2)
    x0, xv = Fraction(1, 2), (Fraction(3, 5), Fraction(4, 5))
    assert sf.evaluate(x0, xv) == sf.to_polynomial().evaluate(x0, xv)


def test_intrinsic_split_examples():
    # u^2 -> (u^2 - v^2, 2uv)
    pair = intrinsic_split(LaurentPoly.monomial(2))
    assert pair.alpha == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert pair.beta == {(1, 1): Fraction(2)}
    # constants stay put
    pair1 = intrinsic_split(LaurentPoly.one())
    assert pair1.alpha == {(0, 0): Fraction(1)} and pair1.beta == {}
    # odd symmetry of the beta part for u^3
    pair3 = intrinsic_split(LaurentPoly.monomial(3))
    assert pair3.parity_ok()
    r1, r2 = pair3.cr_residuals()
    assert not r1 and not r2


def test_intrinsic_split_matches_slice_values():
    rng = random.Random(17)
    m = 3
    f0 = LaurentPoly({3: Fraction(1), 1: Fraction(-2), 0: Fraction(5)})
    pair = intrinsic_split(f0)
    sf = slice_extension(f0, m)
    for _ in range(10):
        x0 = rng.uniform(-1.5, 1.5)
        xv = [rng.uniform(-0.9, 0.9) for _ in range(m)]
        r = math.sqrt(sum(c * c for c in xv))
        want = sf.evaluate(x0, xv).to_numeric()
        got = CliffordElement(m, {0: pair.alpha_eval(x0, r)})
        if r:
            got = got + CliffordElement.vector(m, [c / r for c in xv]).scale(
                pair.beta_eval(x0, r))
        assert (want - got).norm_inf() < 1e-10


def test_gck_examples():
    m = 3
    g = gck_extension(LaurentPoly.monomial(1), m)
    assert g.coeffs == [LaurentPoly.monomial(1), LaurentPoly({0: Fraction(1, 3)})]
    assert gck_extension(LaurentPoly.one(), m).to_polynomial() == CliffordPolynomial.one(m)
    g2 = gck_extension(LaurentPoly.monomial(2), m)
    assert g2.coeffs == [
        LaurentPoly.monomial(2),
        LaurentPoly({1: Fraction(2, 3)}),
        LaurentPoly({0: Fraction(1, 3)}),
    ]
    assert is_monogenic(g2.to_polynomial())


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_gck_monogenic_and_restriction(m):
    for k in range(0, 9):
        g = gck_extension(LaurentPoly.monomial(k), m)
        assert g.exact
        assert apply_operator(OperatorTag.D, g.to_polynomial()).is_zero()
        assert g.restrict() == LaurentPoly.monomial(k)


def test_gck_round_trips():
    m = 4
    f0 = LaurentPoly({5: Fraction(2), 2: Fraction(-7, 3), 0: Fraction(1)})
    series = gck_extension(f0, m)
    assert series.restrict() == f0
    rebuilt = gck_extension(series.restrict(), m)
    assert rebuilt == series


@pytest.mark.parametrize("case", [
    (LaurentPoly.monomial(1), 3),
    (LaurentPoly.one(), 3),
    (LaurentPoly.monomial(4), 2),
    (LaurentPoly({6: Fraction(1), 3: Fraction(2), 0: Fraction(-1)}), 5),
])
def test_gck_bessel_form_matches_recursion(case):
    f0, m = case
    assert gck_bessel_form(f0, m) == gck_extension(f0, m)


def test_gck_bessel_rejects_laurent():
    with pytest.raises(ValueError):
        gck_bessel_form(LaurentPoly.monomial(-1), 3)


def test_gck_negative_power_tail_bound():
    m = 3
    for order in (12, 18, 24):
        series = gck_extension(LaurentPoly.monomial(-1), m, order)
        # |x|/|x0| = 1/2
        resid = series.truncation_residual(1.0, (0.5 / math.sqrt(m),) * m)
        assert resid <= 40.0 * 0.5**order


def test_appell_weights_sum_to_one():
    for m in range(1, 7):
        for k in range(0, 11):
            assert sum(appell_weight(m, k, j) for j in range(k + 1)) == 1


def test_appell_basics():
    for m in range(2, 5):
        assert appell_Q(m, 0) == CliffordPolynomial.one(m)
    q13 = appell_Q(3, 1)
    want = CliffordPolynomial.variable(3, 0) + \
        CliffordPolynomial.vector_variable(3).scale(Fraction(1, 3))
    assert q13 == want
    assert appell_sum(3, 1) == q13


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_appell_family_properties(m):
    for k in range(0, 9):
        q = appell_Q(m, k)
        assert is_monogenic(q)
        assert q.evaluate(Fraction(1), [Fraction(0)] * m) == CliffordElement.one(m)
        if k:
            assert apply_operator(OperatorTag.HYPERCOMPLEX, q) == \
                appell_Q(m, k - 1).scale(Fraction(k))
        assert appell_sum(m, k) == q


@pytest.mark.parametrize("k", [8, 9])
def test_appell_sum_matches_axial_extension_at_m6(k):
    s = appell_sum(6, k)
    assert s == appell_Q(6, k)
    assert is_monogenic(s)


def test_transposed_factor_order_fails_monogenicity():
    # with the factors the other way around the k=1 sum is not monogenic,
    # which is what pins the convention used in appell_sum
    m, k = 3, 1
    x = CliffordPolynomial.paravector_variable(m)
    xbar = CliffordPolynomial.variable(m, 0) - CliffordPolynomial.vector_variable(m)
    swapped = CliffordPolynomial.zero(m)
    for j in range(k + 1):
        swapped = swapped + (xbar ** (k - j) * x**j).scale(appell_weight(m, k, j))
    assert not is_monogenic(swapped)
    assert is_monogenic(appell_sum(m, k))


def test_clifford_valued_axis_data():
    # the maps are right-module morphisms: data x0 * e1 extends to x * e1
    from monogenics.clifford import Paravector

    m = 3
    e1 = CliffordElement.generator(m, 1)
    f0 = LaurentPoly({1: e1})
    sf = slice_extension(f0, m)
    x = Paravector(Fraction(1, 2), (Fraction(1, 3), Fraction(0), Fraction(1, 4)))
    assert sf.evaluate(x.x0, list(x.xv)) == x.to_element() * e1
    series = gck_extension(f0, m)
    assert series.restrict() == f0
    assert series.to_polynomial() == appell_Q(m, 1).right_mul_element(e1)
