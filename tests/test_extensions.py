import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monogenics.axial import RhoExpr
from monogenics.clifford import CliffordElement
from monogenics.extensions import (
    IntrinsicPair,
    appell_Q,
    appell_sum,
    appell_weight,
    gck_bessel_form,
    gck_denominator,
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
from monogenics.scalars import PiScalar


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
    # x0^2 -> (x0^2 - r^2, 2 x0 r)
    pair = intrinsic_split(LaurentPoly.monomial(2))
    assert pair.alpha == RhoExpr({(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(-1)})
    assert pair.beta == RhoExpr({(1, 1, 0): Fraction(2)})
    # constants stay put
    pair1 = intrinsic_split(LaurentPoly.one())
    assert pair1.alpha == RhoExpr({(0, 0, 0): Fraction(1)}) and pair1.beta.is_zero()
    assert pair1.parity_ok()
    # x0^3 -> (x0^3 - 3 x0 r^2, 3 x0^2 r - r^3), odd in r in the beta part
    pair3 = intrinsic_split(LaurentPoly.monomial(3))
    assert pair3.alpha == RhoExpr({(3, 0, 0): Fraction(1), (1, 2, 0): Fraction(-3)})
    assert pair3.beta == RhoExpr({(2, 1, 0): Fraction(3), (0, 3, 0): Fraction(-1)})
    assert pair3.parity_ok()
    r1, r2 = pair3.cr_residuals()
    assert r1.is_zero() and r2.is_zero()
    # 1/x0 -> (x0/rho, -r/rho), the parts of 1/(x0 + i r) = (x0 - i r)/rho
    pair_inv = intrinsic_split(LaurentPoly.monomial(-1))
    assert pair_inv.alpha == RhoExpr({(1, 0, -2): Fraction(1)})
    assert pair_inv.beta == RhoExpr({(0, 1, -2): Fraction(-1)})
    assert pair_inv.parity_ok()
    assert pair_inv.alpha.evaluate(Fraction(2), Fraction(1, 3)) == Fraction(18, 37)


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
        got = CliffordElement(m, {0: pair.alpha.evaluate(x0, r)})
        if r:
            got = got + CliffordElement.vector(m, [c / r for c in xv]).scale(
                pair.beta.evaluate(x0, r))
        assert (want - got).norm_inf() < 1e-10


LAURENT = LaurentPoly({-3: Fraction(2), -1: Fraction(1, 3), 0: Fraction(-5), 2: Fraction(7, 2),
                       5: Fraction(-1, 4)})
# rational (x0, r), with r = 0 and x0 = 0 among them
RATIONAL_POINTS = [(Fraction(3, 2), Fraction(1, 4)), (Fraction(-2, 3), Fraction(5, 7)),
                   (Fraction(0), Fraction(3, 5)), (Fraction(-7, 4), Fraction(0)),
                   (Fraction(1), Fraction(-1, 2))]


def split_checks(pair, f0):
    """(both Cauchy-Riemann residuals vanish, alpha and beta equal the
    slice values at every rational point), all exact."""
    r1, r2 = pair.cr_residuals()
    sf = slice_extension(f0, 3)
    return (r1.is_zero() and r2.is_zero(),
            all((pair.alpha.evaluate(x0, r), pair.beta.evaluate(x0, r)) == sf.slice_values(x0, r)
                for x0, r in RATIONAL_POINTS))


def test_intrinsic_split_is_exact_on_laurent_data():
    # the split and slice_values (PiScalar powers) share no code
    pair = intrinsic_split(LAURENT)
    assert pair.parity_ok()
    assert split_checks(pair, LAURENT) == (True, True)


def unconjugated_split(f0):
    """The split with (x0 + i r)^|n| in place of (x0 - i r)^|n| for n < 0."""
    pair = intrinsic_split(f0)
    neg = intrinsic_split(LaurentPoly({n: c for n, c in f0.terms.items() if n < 0}))
    return IntrinsicPair(pair.alpha, pair.beta - neg.beta - neg.beta)


def test_intrinsic_split_negative_control():
    unconjugated = unconjugated_split(LAURENT)
    assert unconjugated.parity_ok()
    assert split_checks(unconjugated, LAURENT) == (False, False)


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


@pytest.mark.parametrize("f0", [
    LaurentPoly({5: Fraction(2), 2: Fraction(-7, 3), -3: Fraction(1, 5)}),
    LaurentPoly({4: PiScalar.pi_power(1, 3), -2: PiScalar.imaginary(Fraction(-1, 2))}),
    LaurentPoly({3: CliffordElement(3, {0: Fraction(1), 0b101: Fraction(-2, 7)}), -1: Fraction(4)}),
], ids=["fraction", "pi", "element"])
def test_gck_recursion_is_the_scaled_derivative(f0):
    # each step is f_j = f_(j-1)' / gck_denominator(m, j), term for term and in order
    m, order = 3, 12
    coeffs = gck_extension(f0, m, order).coeffs
    f = f0
    for j, got in enumerate(coeffs[1:], start=1):
        f = f.derivative().scale(Fraction(1, gck_denominator(m, j)))
        assert list(got.terms.items()) == list(f.terms.items())
    assert len(coeffs) == order + 1


def _generic_fold(f: LaurentPoly, x):
    out = None
    for n, c in sorted(f.terms.items()):
        val = c * (x**n if n >= 0 else 1 / (x ** (-n)))
        out = val if out is None else out + val
    return out


def _same_bits(a, b) -> bool:
    parts = [(complex(a).real, complex(b).real), (complex(a).imag, complex(b).imag)]
    return type(a) is type(b) and all(u == v and math.copysign(1.0, u) == math.copysign(1.0, v)
                                      for u, v in parts)


laurent_coeffs = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=1000).filter(bool),
    st.builds(lambda c, p: PiScalar.pi_power(p, c),
              st.fractions(min_value=-5, max_value=5, max_denominator=30).filter(bool),
              st.integers(min_value=1, max_value=3)),
    st.builds(PiScalar.imaginary,
              st.fractions(min_value=-5, max_value=5, max_denominator=30).filter(bool)),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False).filter(bool),
)


@given(st.dictionaries(st.integers(min_value=-8, max_value=8), laurent_coeffs, min_size=1, max_size=6),
       st.floats(min_value=0.05, max_value=20.0), st.booleans())
def test_evaluate_at_a_float_has_the_bits_of_the_generic_fold(terms, x, negative):
    f = LaurentPoly(terms)
    x = -x if negative else x
    assert _same_bits(f.evaluate(x), _generic_fold(f, x))


def test_evaluate_at_a_signed_zero_keeps_the_sign():
    f = LaurentPoly({1: Fraction(-1, 3)})
    for x in (0.0, -0.0):
        got = f.evaluate(x)
        assert _same_bits(got, _generic_fold(f, x)) and got == 0.0
    assert math.copysign(1.0, f.evaluate(0.0)) == -1.0
    with pytest.raises(ZeroDivisionError):
        LaurentPoly({-1: Fraction(1)}).evaluate(-0.0)


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
    assert series.to_polynomial() == appell_Q(m, 1).scale(e1)
    # element and scalar coefficients alike are scaled, differentiated and
    # evaluated by multiplying each coefficient with a scalar
    e12 = e1 * CliffordElement.generator(m, 2)
    mixed = LaurentPoly({-1: e1, 0: Fraction(2), 3: e12})
    assert mixed.scale(Fraction(3, 4)).terms == {
        -1: e1.scale(Fraction(3, 4)), 0: Fraction(3, 2), 3: e12.scale(Fraction(3, 4))}
    assert mixed.derivative(2) == LaurentPoly({-3: e1.scale(2), 1: e12.scale(6)})
    assert mixed.derivative(2).evaluate(Fraction(2)) == e1.scale(Fraction(1, 4)) + e12.scale(12)
    # the slice extension of mixed data: x^(-1) = conj(x)/|x|^2, values x^n c
    xe = x.to_element()
    want = (x.conj().to_element().scale(1 / x.norm_sq()) * e1 + CliffordElement.scalar(m, 2)
            + xe * xe * xe * e12)
    assert slice_extension(mixed, m).evaluate(x.x0, list(x.xv)) == want
    # scalar and element coefficients sum in evaluation, in either order,
    # and a scalar and an element with one exponent add into one coefficient
    half = Fraction(1, 2)
    want = CliffordElement.scalar(m, 2) + e1.scale(half)
    assert LaurentPoly({0: Fraction(2), 1: e1}).evaluate(half) == want
    assert LaurentPoly({1: e1, 0: Fraction(2)}).evaluate(half) == want
    assert LaurentPoly({0: e1, 1: Fraction(2)}).evaluate(half) == e1 + 1
    total = LaurentPoly({1: Fraction(2)}) + LaurentPoly({1: e1, 2: e12})
    assert total == LaurentPoly({1: e1 + 2, 2: e12})
    assert total - LaurentPoly({1: e1}) == LaurentPoly({1: CliffordElement.scalar(m, 2), 2: e12})
