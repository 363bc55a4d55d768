import math
import random
from fractions import Fraction

import pytest

from monogenics.clifford import Paravector
from monogenics.constants import constants
from monogenics.extensions import appell_sum, gck_extension, intrinsic_split
from monogenics.fueter import (
    radial_route_components,
    laplacian_power_route,
    fueter_on_laurent,
    fueter_on_power,
)
from monogenics.laurent import LaurentPoly
from monogenics.poly import CliffordPolynomial, OperatorTag, apply_operator
from monogenics.scalars import PiScalar
from test_extensions import LAURENT, unconjugated_split


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_kernel_branch_exactly(m):
    for ell in range(0, 11):
        res = fueter_on_power(m, ell)
        if 0 <= ell <= m - 2:
            assert res.branch == "kernel"
            assert res.output.is_zero()
        else:
            assert res.branch == "monomial"
            assert not res.output.is_zero()


def test_tau3_on_square_is_minus_four():
    res = fueter_on_power(3, 2)
    assert res.output == CliffordPolynomial.scalar_constant(3, Fraction(-4))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_monomial_branch_is_scaled_appell(m):
    gamma = constants(m).gamma
    for k in range(0, 7):
        got = fueter_on_power(m, m - 1 + k).output
        want = appell_sum(m, k).scale(
            gamma * Fraction(math.factorial(m - 1 + k), math.factorial(k)))
        assert got == want


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_polynomial_outputs_monogenic(m):
    for ell in range(m - 1, m + 9):
        out = fueter_on_power(m, ell).output
        assert apply_operator(OperatorTag.D, out).is_zero()


def test_laplacian_route_polynomial_agreement():
    # independent pointwise route through the polynomial engine
    res = fueter_on_power(3, 4)
    assert laplacian_power_route(3, LaurentPoly.monomial(4)) == res.output


def test_laplacian_route_identity_for_m1():
    f0 = LaurentPoly({3: Fraction(2), 1: Fraction(-1)})
    from monogenics.extensions import slice_extension

    assert laplacian_power_route(1, f0) == slice_extension(f0, 1).to_polynomial()


def test_laplacian_route_requires_odd_m():
    with pytest.raises(ValueError):
        laplacian_power_route(2, LaurentPoly.one())


def test_negative_power_closed_cross_check():
    # m = 3: the pointwise route on 1/x equals -4 conj(x)/|x|^4
    form = laplacian_power_route(3, LaurentPoly.monomial(-1))
    rng = random.Random(20)
    for _ in range(20):
        x0 = rng.choice([-1, 1]) * rng.uniform(0.5, 1.5)
        xv = [rng.uniform(-0.4, 0.4) for _ in range(3)]
        n4 = (x0 * x0 + sum(c * c for c in xv)) ** 2
        want = Paravector(x0, tuple(xv)).conj().to_element().scale(-4.0 / n4)
        got = form.evaluate(x0, xv).to_numeric()
        assert (got - want).norm_inf() < 1e-8


@pytest.mark.parametrize("m", [3, 5])
def test_diagram_commutes_for_odd_m(m):
    rng = random.Random(m)
    for _ in range(5):
        f0 = LaurentPoly({n: Fraction(rng.randint(-5, 5)) for n in range(9)})
        lhs = laplacian_power_route(m, f0)
        rhs = gck_extension(f0.derivative(m - 1), m).to_polynomial().scale(constants(m).gamma)
        assert lhs == rhs


def test_radial_components_examples():
    # f = z^2 gives the constant -4 for m = 3
    pair = intrinsic_split(LaurentPoly.monomial(2))
    route = radial_route_components(3, pair).to_polynomial()
    assert route == fueter_on_power(3, 2).output == CliffordPolynomial.scalar_constant(3, Fraction(-4))
    # f = z^3 gives -12 x0 - 4 x
    route3 = radial_route_components(3, intrinsic_split(LaurentPoly.monomial(3))).to_polynomial()
    want = CliffordPolynomial.variable(3, 0).scale(Fraction(-12)) - \
        CliffordPolynomial.vector_variable(3).scale(Fraction(4))
    assert route3 == want == fueter_on_power(3, 3).output


def test_radial_components_m1_is_identity():
    # zero radial-derivative applications: the map leaves alpha + w beta alone
    pair = intrinsic_split(LaurentPoly.monomial(2))
    form = radial_route_components(1, pair)
    from monogenics.extensions import slice_extension

    sf = slice_extension(LaurentPoly.monomial(2), 1)
    for x0, x1 in [(0.3, 0.7), (-0.9, 0.2)]:
        lhs = form.evaluate(x0, [x1]).to_numeric()
        rhs = sf.evaluate(x0, [x1]).to_numeric()
        assert (lhs - rhs).norm_inf() < 1e-14


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_radial_components_on_laurent_data_match_laplacian_route(m):
    # both routes are exact on Laurent data and share only the split
    form, lap = radial_route_components(m, intrinsic_split(LAURENT)), laplacian_power_route(m, LAURENT)
    assert form.A == lap.A and form.B == lap.B
    assert form.singular_origin
    assert not radial_route_components(m, intrinsic_split(LaurentPoly.monomial(2))).singular_origin
    x0, r = Fraction(3, 2), Fraction(1, 4)
    assert form.value_parts(x0, r) == lap.value_parts(x0, r)
    assert all(isinstance(v, Fraction) for v in form.value_parts(x0, r))


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_radial_components_negative_controls(m):
    lap = laplacian_power_route(m, LAURENT)
    unconjugated = radial_route_components(m, unconjugated_split(LAURENT))
    assert (unconjugated.A, unconjugated.B) != (lap.A, lap.B)
    # one radial step too many
    form = radial_route_components(m, intrinsic_split(LAURENT))
    assert form.A.diff_r().div_r() != lap.A and form.B.div_r().diff_r() != lap.B


def test_radial_components_parity_enforced():
    bad = intrinsic_split(LaurentPoly.monomial(2))
    swapped = type(bad)(alpha=bad.beta, beta=bad.alpha)
    with pytest.raises(ValueError):
        radial_route_components(3, swapped)


@pytest.mark.parametrize("m,k", [(2, 1), (2, 2), (2, 3), (2, 4),
                                 (4, 1), (4, 2), (4, 3), (4, 4)])
def test_even_m_negative_powers_match_closed_forms(m, k):
    res = fueter_on_power(m, -k, order=52)
    worst = 0.0
    for x0 in (1.0, -1.0):
        for scalefac in (0.3, 0.5):
            xv = [scalefac * x0 * c for c in _unit(m)]
            lhs = res.output.evaluate(x0, xv).to_numeric()
            rhs = res.closed.evaluate(x0, xv).to_numeric()
            worst = max(worst, (lhs - rhs).norm_inf())
    assert worst < 1e-8


def _unit(m):
    v = [0.6, -0.8, 0.0, 0.0, 0.0][:m]
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def test_even_m_output_lives_in_complexified_field():
    res = fueter_on_power(2, 1)  # gamma_2 * 1! * Q_0 = gamma_2
    coeff = res.output.terms[(0, 0, 0)].scalar_part()
    assert isinstance(coeff, PiScalar)
    assert coeff == constants(2).gamma
    assert coeff.real_part().is_zero()


def test_fueter_on_laurent_linearity_and_restriction():
    m = 3
    f0 = LaurentPoly({2: Fraction(3), -1: Fraction(1)})
    combined = fueter_on_laurent(m, f0, order=30)
    gamma = constants(m).gamma
    direct = fueter_on_power(m, -1, order=30).output + \
        gck_extension(LaurentPoly.monomial(2).derivative(2), m, 30).scale(gamma * 3)
    assert combined == direct
    assert combined.restrict() == f0.derivative(m - 1).scale(gamma)


def test_fueter_on_laurent_constant_output():
    for m in (2, 3, 4):
        series = fueter_on_laurent(m, LaurentPoly.monomial(m - 1))
        want = LaurentPoly({0: constants(m).gamma * Fraction(math.factorial(m - 1))})
        assert series.restrict() == want
        assert all(f.is_zero() for f in series.coeffs[1:])
