import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from monogenics.axial import AxialClosedForm, DomainError, RhoExpr
from monogenics.clifford import CliffordElement, Paravector
from monogenics.constants import constants, sphere_area
from monogenics.extensions import appell_Q, gck_extension, intrinsic_split
from monogenics.kernels import (
    _max_residual,
    cauchy_kernel,
    kelvin_inversion,
    monogenic_monomial,
    monomial_constant,
    verify_monomial_identities,
)
from monogenics.laurent import LaurentPoly
from monogenics.scalars import to_complex



def fd_cauchy_riemann(form, m, x0, xv, h=1e-5):
    def val(y0, yv):
        return form.evaluate(y0, list(yv)).to_numeric()

    acc = val(x0 + h, xv) - val(x0 - h, xv)
    for j in range(m):
        up, dn = list(xv), list(xv)
        up[j] += h
        dn[j] -= h
        acc = acc + CliffordElement.generator(m, j + 1).to_numeric() * (val(x0, up) - val(x0, dn))
    return acc.scale(1.0 / (2 * h)).norm_inf()


def test_rhoexpr_canonical_reduction():
    # r^2 * rho^0 reduces to rho - x0^2 automatically
    lhs = RhoExpr.term(Fraction(1), q=2)
    rhs = RhoExpr.term(Fraction(1), e=2) - RhoExpr.term(Fraction(1), p=2)
    assert lhs == rhs


def test_rhoexpr_reduces_high_r_powers_binomially():
    # x0 r^q rho^-1 against q products of r, each reducing r^2 once
    r = RhoExpr.term(Fraction(1), q=1)
    power = RhoExpr.term(Fraction(3, 7), p=1, e=-2)
    x0, rv = Fraction(2, 5), Fraction(-3, 4)
    for q in range(1, 31):
        power = power * r
        direct = RhoExpr.term(Fraction(3, 7), p=1, q=q, e=-2)
        assert direct == power
        assert all(qq in (0, 1) for (_, qq, _) in direct.terms)
        assert direct.evaluate(x0, rv) == Fraction(3, 7) * x0 * rv**q / (x0 * x0 + rv * rv)


def test_rhoexpr_derivatives():
    # d/dx0 of x0 rho^(-1) = rho^(-1) - 2 x0^2 rho^(-2)
    f = RhoExpr.term(Fraction(1), p=1, e=-2)
    got = f.diff_x0()
    want = RhoExpr.term(Fraction(1), e=-2) - RhoExpr.term(Fraction(2), p=2, e=-4)
    assert got == want


def closed_power(m, n):
    """x^n as the closed axial form of the intrinsic split of x0^n."""
    pair = intrinsic_split(LaurentPoly.monomial(n))
    return AxialClosedForm(m, pair.alpha, pair.beta, singular_origin=n < 0)


def test_paravector_power_closed_matches_poly():
    from monogenics.poly import paravector_power

    for m in (2, 3):
        for n in range(0, 5):
            assert closed_power(m, n).to_polynomial() == paravector_power(m, n)


def test_paravector_power_closed_negative():
    # x^-1 = conj(x)/|x|^2, at a float point and exactly at a rational one
    m = 3
    form = closed_power(m, -1)
    x0, xv = 0.7, (0.2, -0.1, 0.4)
    n2 = x0**2 + sum(c * c for c in xv)
    want = Paravector(x0, xv).conj().to_element().scale(1.0 / n2)
    assert (form.evaluate(x0, list(xv)).to_numeric() - want).norm_inf() < 1e-14
    x0, xv = Fraction(1, 2), (Fraction(2, 7), Fraction(-3, 7), Fraction(6, 7))
    want = Paravector(x0, xv).conj().to_element().scale(Fraction(4, 5))
    assert form.evaluate(x0, list(xv)) == want


def test_cauchy_kernel_restriction_and_planar_case():
    for m in (2, 3, 4):
        E = cauchy_kernel(m)
        for x0 in (0.9, -0.9):
            sgn = 1.0 if x0 > 0 else (-1.0) ** (m + 1)
            want = sgn * x0 ** (-m) / float(sphere_area(m + 1))
            got = complex(E.evaluate(x0, [0.0] * m).to_numeric().scalar_part())
            assert abs(got - want) < 1e-14
    # m = 1: the planar kernel conj(x)/(2 pi |x|^2)
    E1 = cauchy_kernel(1)
    x0, x1 = 0.6, -0.8
    n2 = x0 * x0 + x1 * x1
    want = CliffordElement(1, {0: x0 / (2 * math.pi * n2), 1: -x1 / (2 * math.pi * n2)})
    assert (E1.evaluate(x0, [x1]).to_numeric() - want).norm_inf() < 1e-15


def test_cauchy_kernel_numerically_monogenic():
    for m in (2, 3):
        E = cauchy_kernel(m)
        assert fd_cauchy_riemann(E, m, 1.0, [0.3, -0.2, 0.1][:m]) < 1e-6


def test_cauchy_kernel_domain_error():
    with pytest.raises(DomainError):
        cauchy_kernel(3).evaluate(0, [0, 0, 0])


def test_kelvin_of_constant_is_scaled_kernel():
    m = 3
    one = gck_extension(LaurentPoly.one(), m)

    class Eval:
        def evaluate(self, x0, xv):
            return one.evaluate(x0, list(xv)).to_numeric()

    inv = kelvin_inversion(Eval(), m)
    E = cauchy_kernel(m)
    for pt in [(1.0, (0.2, 0.3, -0.1)), (-0.8, (0.4, 0.0, 0.2))]:
        lhs = inv.evaluate(*pt)
        rhs = E.evaluate(pt[0], list(pt[1])).to_numeric().scale(float(sphere_area(m + 1)))
        assert (lhs - rhs).norm_inf() < 1e-14


def test_kelvin_involution_pointwise():
    m = 3
    q = appell_Q(m, 2).map_coeffs(lambda c: c.to_numeric())

    class Eval:
        def evaluate(self, x0, xv):
            return q.evaluate(x0, list(xv))

    twice = kelvin_inversion(kelvin_inversion(Eval(), m), m)
    rng = random.Random(3)
    for _ in range(5):
        x0 = rng.uniform(0.4, 1.2)
        xv = [rng.uniform(-0.5, 0.5) for _ in range(m)]
        assert (twice.evaluate(x0, xv) - q.evaluate(x0, xv)).norm_inf() < 1e-10


def test_kelvin_restriction_identity():
    # I[GCK[f0]] restricted to the axis is sgn(x0)^(m+1) x0^(-m) f0(1/x0)
    f0 = LaurentPoly({2: Fraction(1), 0: Fraction(2)})
    for m in (2, 3):
        series = gck_extension(f0, m)

        class Eval:
            def evaluate(self, x0, xv):
                return series.evaluate(x0, list(xv)).to_numeric()

        inv = kelvin_inversion(Eval(), m)
        for x0 in (0.8, -0.8, 2.0):
            got = complex(inv.evaluate(x0, [0.0] * m).scalar_part())
            sgn = 1.0 if x0 > 0 else (-1.0) ** (m + 1)
            want = sgn * x0 ** (-m) * float(f0.evaluate(1.0 / x0))
            assert abs(got - want) < 1e-12


def test_kelvin_preserves_monogenicity_numerically():
    m = 3
    q = appell_Q(m, 2).map_coeffs(lambda c: c.to_numeric())

    class Eval:
        def evaluate(self, x0, xv):
            return q.evaluate(x0, list(xv))

    inv = kelvin_inversion(Eval(), m)
    assert fd_cauchy_riemann(inv, m, 0.9, [0.3, -0.2, 0.25]) < 1e-6


def test_p_minus_one_is_scaled_kernel():
    for m in (2, 3):
        cst = constants(m)
        P = monogenic_monomial(m, -1)
        want = cauchy_kernel(m).scale(cst.sigma_next * cst.lam)
        assert P.A == want.A and P.B == want.B


def test_p_negative_restriction_formula():
    for m in (2, 3):
        for k in (1, 2, 3):
            P = monogenic_monomial(m, -k)
            const = float(monomial_constant(m, k))
            for x0 in (0.9, -0.9):
                got = complex(P.evaluate(x0, [0.0] * m).scalar_part())
                sgn = 1.0 if x0 > 0 else (-1.0) ** (m - 1)
                want = const * sgn * x0 ** (-k - m + 1)
                assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_p_positive_is_scaled_appell():
    for m in (2, 3):
        for k in range(1, 6):
            got = monogenic_monomial(m, k - 1).to_polynomial()
            want = appell_Q(m, k - 1).scale(monomial_constant(m, k))
            assert got == want


def test_p_negative_axially_monogenic_fd():
    for m in (2, 3):
        P = monogenic_monomial(m, -2)
        assert fd_cauchy_riemann(P, m, 1.1, [0.3, 0.2, -0.1][:m]) < 1e-6


def test_sign_factors_trivial_for_odd_m():
    # for odd m the half-axis factors are identically one: both branch
    # evaluations must agree at negative x0
    m = 3
    P = monogenic_monomial(m, -2)
    reports = verify_monomial_identities(m, 2, order=34)
    for rep in reports:
        if not rep.exact:
            assert rep.residual < 1e-8
    val_neg = P.evaluate(-1.0, [0.1, 0.1, 0.1]).to_numeric()
    assert val_neg.norm_inf() > 0  # evaluable on the negative half-axis


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_positive_monomial_is_the_kelvin_image_of_the_negative_one(m):
    # verify_monomial_identities takes P^(k-1) as the Kelvin image of the
    # P^(-k) it already built: the same form, term for term and in order
    for k in range(1, 5):
        want, got = monogenic_monomial(m, k - 1), monogenic_monomial(m, -k).kelvin()
        assert (got.m, got.sign_power, got.singular_origin) == \
            (want.m, want.sign_power, want.singular_origin)
        assert list(got.A.terms.items()) == list(want.A.terms.items())
        assert list(got.B.terms.items()) == list(want.B.terms.items())


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)])
def test_verify_monomial_identities_grid(m, k):
    reports = verify_monomial_identities(m, k, order=40)
    by_name = {r.identity: r for r in reports}
    assert by_name["pos_order_restriction"].exact
    assert by_name["pos_order_restriction"].residual == 0.0
    assert by_name["pos_order_derivative"].exact
    assert by_name["pos_order_derivative"].residual == 0.0
    assert by_name["neg_order_restriction"].residual < 1e-8
    assert by_name["neg_order_derivative"].residual < 1e-8


def test_negative_identities_share_one_evaluation_of_the_form_per_point(monkeypatch):
    m, k, order = 3, 2, 30
    evaluate, calls = AxialClosedForm.evaluate, []

    def counted(self, x0, xv):
        calls.append((x0, xv))
        return evaluate(self, x0, xv)

    monkeypatch.setattr(AxialClosedForm, "evaluate", counted)
    by_name = {r.identity: r.residual for r in verify_monomial_identities(m, k, order=order)}
    points = list(calls)
    assert [x0 for x0, _ in points] == [1.0, -1.0]
    # the shared values give the residuals the closed form itself gives
    P = replace(monogenic_monomial(m, -k), sign_power=m - 1)
    series = gck_extension(LaurentPoly.monomial(1 - k - m), m, order)
    series_d = gck_extension(LaurentPoly.monomial(-k).derivative(m - 1), m, order)
    const_d = constants(m).lam * Fraction((-1) ** (m - 1), math.factorial(m - 1))
    assert by_name["neg_order_restriction"] == _max_residual(P, series, monomial_constant(m, k), points)
    assert by_name["neg_order_derivative"] == _max_residual(P, series_d, const_d, points)


def test_monomial_identity_instances():
    # degree-2 axis data: lam_3/2! * GCK[6 x0] equals P^(1) for (m,k) = (3,2)
    m, k = 3, 2
    lhs = monogenic_monomial(m, k - 1).to_polynomial()
    f0 = LaurentPoly.monomial(m + k - 2).derivative(m - 1)  # 6 x0
    rhs = gck_extension(f0, m).to_polynomial().scale(
        constants(m).lam * Fraction(1, math.factorial(m - 1)))
    assert lhs == rhs


@pytest.mark.parametrize("m", [2, 3, 4])
def test_monogenic_monomial_is_the_closed_form(m):
    for k in range(-3, 4):
        P = monogenic_monomial(m, k)
        assert isinstance(P, AxialClosedForm) and P.sign_power == 0
        if k < 0:
            with pytest.raises(ValueError):
                P.to_polynomial()


def test_residual_sign_power_matches_the_explicit_flip():
    # the old residual negated the scaled series at x0 < 0 by hand
    def flipped(closed, series, scale, sign_power, points):
        gaps = []
        for x0, xv in points:
            lhs = closed.evaluate(x0, xv).to_numeric()
            rhs = series.evaluate(x0, xv).to_numeric().scale(to_complex(scale))
            if sign_power % 2 and x0 < 0:
                rhs = -rhs
            gaps.append((lhs - rhs).norm_inf())
        return max(gaps)

    m, k = 2, 2
    const = monomial_constant(m, k)
    series = gck_extension(LaurentPoly.monomial(1 - k - m), m, 30)
    P = monogenic_monomial(m, -k)
    for x0 in (-1.0, -0.8):
        points = [(x0, (0.3, 0.2))]
        want = flipped(P, series, const, 1, points)
        assert _max_residual(replace(P, sign_power=1), series, const, points) == want < 1e-6
        # without the sign the two sides differ by twice their value
        assert _max_residual(P, series, const, points) > 1.0
