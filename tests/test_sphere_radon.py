import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from monogenics.clifford import CliffordElement
from monogenics.constants import constants, sphere_area
from monogenics.extensions import appell_Q, gck_extension, slice_extension
from monogenics.laurent import LaurentPoly
from monogenics.poly import CliffordPolynomial, OperatorTag, apply_operator, is_monogenic
from monogenics.radon import (
    cauchy_plane_wave_check,
    dual_radon,
    dual_radon_pointwise,
    monomial_plane_wave_check,
    plane_wave_gck_check,
)
from monogenics.scalars import PiScalar
from monogenics.sphere import (
    ExactMonomialRule,
    MonteCarloRule,
    ProductGaussRule,
    funk_hecke_constants,
    monomial_sphere_integral,
    sphere_integrate,
    sphere_moment,
)


def test_monomial_rule_basics():
    for m in range(1, 6):
        assert monomial_sphere_integral(m, (0,) * m) == sphere_area(m)
        odd = (1,) + (0,) * (m - 1)
        assert monomial_sphere_integral(m, odd).is_zero()
    # int w1^2 over S^2 = sigma_3 / 3 = 4 pi / 3
    assert monomial_sphere_integral(3, (2, 0, 0)) == PiScalar.pi_power(2, Fraction(4, 3))


@pytest.mark.parametrize("m", range(1, 7))
def test_rational_moment_is_the_normalized_monomial_rule(m):
    # ties the rational fast path of dual_radon to the rule validated against
    # Monte Carlo: exact equality, odd exponents included
    sigma = sphere_area(m)
    for exps in product(range(11), repeat=m):
        if sum(exps) > 10:
            continue
        moment = sphere_moment(m, exps)
        assert type(moment) is Fraction
        assert monomial_sphere_integral(m, exps) == sigma * moment, exps


def test_rational_moment_rejects_what_the_monomial_rule_rejects():
    for rule in (sphere_moment, monomial_sphere_integral):
        with pytest.raises(ValueError):
            rule(3, (2, 0))
        with pytest.raises(ValueError):
            rule(3, (2, -2, 0))
        with pytest.raises(ValueError):
            rule(2, (1, -1))
    assert sphere_moment(3, (2, 0, 0)) == Fraction(1, 3)
    assert sphere_moment(2, (1, 1)) == 0


def test_monomial_rule_against_monte_carlo():
    rng = random.Random(1)
    for m in (2, 3, 4):
        mc = MonteCarloRule(m, 400_000, seed=100 + m)
        for _ in range(5):
            exps = [0] * m
            for _ in range(rng.randint(0, 6)):
                exps[rng.randrange(m)] += 1
            exact = float(monomial_sphere_integral(m, tuple(exps)).to_complex().real)
            est, se = mc.integrate_monomial(tuple(exps))
            tol = 5 * se if se > 0 else 1e-10
            assert abs(est - exact) <= tol, (m, exps)


def test_monte_carlo_estimate_matches_numpy_mean_and_std():
    n = 50_000
    mc = MonteCarloRule(3, n, seed=4)
    sig = mc.sigma()
    rng = np.random.default_rng(9)
    for values in (rng.standard_normal(n) + 2.0,
                   rng.standard_normal((n, 3)) + np.array([1.0, -3.0, 0.5]),
                   mc.nodes * (mc.nodes[:, 0] + 2.0)[:, None] + 1.0):
        est, se = mc.estimate(values)
        want_est = sig * values.mean(axis=0)
        want_se = sig * values.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.shape(est) == np.shape(want_est) and np.shape(se) == np.shape(want_se)
        assert np.all(np.abs(est - want_est) <= 1e-12 * np.abs(want_est))
        assert np.all(np.abs(se - want_se) <= 1e-12 * want_se)
    # the input is left as it was
    values = rng.standard_normal((n, 3))
    kept = values.copy()
    mc.estimate(values)
    assert np.array_equal(values, kept)
    # constant samples have no spread at all
    for values in (np.full(n, 1.5), np.tile([1.0, -2.0, 0.25], (n, 1))):
        est, se = mc.estimate(values)
        assert np.all(se == 0.0)
        assert np.allclose(est, sig * values[0], rtol=1e-15, atol=0.0)


def test_monte_carlo_monomials_match_the_full_product():
    mc = MonteCarloRule(4, 100_000, seed=21)
    for exps in ((0, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0), (1, 2, 0, 3), (0, 4, 1, 0)):
        vals = np.prod(mc.nodes ** np.asarray(exps), axis=1)
        want_est = mc.sigma() * vals.mean()
        want_se = mc.sigma() * vals.std(ddof=1) / math.sqrt(mc.n)
        est, se = mc.integrate_monomial(exps)
        assert abs(est - want_est) <= 1e-12 * abs(want_est), exps
        assert abs(se - want_se) <= 1e-12 * want_se, exps
    # the constant monomial integrates with a standard error of exactly zero
    est, se = mc.integrate_monomial((0, 0, 0, 0))
    assert se == 0.0 and abs(est - mc.sigma()) < 1e-12
    with pytest.raises(ValueError):
        mc.integrate_monomial((2, 0))


def test_monte_carlo_needs_two_samples():
    for n in (-1, 0, 1):
        with pytest.raises(ValueError):
            MonteCarloRule(2, n, seed=0)
    _, se = MonteCarloRule(2, 2, seed=0).integrate_monomial((1, 0))
    assert math.isfinite(se) and se > 0


def test_product_gauss_matches_exact_rule():
    rng = random.Random(2)
    for m in (2, 3, 4):
        rule = ProductGaussRule(m, 12)
        for _ in range(6):
            exps = [0] * m
            for _ in range(rng.randint(0, 6)):
                exps[rng.randrange(m)] += 1
            exact = float(monomial_sphere_integral(m, tuple(exps)).to_complex().real)
            vals = np.prod(rule.nodes ** np.asarray(exps), axis=1)
            got = float(rule.integrate_scalar(vals))
            assert abs(got - exact) < 1e-12, (m, exps)


def test_sphere_integrate_polynomials():
    m = 3
    rule = ExactMonomialRule(m)
    # int (1 + w1^2) dS with a Clifford coefficient on the quadratic term
    e2 = CliffordElement.generator(m, 2)
    val = sphere_integrate({(0, 0, 0): CliffordElement.one(m), (2, 0, 0): e2}, rule)
    want = CliffordElement.one(m).scale(sphere_area(m)) + e2.scale(
        monomial_sphere_integral(m, (2, 0, 0)))
    assert val == want
    with pytest.raises(TypeError, match="exact monomial rule"):
        sphere_integrate({(0, 0, 0): CliffordElement.one(m)}, ProductGaussRule(m, 4))


def test_funk_hecke_values():
    c0, c1 = funk_hecke_constants(3, 2)
    assert c0 == sphere_area(3) * Fraction(1, 3)
    assert c1.is_zero()
    c0o, c1o = funk_hecke_constants(3, 1)
    assert c0o.is_zero()
    assert c1o == sphere_area(3) * Fraction(1, 3)
    for j in (1, 3, 5):
        assert funk_hecke_constants(4, j)[0].is_zero()


@pytest.mark.parametrize("m", range(1, 7))
def test_funk_hecke_constants_are_sphere_moments(m):
    # at x = e_1 the Funk-Hecke integrals are the moments of w_1^j and w_1^(j+1)
    sigma = sphere_area(m)
    for j in range(9):
        c0, c1 = funk_hecke_constants(m, j)
        want = sigma * sphere_moment(m, (j if j % 2 == 0 else j + 1, *(0,) * (m - 1)))
        assert (c0, c1) == ((want, PiScalar()) if j % 2 == 0 else (PiScalar(), want)), j


def test_funk_hecke_against_monte_carlo():
    for m in (2, 3, 4):
        mc = MonteCarloRule(m, 400_000, seed=31 + m)
        for j in range(0, 7):
            c0, c1 = funk_hecke_constants(m, j)
            if j % 2 == 0:
                est, se = mc.integrate_monomial((j, *(0,) * (m - 1)))
                want = float(c0)
            else:
                est, se = mc.integrate_monomial((j + 1, *(0,) * (m - 1)))
                want = float(c1)
            tol = 5 * se if se > 0 else 1e-10
            assert abs(est - want) <= tol


def test_dual_radon_constant_and_linear():
    for m in (2, 3):
        one = CliffordPolynomial.one(m)
        assert dual_radon(one) == one
        lin = slice_extension(LaurentPoly.monomial(1), m).to_polynomial()
        want = CliffordPolynomial.variable(m, 0) + \
            CliffordPolynomial.vector_variable(m).scale(Fraction(1, m))
        assert dual_radon(lin) == want


@pytest.mark.parametrize("m", [2, 3, 4])
def test_dual_radon_reproduces_axial_extension(m):
    for k in range(0, 7):
        got = dual_radon(slice_extension(LaurentPoly.monomial(k), m).to_polynomial())
        assert got == appell_Q(m, k)
        assert is_monogenic(got)


@pytest.mark.parametrize("m", range(2, 7))
def test_dual_radon_is_exact_over_q(m):
    # exactness by type: a rational slice polynomial has a rational image,
    # with no PiScalar and no float left over from the sphere moments
    for k in range(5):
        image = dual_radon(slice_extension(LaurentPoly.monomial(k), m).to_polynomial())
        assert all(type(c) is Fraction
                   for element in image.terms.values() for c in element.coeffs.values())
        assert image == appell_Q(m, k)


def test_dual_radon_sends_slice_to_axial_monogenic():
    m = 3
    f0 = LaurentPoly({4: Fraction(1), 1: Fraction(-3), 0: Fraction(2)})
    image = dual_radon(slice_extension(f0, m).to_polynomial())
    assert apply_operator(OperatorTag.D, image).is_zero()


def test_plane_wave_exact_and_gauss():
    f0 = LaurentPoly({3: Fraction(2), 1: Fraction(-1)})
    for m in (2, 3):
        rep = plane_wave_gck_check(f0, m, ExactMonomialRule(m))
        assert rep.exact and rep.residual == 0.0
        repg = plane_wave_gck_check(f0, m, ProductGaussRule(m, 16))
        assert repg.residual < 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_dual_radon_pointwise_matches_exact_transform(m):
    # Clifford-valued coefficients act from the right of the plane wave; the
    # points have <x,w> < 0 on half the nodes, and x0 of both signs
    e1, e2 = CliffordElement.generator(m, 1), CliffordElement.generator(m, 2)
    f0 = LaurentPoly({0: Fraction(2), 1: e1, 2: e1 * e2 - e2.scale(Fraction(1, 3)),
                      4: CliffordElement.one(m) + e2})
    rule = ProductGaussRule(m, 16)
    exact = dual_radon(slice_extension(f0, m).to_polynomial())
    for x0, xv in ((0.8, (-0.3, 0.2, -0.1)), (-0.5, (-0.25, -0.4, 0.15))):
        xv = xv[:m]
        got = dual_radon_pointwise(slice_extension(f0, m), rule, x0, xv)
        assert (got - exact.evaluate(x0, xv)).norm_inf() < 1e-12


def test_plane_wave_monte_carlo():
    rep = plane_wave_gck_check(LaurentPoly.monomial(3), 2,
                               MonteCarloRule(2, 100_000, seed=7),
                               point=(1.0, (0.3, 0.4)))
    assert rep.stderr is not None
    assert rep.residual < max(3e-2, 5 * rep.stderr)


def _plane_wave_mc_power_loop(f0, m, rule, point):
    """Residual and standard error of the Monte Carlo plane-wave check with
    f0(z) summed term by term from complex powers, reduced by np.mean and
    np.std(ddof=1), and the size of the estimates they came from."""
    x0, xv = point
    z = x0 + 1j * (rule.nodes @ np.asarray(xv, dtype=float))
    vals = np.zeros_like(z)
    for n, c in f0.terms.items():
        vals = vals + complex(c) * z**n
    samples = np.column_stack([vals.real, rule.nodes * vals.imag[:, None]])
    means = samples.mean(axis=0)
    ses = samples.std(axis=0, ddof=1) / math.sqrt(rule.n)
    rhs = gck_extension(f0, m).to_polynomial().evaluate(x0, xv).to_numeric()
    want = [complex(rhs.scalar_part()).real,
            *(complex(c).real for c in rhs.vector_components())]
    return max(abs(means - want)), max(ses), max(abs(means))


def test_plane_wave_monte_carlo_matches_power_loop():
    cases = [
        (3, LaurentPoly({0: Fraction(3), 1: Fraction(-2), 2: Fraction(5),
                         3: Fraction(-7), 4: Fraction(1)}), (0.65, (0.3, -0.2, 0.4))),
        (4, LaurentPoly({1: Fraction(1, 2), 3: Fraction(-4), 6: Fraction(2)}),
         (-0.9, (0.1, 0.25, -0.3, 0.2))),
        (2, LaurentPoly({2: Fraction(-3)}), (0.3, (0.5, -0.6))),
    ]
    for m, f0, point in cases:
        rule = MonteCarloRule(m, 200_000, seed=60 + m)
        rep = plane_wave_gck_check(f0, m, rule, point)
        residual, se, scale = _plane_wave_mc_power_loop(f0, m, rule, point)
        assert abs(rep.stderr - se) <= 1e-13 * se, m
        # the residual is a difference of the estimates and the closed form,
        # so its agreement is measured against the size of the estimates
        assert abs(rep.residual - residual) <= 1e-13 * scale, m
    # a constant has no spread, and Horner with no step is the constant
    rep = plane_wave_gck_check(LaurentPoly({0: Fraction(3)}), 3,
                               MonteCarloRule(3, 1000, seed=1), (0.5, (0.1, 0.2, 0.3)))
    assert rep.stderr == 0.0 and rep.residual < 1e-14


def test_cauchy_plane_wave_quadrature():
    assert cauchy_plane_wave_check(3, (1.0, 0.2, 0.1, 0.0), ProductGaussRule(3, 20)) < 1e-8
    assert cauchy_plane_wave_check(2, (-1.0, 0.1, 0.1), ProductGaussRule(2, 24)) < 1e-6


# the corner |x0| = 0.3, r = 0.8 of the box the numeric routes are checked on
CAUCHY_CORNER = (0.3, 0.8, 0.0, 0.0)


@pytest.mark.xfail(strict=True, reason="level 24 leaves about 5.2e-6 at |x0| = 0.3, r = 0.8; "
                   "the 1e-6 tolerance needs a finer rule there (level 48 below)")
def test_cauchy_plane_wave_level_24_at_corner():
    assert cauchy_plane_wave_check(3, CAUCHY_CORNER, ProductGaussRule(3, 24)) < 1e-6


def test_cauchy_plane_wave_level_48_at_corner():
    assert cauchy_plane_wave_check(3, CAUCHY_CORNER, ProductGaussRule(3, 48)) < 1e-6


def test_cauchy_plane_wave_m1_two_point_average():
    # S^0 = {1, -1}: the average can be written out by hand
    m = 1
    x0, x1 = 1.0, 0.3
    z1 = complex(x0, x1) ** (-1)
    z2 = complex(x0, -x1) ** (-1)
    avg_s = (z1.real + z2.real) / 2
    avg_v = (z1.imag - z2.imag) / 2
    const = 1.0 / float(sphere_area(2))  # sigma_1 = 2 cancels in the average
    want = CliffordElement(1, {0: const * avg_s, 1: const * avg_v})
    from monogenics.kernels import cauchy_kernel

    got = cauchy_kernel(1).evaluate(x0, [x1]).to_numeric()
    assert (got - want).norm_inf() < 1e-15
    assert cauchy_plane_wave_check(1, (x0, x1), ProductGaussRule(1, 4)) < 1e-14


def test_monomial_plane_wave():
    assert monomial_plane_wave_check(3, 2, (1.0, 0.15, 0.1, 0.05),
                                     ProductGaussRule(3, 20)) < 1e-8
    assert monomial_plane_wave_check(2, 3, (-1.0, 0.1, 0.05),
                                     ProductGaussRule(2, 28)) < 1e-6


def test_full_radon_diagram_on_polynomials():
    # iterated-Laplacian route = gamma * axial of the derivative
    #                          = gamma * sphere average of the derivative's slice extension
    from monogenics.extensions import gck_extension
    from monogenics.fueter import laplacian_power_route

    for m in (3, 5):
        f0 = LaurentPoly({5: Fraction(1), 2: Fraction(4)})
        gamma = constants(m).gamma
        left = laplacian_power_route(m, f0)
        mid = gck_extension(f0.derivative(m - 1), m).to_polynomial().scale(gamma)
        right = dual_radon(
            slice_extension(f0.derivative(m - 1), m).to_polynomial()).scale(gamma)
        assert left == mid == right
    for m in (2, 4):
        f0 = LaurentPoly({4: Fraction(3)})
        gamma = constants(m).gamma
        mid = gck_extension(f0.derivative(m - 1), m).to_polynomial().scale(gamma)
        right = dual_radon(
            slice_extension(f0.derivative(m - 1), m).to_polynomial()).scale(gamma)
        assert mid == right


def test_dual_radon_right_module_structure():
    m = 3
    e1 = CliffordElement.generator(m, 1)
    f0 = LaurentPoly({1: e1})
    sp = slice_extension(f0, m).to_polynomial()
    rad = dual_radon(sp)
    assert rad == appell_Q(m, 1).right_mul_element(e1)
    assert is_monogenic(rad)
