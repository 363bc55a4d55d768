import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from monogenics import radon
from monogenics.clifford import CliffordElement
from monogenics.constants import constants, sphere_area
from monogenics.extensions import appell_Q, gck_extension, slice_extension
from monogenics.laurent import LaurentPoly
from monogenics.poly import CliffordPolynomial, OperatorTag, apply_operator, is_monogenic
from monogenics.radon import (
    cauchy_plane_wave_check,
    dual_radon,
    monomial_plane_wave_check,
    plane_wave_gck_check,
)
from monogenics.scalars import PiScalar, sphere_moment, to_complex
from monogenics.sphere import (
    _MC_BLOCK,
    ExactMonomialRule,
    MonteCarloRule,
    NodeRule,
    ProductGaussRule,
    funk_hecke_constants,
    monomial_sphere_integral,
    product_rule_size,
    _even_odd,
    _gauss_gegenbauer,
    _node_moments,
    _pairwise,
    _wave_moments,
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
                   mc.nodes * (mc.nodes[:, 0] + 2.0)[:, None] + 1.0,
                   # complex samples spread by their modulus, as in np.std
                   rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)) - 0.5j):
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


# two nodes, less than one block of 2^14 nodes, and three blocks and a rest
BLOCKED_SIZES = (2, 1000, 3 * 2**14 + 5)


def _close(got, want, rel=1e-13):
    want = np.asarray(want)
    return np.shape(got) == want.shape and np.all(np.abs(got - want) <= rel * np.abs(want).max())


@pytest.mark.parametrize("n", BLOCKED_SIZES)
def test_blocked_monte_carlo_matches_the_unblocked_reduction(n):
    # reference: np.mean and np.std(ddof=1) over all nodes of the broadcast
    # product w beta, formed whole as the reduction never does
    x0 = 0.4

    def on_z(values):
        # the split of the signed radius t, through z = x0 + i t
        return lambda t: values(x0 + 1j * t)

    for m, split in ((3, on_z(lambda z: (z**3 - 2.0, (z**2 + z).imag))),
                     (4, on_z(lambda z: ((z + 1.5) ** 2 * np.ones(2),
                                         1j * z**3 * np.array([1.0, -0.5]))))):
        rule = MonteCarloRule(m, n, seed=n + m)
        xv = np.linspace(-0.3, 0.35, m)
        alpha, beta = split((rule.nodes @ xv)[:, None])
        wbeta = beta[:, :, None] * rule.nodes[:, None, :]
        want_se = max(np.std(alpha, axis=0, ddof=1).max(),
                      np.std(wbeta, axis=0, ddof=1).max()) / math.sqrt(n)
        a, v, se = rule.plane_wave_mean(xv, split)
        assert _close(a, np.mean(alpha, axis=0)), (n, m)
        assert _close(v, np.mean(wbeta, axis=0)), (n, m)
        assert abs(se - want_se) <= 1e-13 * want_se, (n, m)
        sig = rule.sigma()
        est, ses = rule.estimate(wbeta)
        assert _close(est, sig * np.mean(wbeta, axis=0)), (n, m)
        assert _close(ses, sig * np.std(wbeta, axis=0, ddof=1) / math.sqrt(n)), (n, m)


def test_monte_carlo_workspace_changes_no_value():
    # three blocks and a rest, and a complex Clifford-valued f0 with several
    # channels: every block the reductions and the split write into their
    # reused buffers must reduce as fresh arrays of its own do, so a block
    # overwritten before it is reduced shows
    m, n = 3, 3 * _MC_BLOCK + 5
    rule = MonteCarloRule(m, n, seed=9)
    cols = rule.nodes.T
    f0 = LaurentPoly({0: CliffordElement(m, {0b011: 1 - 2j}),
                      1: CliffordElement(m, {0: 0.5, 0b101: 2j}),
                      3: CliffordElement(m, {0b110: -1.5 + 0.25j, 0b111: 3.0})})
    splits = []

    class Recording:
        def plane_wave_mean(self, xv, split):
            splits.append(split)
            return rule.plane_wave_mean(xv, split)

    x0, xv = 0.6, np.array([0.2, -0.35, 0.1])
    radon._slice_plane_wave(f0, m, Recording(), x0, xv)
    (split,) = splits

    def fresh_parts():
        # a new split, so new buffers, and a new workspace for every block
        for s in range(0, n, _MC_BLOCK):
            w = cols[:, s:s + _MC_BLOCK]
            alpha, beta = _recorded_split(f0, m, x0)((xv @ w)[:, None])
            yield _wave_moments(w, alpha, beta, {})

    mean, m2 = _pairwise(list(fresh_parts()))
    k = len(mean) // (m + 1)
    assert k == 7
    a, v, se = rule.plane_wave_mean(xv, split)
    assert np.array_equal(a, mean[:k]) and np.array_equal(v, mean[k:].reshape(k, m))
    assert se == rule._spread(m2).max()

    for exps in ((2, 0, 1), (0, 3, 4), (1, 1, 1), (0, 0, 0)):
        def fresh_products():
            for s in range(0, n, _MC_BLOCK):
                vals = np.ones(min(_MC_BLOCK, n - s))
                for j, e in enumerate(exps):
                    if e:
                        vals = vals * cols[j, s:s + _MC_BLOCK] ** e
                yield vals[None, :]

        mean, m2 = _node_moments(fresh_products())
        got = rule.integrate_monomial(exps)
        assert got == (rule.sigma() * mean[0], rule.sigma() * rule._spread(m2)[0]), exps
        # and the product over all n nodes at once, reduced by ``estimate``
        assert got == NodeRule.integrate_monomial(rule, exps), exps


def test_blocked_monte_carlo_constant_data_has_no_spread():
    n = BLOCKED_SIZES[-1]
    rule = MonteCarloRule(3, n, seed=5)
    values = np.tile([1.0, -2.0, 0.25], (n, 1))
    est, se = rule.estimate(values)
    assert np.all(se == 0.0) and np.all(est == rule.sigma() * values[0])
    a, v, se = rule.plane_wave_mean((0.1, 0.2, 0.3),
                                    lambda t: (np.full((len(t), 2), 3.0), np.zeros((len(t), 2))))
    assert se == 0.0 and np.all(a == 3.0) and np.all(v == 0.0)


# one node short of a block, one over, and three blocks and a rest
WAVE_SIZES = (2, _MC_BLOCK - 1, _MC_BLOCK + 1, 3 * _MC_BLOCK + 5)


@pytest.mark.parametrize("n", WAVE_SIZES)
@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("dtype", [float, complex])
def test_monte_carlo_plane_wave_matches_the_materialized_rows(n, k, dtype):
    # reference: the rows of alpha and w beta over all n nodes, reduced by
    # np.mean and np.std(ddof=1); the rule takes w beta's moments in one pass
    m, x0, xv = 3, 0.4, np.array([0.3, -0.2, 0.25])
    scale = np.random.default_rng(k).normal(size=(2, k, 2)) @ [1.0, 1j if dtype is complex else 0.0]

    def split(t):
        z = x0 + 1j * t
        return (z**3 - 2.0).real * scale[0], (z**2 + z).imag * scale[1]

    rule = MonteCarloRule(m, n, seed=n + k)
    alpha, beta = split((rule.nodes @ xv)[:, None])
    wbeta = beta[:, :, None] * rule.nodes[:, None, :]
    want_se = max(np.std(alpha, axis=0, ddof=1).max(),
                  np.std(wbeta, axis=0, ddof=1).max()) / math.sqrt(n)
    a, v, se = rule.plane_wave_mean(xv, split)
    assert a.dtype == v.dtype == np.dtype(dtype)
    assert _close(a, np.mean(alpha, axis=0)) and _close(v, np.mean(wbeta, axis=0))
    assert abs(se - want_se) <= 1e-13 * want_se


@pytest.mark.parametrize("n", WAVE_SIZES)
@pytest.mark.parametrize("dtype", [float, complex])
def test_monte_carlo_plane_wave_of_constant_alpha_and_zero_beta_has_no_spread(n, dtype):
    # dyadic constants: every block mean is exact, so every M2 is 0 exactly
    const = np.array([3.0, -2.0, 0.25, 1e3, -0.5, 7.0, 1.0], dtype)
    if dtype is complex:
        const[::2] += [0.5j, -2j, 0.125j, 1j]
    rule = MonteCarloRule(3, n, seed=5)
    a, v, se = rule.plane_wave_mean(
        (0.1, 0.2, 0.3), lambda t: (np.tile(const, (len(t), 1)), np.zeros((len(t), 7), dtype)))
    assert se == 0.0 and np.array_equal(a, const) and np.all(v == 0.0)


@pytest.mark.parametrize("n", WAVE_SIZES[2:])
def test_monte_carlo_plane_wave_of_constant_w_beta_has_no_negative_spread(n):
    # on S^0 both nodes w = +-1 give w beta(<x,w>) = c x for beta = c t, so
    # each block's S2 - S1 mean is rounding of either sign; unclamped, some
    # M2 is negative and the standard error a NaN
    rule = MonteCarloRule(1, n, seed=3)
    for c in (0.1, 1 / 3, 0.7, 1.1):
        a, v, se = rule.plane_wave_mean((0.6,), lambda t: (np.full((len(t), 1), 2.0), c * t))
        assert np.all(a == 2.0) and abs(v[0, 0] - c * 0.6) <= 1e-13 * c
        assert 0.0 <= se <= 1e-9, c


@pytest.mark.parametrize("n", BLOCKED_SIZES)
def test_monte_carlo_nodes_are_the_row_major_draw_stored_by_component(n):
    m, seed = 4, 12
    v = np.random.default_rng(seed).standard_normal((n, m))
    rule = MonteCarloRule(m, n, seed)
    assert np.array_equal(rule.nodes, v / np.linalg.norm(v, axis=1, keepdims=True))
    assert rule.nodes.shape == (n, m) and rule.nodes.T.flags.c_contiguous
    # estimate reads its input and leaves it as it was, across blocks
    values = np.random.default_rng(1).standard_normal((n, 2, 3)) * (1 + 2j)
    kept = values.copy()
    rule.estimate(values)
    assert np.array_equal(values, kept)


def test_product_gauss_matches_exact_rule():
    rng = random.Random(2)
    for m in (2, 3, 4):
        rule = ProductGaussRule(m, 12)
        for _ in range(6):
            exps = [0] * m
            for _ in range(rng.randint(0, 6)):
                exps[rng.randrange(m)] += 1
            exact = float(monomial_sphere_integral(m, tuple(exps)).to_complex().real)
            got, se = rule.integrate_monomial(tuple(exps))
            assert se is None
            assert abs(got - exact) < 1e-12, (m, exps)


def test_numeric_rules_are_node_rules():
    m = 3
    gauss, mc = ProductGaussRule(m, 6), MonteCarloRule(m, 5000, seed=2)
    for rule, kind, label in ((gauss, "gauss", "gauss:6"), (mc, "mc", "mc:5000:2")):
        assert isinstance(rule, NodeRule)
        assert (rule.m, rule.kind, rule.label) == (m, kind, label)
        assert rule.nodes.shape == (len(rule.weights), m)
        assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, rtol=0, atol=1e-15)
    # a deterministic rule reports no standard error; the weights of Gauss
    # sum to its sigma, Monte Carlo keeps sigma_m exactly
    vals = np.ones((len(gauss.nodes), 2))
    est, se = gauss.estimate(vals)
    assert se is None and est.shape == (2,)
    assert np.allclose(est, gauss.sigma(), rtol=1e-15, atol=0)
    assert gauss.sigma() == float(gauss.weights.sum())
    assert abs(gauss.sigma() - float(sphere_area(m))) < 1e-13
    assert mc.sigma() == float(sphere_area(m))
    # equal Monte Carlo weights are one read-only value, not n of them
    assert mc.weights.shape == (5000,) and mc.weights.strides == (0,)
    assert not mc.weights.flags.writeable
    assert mc.weights[0] == mc.sigma() / 5000
    with pytest.raises(ValueError):
        gauss.integrate_monomial((2, 0))


def test_product_rule_size_counts_the_built_nodes():
    for m in range(1, 6):
        for level in range(1, 5):
            rule = ProductGaussRule(m, level)
            assert product_rule_size(m, level) == len(rule.nodes) == len(rule.weights), (m, level)


def _full_product_rule(m, level):
    """The product rule built with every node of each pair, polar cosine by
    polar cosine and the circle over [0, 2 pi)."""
    if m == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if m == 2:
        n = product_rule_size(2, level)
        theta = 2.0 * np.pi * np.arange(n) / n
        return np.stack([np.cos(theta), np.sin(theta)], axis=1), np.full(n, 2.0 * np.pi / n)
    sub_nodes, sub_weights = _full_product_rule(m - 1, level)
    u, wu = _gauss_gegenbauer(level, (m - 3) / 2.0)
    s = np.sqrt(1.0 - u**2)
    nodes = np.concatenate([np.column_stack([np.full(len(sub_nodes), ui), si * sub_nodes])
                            for ui, si in zip(u, s)])
    return nodes, np.concatenate([wi * sub_weights for wi in wu])


def _sorted_rule(nodes, weights):
    # ordered by the coordinates rounded far above the rounding of either build
    order = np.lexsort(np.round(nodes, 9).T[::-1])
    return nodes[order], weights[order]


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("level", [1, 2, 3, 4, 7, 8])
def test_product_rule_is_antipodal_pairs_of_the_full_rule(m, level):
    rule = ProductGaussRule(m, level)
    h = len(rule.weights) // 2
    assert 2 * h == len(rule.nodes) == product_rule_size(m, level)
    # the second half is the antipodes of the first, bit for bit
    assert np.array_equal(rule.nodes[h:], -rule.nodes[:h])
    assert np.array_equal(rule.weights[h:], rule.weights[:h])
    nodes, weights = _sorted_rule(rule.nodes, rule.weights)
    full_nodes, full_weights = _sorted_rule(*_full_product_rule(m, level))
    # the full build's circle angles run up to 2 pi and are rounded there
    assert np.abs(nodes - full_nodes).max() <= 4 * np.spacing(2 * np.pi)
    assert np.all(np.abs(weights - full_weights) <= 4 * np.spacing(full_weights))
    assert rule.sigma() == pytest.approx(float(sphere_area(m)), rel=1e-14)


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


def _complex_data():
    i = PiScalar.imaginary(1)
    return LaurentPoly({0: Fraction(1, 2) * i, 1: Fraction(2) - 3 * i, 3: i})


def _clifford_data(m):
    # Clifford-valued coefficients with complex blade coefficients
    e1, e2 = CliffordElement.generator(m, 1), CliffordElement.generator(m, 2)
    return LaurentPoly({0: Fraction(2), 1: e1, 2: e1 * e2 - e2.scale(Fraction(1, 3)),
                        4: CliffordElement.one(m) + e2.scale(PiScalar.imaginary(1))})


def test_plane_wave_exact_and_gauss():
    for m in (2, 3):
        for f0 in (LaurentPoly({3: Fraction(2), 1: Fraction(-1)}), _complex_data(),
                   _clifford_data(m)):
            rep = plane_wave_gck_check(f0, m, ExactMonomialRule(m))
            assert rep.exact and rep.residual == 0.0
            repg = plane_wave_gck_check(f0, m, ProductGaussRule(m, 16))
            assert repg.stderr is None and repg.residual < 1e-12 and not repg.exact


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
        got = radon._slice_plane_wave(f0, m, rule, x0, xv)[0]
        assert (got - exact.evaluate(x0, xv)).norm_inf() < 1e-12


def test_plane_wave_monte_carlo():
    rep = plane_wave_gck_check(LaurentPoly.monomial(3), 2,
                               MonteCarloRule(2, 100_000, seed=7),
                               point=(1.0, (0.3, 0.4)))
    assert rep.stderr is not None
    assert rep.residual < max(3e-2, 5 * rep.stderr)


def _plane_wave_mc_power_loop(f0, m, rule, point):
    """Residual and standard error of the Monte Carlo plane-wave check with
    the slice value c (Re z^n + w Im z^n) of each term c x^n written out on
    the blades from complex powers, real and imaginary parts reduced by
    np.mean and np.std(ddof=1), and the size of the estimates they came from."""
    x0, xv = point
    z = x0 + 1j * (rule.nodes @ np.asarray(xv, dtype=float))
    blades = {}
    for n, c in f0.terms.items():
        zn = z**n
        c = c if isinstance(c, CliffordElement) else CliffordElement.scalar(m, c)
        for mask, cb in c.coeffs.items():
            cb = complex(cb)
            blades[mask] = blades.get(mask, 0) + cb * zn.real
            for j in range(m):
                (pmask, sign), = (CliffordElement.generator(m, j + 1)
                                  * CliffordElement(m, {mask: Fraction(1)})).coeffs.items()
                blades[pmask] = blades.get(pmask, 0) + float(sign) * cb * rule.nodes[:, j] * zn.imag
    rhs = gck_extension(f0, m).to_polynomial().evaluate(x0, xv).to_numeric()
    residual, ses, scale = 0.0, [0.0], 0.0
    for mask in set(blades) | set(rhs.coeffs):
        samples = blades.get(mask, np.zeros(rule.n, dtype=complex))
        mean = complex(samples.real.mean(), samples.imag.mean())
        residual = max(residual, abs(mean - complex(rhs.coeffs.get(mask, 0))))
        ses += [samples.real.std(ddof=1) / math.sqrt(rule.n),
                samples.imag.std(ddof=1) / math.sqrt(rule.n)]
        scale = max(scale, abs(mean))
    return residual, max(ses), scale


def test_plane_wave_monte_carlo_matches_power_loop():
    cases = [
        (3, LaurentPoly({0: Fraction(3), 1: Fraction(-2), 2: Fraction(5),
                         3: Fraction(-7), 4: Fraction(1)}), (0.65, (0.3, -0.2, 0.4))),
        (4, LaurentPoly({1: Fraction(1, 2), 3: Fraction(-4), 6: Fraction(2)}),
         (-0.9, (0.1, 0.25, -0.3, 0.2))),
        (2, LaurentPoly({2: Fraction(-3)}), (0.3, (0.5, -0.6))),
        (3, _complex_data(), (0.65, (0.3, -0.2, 0.4))),
        (3, _clifford_data(3), (-0.5, (-0.25, -0.4, 0.15))),
    ]
    for m, f0, point in cases:
        rule = MonteCarloRule(m, 200_000, seed=60 + m)
        rep = plane_wave_gck_check(f0, m, rule, point)
        residual, se, scale = _plane_wave_mc_power_loop(f0, m, rule, point)
        if all(not isinstance(c, CliffordElement) for c in f0.terms.values()):
            # scalar data: each real and imaginary part of a blade is one
            # channel of the rule, so the standard errors are the same
            assert abs(rep.stderr - se) <= 1e-13 * se, m
        assert 0.0 < rep.stderr < math.inf
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
    assert rad == appell_Q(m, 1).scale(e1)
    assert is_monogenic(rad)


def _recorded_split(f0, m, x0):
    """The split that ``_slice_plane_wave`` hands its rule at x0."""
    splits = []

    class Recording:
        def plane_wave_mean(self, xv, split):
            splits.append(split)
            return ProductGaussRule(m, 4).plane_wave_mean(xv, split)

    radon._slice_plane_wave(f0, m, Recording(), x0, (0.1,) * m)
    return splits[0]


def _direct_channels(f0, z):
    """Each channel's value at z, in the slice path's order: for blade A and
    real or imaginary part, the Laurent polynomial of those parts of f0's
    coefficients, evaluated at the complex z by powers."""
    channels = {(0, False): 0j}
    for k, c in f0.terms.items():
        for mask, b in (c.coeffs if isinstance(c, CliffordElement) else {0: c}).items():
            b = to_complex(b)
            for imag, part in ((False, b.real), (True, b.imag)):
                if part:
                    channels[mask, imag] = channels.get((mask, imag), 0j) + part * z**k
    return np.stack([np.broadcast_to(channels[key], z.shape) for key in sorted(channels)], axis=-1)


def test_slice_plane_wave_split_matches_direct_evaluation():
    i = PiScalar.imaginary(1)
    e1, e2 = CliffordElement.generator(3, 1), CliffordElement.generator(3, 2)
    data = [
        LaurentPoly({-3: Fraction(2) - 3 * i, -1: Fraction(1, 2), 0: Fraction(1), 2: -i,
                     4: Fraction(3, 2)}),
        LaurentPoly({-2: e1 * e2 - e2.scale(Fraction(1, 3)), -1: e1, 0: Fraction(2),
                     3: CliffordElement.one(3) + e2.scale(i)}),
        LaurentPoly.monomial(-3),
        _clifford_data(3),
    ]
    t = (ProductGaussRule(3, 8).nodes @ np.array([0.3, -0.25, 0.2]))[:, None]
    for f0 in data:
        for x0 in (0.8, -0.55):
            alpha, beta = _recorded_split(f0, 3, x0)(t)
            want = _direct_channels(f0, x0 + 1j * t[:, 0])
            size = np.abs(want).max()
            assert alpha.shape == beta.shape == want.shape
            assert np.all(np.abs(alpha - want.real) <= 1e-12 * size)
            assert np.all(np.abs(beta - want.imag) <= 1e-12 * size)
            # the real part is even and the imaginary part odd in t, to the last bit
            minus_alpha, minus_beta = _recorded_split(f0, 3, x0)(-t)
            assert np.array_equal(minus_alpha, alpha) and np.array_equal(minus_beta, -beta)


def test_slice_plane_wave_refuses_negative_powers_through_the_origin():
    # at x0 = 0 the node (1, 0) of the circle rule has t = <x,w> = 0 exactly
    with pytest.raises(ZeroDivisionError):
        radon._slice_plane_wave(LaurentPoly.monomial(-1), 2, ProductGaussRule(2, 4), 0.0, (0.0, 1.0))
    mean, _ = radon._slice_plane_wave(LaurentPoly.monomial(2), 2, ProductGaussRule(2, 4), 0.0,
                                      (0.0, 1.0))
    assert math.isfinite(mean.norm_inf())


def _paired_rule_splits(m):
    """Both kinds of split: the CST slice split of smoothed Hermite functions
    and their derivatives and of complex data, and the slice path's split of
    complex, Clifford and negative-power data."""
    from functools import partial

    from monogenics.cst import _slice_split
    from monogenics.gausspoly import GaussPoly, hermite_function

    i = PiScalar.imaginary(1)
    smooth = [hermite_function(n).heat() for n in range(4)]
    smooth += [F.derivatives(m - 1)[-1] for F in smooth]
    smooth.append(GaussPoly(0.4, 0.3 - 0.5j, [1 + 0.5j, -0.2j, 0.3 + 0j, 0.1j], 0.7 + 0.2j).heat())
    data = [_complex_data(), LaurentPoly({-2: Fraction(2) - 3 * i, -1: Fraction(1, 2), 0: Fraction(1),
                                          3: -i})]
    if m >= 2:
        e1, e2 = CliffordElement.generator(m, 1), CliffordElement.generator(m, 2)
        data += [_clifford_data(m), LaurentPoly({-1: e1 - e2.scale(i), 2: e1 * e2})]
    for x0 in (0.7, -0.4):
        yield from (partial(_slice_split, F, x0) for F in smooth)
        yield from (_recorded_split(f0, m, x0) for f0 in data)


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("level", [7, 24])
def test_product_rule_plane_wave_mean_equals_the_sum_over_every_node(m, level):
    # the product rule splits and sums one node of each pair, doubled; a
    # plain NodeRule over the same nodes sums them all
    rule = ProductGaussRule(m, level)
    every = NodeRule(m, rule.nodes, rule.weights, "every node")
    xv = (0.45, -0.3, 0.2, 0.25)[:m]
    for split in _paired_rule_splits(m):
        a, v, se = rule.plane_wave_mean(xv, split)
        want_a, want_v, _ = every.plane_wave_mean(xv, split)
        size = max(np.abs(want_a).max(), np.abs(want_v).max())
        assert se is None and a.shape == want_a.shape and v.shape == want_v.shape
        assert np.abs(a - want_a).max() <= 1e-14 * size
        assert np.abs(v - want_v).max() <= 1e-14 * size


def _even_odd_from_zero(q, t):
    """Horner for both halves from zero, as the slice paths first ran it."""
    u = -t * t
    shape, dtype = np.broadcast(u, q[0]).shape, np.result_type(u, q)
    even, odd = np.zeros(shape, dtype), np.zeros(shape, dtype)
    for acc, half in ((even, q[0::2]), (odd, q[1::2])):
        for c in half[::-1]:
            acc *= u
            acc += c
    odd *= t
    return even, odd


def test_even_odd_from_the_top_coefficient_is_bit_identical():
    rng = np.random.default_rng(22)
    column = np.concatenate([rng.normal(size=40), [0.0, -0.0, 1.0, -1.0]])[:, None]
    for degree in range(9):
        for dtype in (float, complex):
            channels = rng.normal(size=(degree + 1, 3, 2)).view(complex)[..., 0] \
                if dtype is complex else rng.normal(size=(degree + 1, 3))
            gram = channels[:, :, None]   # against a row of t, as on the Gram grid
            for q, t in ((channels, column), (channels, 0.7), (channels, -0.0),
                         (channels[:, 0], column[:, 0]), (gram, column[:, 0])):
                for got, want in zip(_even_odd(q, t), _even_odd_from_zero(q, t)):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (degree, dtype, np.shape(t))


def _even_odd_in_minus_t_squared(q, t):
    """Horner in u = -t^2 from the top coefficient of each half, as the
    slice paths ran it before the signs of i^k went into the coefficients."""
    u = -t * t
    shape, dtype = np.broadcast(u, q[0]).shape, np.result_type(u, q)
    even, odd = (np.full(shape, h[-1] if len(h) else 0, dtype) for h in (q[0::2], q[1::2]))
    for acc, half in ((even, q[0::2]), (odd, q[1::2])):
        for c in half[-2::-1]:
            acc *= u
            acc += c
    odd *= t
    return even, odd


def _same_bits(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got, want))


def test_even_odd_in_t_squared_is_bit_identical_to_horner_in_minus_t_squared():
    rng = np.random.default_rng(29)
    column = np.concatenate([rng.normal(size=40), [0.0, -0.0, 1.0, -1.0]])[:, None]
    for degree in range(9):   # degree 0: an empty odd half
        for dtype in (float, complex):
            q = rng.normal(size=(degree + 1, 3, 2)) @ [1.0, 1j if dtype is complex else 0.0]
            # the slice path's nodes x channels, one point, and the Gram grid
            # of the CST splits: a column of x0 (in q) against a row of radii
            for q_, t in ((q, column), (q[:, 0], 0.7), (q[:, 0], -0.0), (q[:, :, None], column[:, 0])):
                want = _even_odd_in_minus_t_squared(q_, t)
                assert _same_bits(_even_odd(q_, t), want), (degree, dtype, np.shape(t))
            # buffers kept across calls, the last block shorter than the first
            work = {}
            first = _even_odd(q, column, work)
            assert _same_bits(first, _even_odd_in_minus_t_squared(q, column))
            last = _even_odd(q, column[:7], work)
            assert _same_bits(last, _even_odd_in_minus_t_squared(q, column[:7]))
            assert all(np.shares_memory(a, b) for a, b in zip(first, last))
            assert _same_bits(_even_odd(q, column, work), _even_odd_in_minus_t_squared(q, column))
