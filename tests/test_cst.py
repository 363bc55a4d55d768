import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from monogenics.clifford import CliffordElement
from monogenics.cst import (
    DEFAULT_QUAD_LEVELS,
    MeasureDvm,
    TruncationError,
    _axial_from_smooth,
    _legendre_grid,
    axial_cst,
    axial_cst_radon_route,
    classical_cst,
    fueter_cst,
    fueter_cst_routes,
    heat_semigroup,
    slice_cst,
    slice_cst_fourier,
    unitarity_check,
)
from monogenics.extensions import gck_denominator
from monogenics.gausspoly import GaussPoly, hermite_function
from monogenics.sphere import ProductGaussRule

HERMITES = [hermite_function(n) for n in range(4)]
POINTS = [(0.7, 0.5), (0.3, 0.8), (-0.6, 0.4)]


def test_classical_cst_of_gaussian():
    f = GaussPoly.gaussian(Fraction(1, 2))
    for z in (0.4 + 0.0j, 0.5 + 0.3j, -1.0 + 0.8j):
        want = cmath.exp(-z * z / 4) / math.sqrt(2)
        assert abs(classical_cst(f, z) - want) < 1e-14


def test_classical_cst_restricts_to_heat():
    f = HERMITES[2]
    h = heat_semigroup(f)
    for x0 in (0.0, 1.1, -0.4):
        assert abs(classical_cst(f, complex(x0)) - complex(h.evaluate(x0))) < 1e-14


def test_classical_cst_real_linear_over_coefficients():
    f = GaussPoly.exact(Fraction(1, 2), [1, 2])
    g = GaussPoly.exact(Fraction(1, 2), [0, 1, -1])
    combined = GaussPoly.exact(Fraction(1, 2), [1, 3, -1])
    z = 0.3 + 0.2j
    assert abs(classical_cst(f, z) + classical_cst(g, z) - classical_cst(combined, z)) < 1e-14


def test_slice_cst_axis_restriction_and_parity():
    f = HERMITES[1]
    h = heat_semigroup(f)
    for x0 in (0.0, 0.9, -1.3):
        sv = slice_cst(f, x0, 0.0)
        assert abs(sv.alpha - complex(h.evaluate(x0))) < 1e-14
        assert sv.beta == 0
    for x0, r in POINTS:
        plus = slice_cst(f, x0, r)
        # beta is odd under r -> -r: compare against the split at -r
        from monogenics.cst import _entire_split

        minus = _entire_split(heat_semigroup(f), x0, -r)
        assert abs(plus.beta + minus.beta) < 1e-10
        assert abs(plus.alpha - minus.alpha) < 1e-10


def test_slice_cst_two_routes():
    for f in HERMITES[:3]:
        for x0, r in POINTS:
            sv = slice_cst(f, x0, r)
            sv2 = slice_cst_fourier(f, x0, r)
            assert abs(sv.alpha - sv2.alpha) < 1e-8
            assert abs(sv.beta - sv2.beta) < 1e-8


def test_slice_value_assembles_element():
    sv = slice_cst(HERMITES[0], 0.5, 0.3)
    m = 3
    omega = [1 / math.sqrt(3)] * 3
    el = sv.value(m, omega)
    assert abs(complex(el.scalar_part()) - sv.alpha) < 1e-15
    assert abs(complex(el.vector_components()[0]) - sv.beta / math.sqrt(3)) < 1e-15


def test_axial_cst_axis_restriction():
    for m in (2, 3):
        f = HERMITES[2]
        h = heat_semigroup(f)
        for x0 in (0.4, -1.0):
            val = axial_cst(f, m, x0, [0.0] * m)
            assert abs(complex(val.scalar_part()) - complex(h.evaluate(x0))) < 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_axial_cst_route_agreement(m):
    rule = ProductGaussRule(m, 24)
    for f in HERMITES:
        for x0, r in POINTS:
            xv = [r / math.sqrt(m)] * m
            a1 = axial_cst(f, m, x0, xv)
            a2 = axial_cst_radon_route(f, m, x0, xv, rule)
            assert (a1 - a2).norm_inf() < 1e-7


def _axial_by_exact_chain(derivs, m, x0, xv):
    """Reference: the axial series summed over exact PiScalar derivatives."""
    r2 = sum(c * c for c in xv)
    value_s = value_v = 0j
    cprod = even_pow = 1.0
    for j, deriv in enumerate(derivs):
        if j:
            cprod *= gck_denominator(m, j)
        d = complex(deriv.evaluate(complex(x0))) / cprod
        if j % 2 == 0:
            value_s += even_pow * d
        else:
            value_v += even_pow * d
            even_pow *= -r2
    return CliffordElement(m, {0: value_s}) + CliffordElement.vector(m, list(xv)).scale(value_v)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_axial_series_float_chain_matches_exact_chain(m):
    # the axial route differentiates in floats.  At the corner |x0| = 0.3,
    # r = 0.8 the routes choose up to order 36 (m = 4, the third derivative
    # of the smoothed Hermite 3); order 64 goes well past that
    x0, xv = 0.3, [0.8 / math.sqrt(m)] * m
    for f in HERMITES:
        smooth = heat_semigroup(f)
        for g in (smooth, smooth.derivatives(m - 1)[-1]):
            assert g.is_exact()
            derivs = g.derivatives(64)
            for order in (36, 64):
                got = _axial_from_smooth(g, m, x0, xv, order, 1e-10)
                want = _axial_by_exact_chain(derivs[:order + 1], m, x0, xv)
                assert (got - want).norm_inf() <= 1e-13 * want.norm_inf(), order


def test_axial_cst_m1_is_two_point_slice_average():
    # over S^0 the sphere average is (value at +x1 and -x1)/2, which equals
    # the slice value by parity
    f = HERMITES[1]
    x0, x1 = 0.5, 0.7
    val = axial_cst(f, 1, x0, [x1])
    sv = slice_cst(f, x0, x1)
    want = CliffordElement(1, {0: sv.alpha, 1: sv.beta})
    assert (val - want).norm_inf() < 1e-10


def test_axial_cst_truncation_error_diagnostic():
    with pytest.raises(TruncationError):
        axial_cst(HERMITES[3], 3, 0.5, [4.0, 0.0, 0.0], order=4, tol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_fueter_cst_routes(m):
    rule = ProductGaussRule(m, 24)
    for f in HERMITES:
        for x0, r in POINTS:
            xv = [r / math.sqrt(m)] * m
            routes = fueter_cst_routes(f, m, x0, xv, rule)
            a = routes["heat_then_derivative"]
            assert (a - routes["derivative_then_heat"]).norm_inf() < 1e-9
            assert (a - routes["radon_of_slice"]).norm_inf() < 1e-7
            assert (a - fueter_cst(f, m, x0, xv)).norm_inf() < 1e-12


def test_fueter_cst_m1_reduces_to_axial():
    f = HERMITES[2]
    x0, x1 = 0.4, 0.6
    lhs = fueter_cst(f, 1, x0, [x1])  # gamma_1 = 1, zero derivatives
    rhs = axial_cst(f, 1, x0, [x1])
    assert (lhs - rhs).norm_inf() < 1e-14


def test_unitarity_gram_matrix():
    for m in (2, 3):
        for i in range(4):
            for j in range(4):
                res = unitarity_check(HERMITES[i], HERMITES[j], m)
                want = 1.0 if i == j else 0.0
                assert abs(res.lhs - want) < 1e-12
                assert abs(res.rhs - want) < 1e-5
                assert res.residual <= res.residual_coarse + 1e-12


def test_unitarity_examples():
    res = unitarity_check(HERMITES[0], HERMITES[0], 2)
    assert abs(res.lhs - 1) < 1e-15 and abs(res.rhs - 1) < 1e-6
    res01 = unitarity_check(HERMITES[0], HERMITES[1], 2)
    assert abs(res01.lhs) < 1e-15 and abs(res01.rhs) < 1e-6
    res22 = unitarity_check(HERMITES[2], HERMITES[2], 3)
    assert abs(res22.rhs - 1) < 1e-5


def _gram_quad_reference(Ff, Fg, nx, nr, x_cut=13.0, r_cut=9.0):
    """The radial Gram quadrature with the Gauss-Legendre rules built per call
    and e^{-r^2} applied to the integrand."""
    ux, wx = np.polynomial.legendre.leggauss(nx)
    ur, wr = np.polynomial.legendre.leggauss(nr)
    X, Rr = np.meshgrid(x_cut * ux, r_cut * (ur + 1) / 2, indexing="ij")

    def split(F):
        vp, vm = F.evaluate(X + 1j * Rr), F.evaluate(X - 1j * Rr)
        return (vp + vm) / 2, (vp - vm) / 2j

    af, bf = split(Ff)
    ag, bg = split(Fg)
    integrand = (np.conj(af) * ag + np.conj(bf) * bg) * np.exp(-Rr * Rr)
    total = np.einsum("i,j,ij->", x_cut * wx, r_cut * wr / 2, integrand)
    return complex(2.0 / math.sqrt(math.pi) * total)


@pytest.mark.parametrize("m", [2, 3])
def test_unitarity_gram_matches_per_call_quadrature(m):
    (coarse, fine) = DEFAULT_QUAD_LEVELS
    for f in HERMITES:
        for g in HERMITES:
            res = unitarity_check(f, g, m)
            lhs = complex((f.conjugate() * g).integrate_line())
            rhs = _gram_quad_reference(f.heat(), g.heat(), *fine)
            rhs_coarse = _gram_quad_reference(f.heat(), g.heat(), *coarse)
            assert abs(res.lhs - lhs) <= 1e-14
            assert abs(res.rhs - rhs) <= 1e-14
            assert abs(res.rhs_coarse - rhs_coarse) <= 1e-14
            assert res.converging == (abs(rhs - lhs) <= abs(rhs_coarse - lhs) + 1e-12)


def test_legendre_grid_is_shared_and_read_only():
    x, w = _legendre_grid(24, 0.0, 9.0, 1.0)
    assert _legendre_grid(24, 0.0, 9.0, 1.0)[0] is x
    u, wu = np.polynomial.legendre.leggauss(24)
    assert np.allclose(x, 4.5 * (u + 1), rtol=0.0, atol=1e-14)
    assert np.allclose(w, 4.5 * wu * np.exp(-x * x), rtol=1e-14, atol=0.0)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr += 1.0


def test_unitarity_reduction_against_full_sphere_quadrature():
    # independent check of the analytic sphere reduction for m = 2: integrate
    # the full inner product over the circle numerically
    m = 2
    f, g = HERMITES[1], HERMITES[2]
    Ff, Fg = heat_semigroup(f), heat_semigroup(g)
    nx, nr, ntheta = 70, 40, 24
    ux, wx = np.polynomial.legendre.leggauss(nx)
    ur, wr = np.polynomial.legendre.leggauss(nr)
    xs, wxs = 12.0 * ux, 12.0 * wx
    rs, wrs = 8.0 * (ur + 1) / 2, 8.0 * wr / 2
    thetas = 2 * np.pi * np.arange(ntheta) / ntheta
    wth = 2 * np.pi / ntheta
    total = 0j
    from monogenics.constants import sphere_area

    sigma = float(sphere_area(m))
    for x0, wx0 in zip(xs, wxs):
        for r, wr0 in zip(rs, wrs):
            fp = complex(Ff.evaluate(complex(x0, r)))
            fm = complex(Ff.evaluate(complex(x0, -r)))
            gp = complex(Fg.evaluate(complex(x0, r)))
            gm = complex(Fg.evaluate(complex(x0, -r)))
            af, bf = (fp + fm) / 2, (fp - fm) / 2j
            ag, bg = (gp + gm) / 2, (gp - gm) / 2j
            for th in thetas:
                omega = np.array([math.cos(th), math.sin(th)])
                uf = CliffordElement(m, {0: af}) + CliffordElement.vector(m, list(omega)).scale(bf)
                ug = CliffordElement(m, {0: ag}) + CliffordElement.vector(m, list(omega)).scale(bg)
                prod = uf.hermitian() * ug
                # measure: e^{-r^2} r^{1-m} times volume r^{m-1} dr dtheta
                total += wx0 * wr0 * wth * complex(prod.scalar_part()) * math.exp(-r * r)
    rhs_full = 2 / math.sqrt(math.pi) / sigma * total
    res = unitarity_check(f, g, m)
    assert abs(rhs_full - res.rhs) < 1e-6


def test_measure_mass_and_density():
    from monogenics.constants import sphere_area

    dv = MeasureDvm(3)
    assert dv.radial_mass() == 1.0
    nodes, weights = np.polynomial.legendre.leggauss(200)
    rs = 8.0 * (nodes + 1) / 2
    ws = 8.0 * weights / 2
    mass = np.sum(ws * np.exp(-rs * rs)) * 2 / math.sqrt(math.pi)
    assert abs(mass - 1.0) < 1e-12
    val = dv.density(0.3, [0.4, 0.0, 0.3])
    r2 = 0.16 + 0.09
    want = 2 / math.sqrt(math.pi) / float(sphere_area(3)) * math.exp(-r2) / r2
    assert abs(val - want) < 1e-12
