import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from monogenics.clifford import CliffordElement
from monogenics.cst import (
    DEFAULT_QUAD_LEVELS,
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
    unitarity_gram,
)
from monogenics.extensions import gck_denominator
from monogenics.gausspoly import GaussPoly, hermite_function
from monogenics.sphere import MonteCarloRule, ProductGaussRule

HERMITES = [hermite_function(n) for n in range(4)]
POINTS = [(0.7, 0.5), (0.3, 0.8), (-0.6, 0.4)]


def test_classical_cst_of_gaussian():
    f = GaussPoly.exact(Fraction(1, 2), [1])
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
        # beta is odd under r -> -r: compare against the split at t = -r
        from monogenics.cst import _slice_split

        minus_alpha, minus_beta = _slice_split(heat_semigroup(f), x0, -r)
        assert abs(plus.beta + minus_beta) < 1e-10
        assert abs(plus.alpha - minus_alpha) < 1e-10


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


def test_axial_cst_radon_route_under_monte_carlo():
    # the complex slice split reduces through the same plane-wave mean
    m = 3
    rule = MonteCarloRule(m, 200_000, seed=17)
    for f in HERMITES[:2]:
        x0, r = POINTS[0]
        xv = [r / math.sqrt(m)] * m
        got = axial_cst_radon_route(f, m, x0, xv, rule)
        assert (got - axial_cst(f, m, x0, xv)).norm_inf() < 1e-2


def _axial_by_exact_chain(derivs, m, x0, xv):
    """Reference: the axial series summed over a derivative chain, one
    GaussPoly per term (exact PiScalar ones, or float ones)."""
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
    # the axial route sums in floats.  At the corner |x0| = 0.3,
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


def test_axial_series_at_order_400_matches_float_chain():
    # the derivative chain's float coefficients overflow at this order unless
    # the Gaussian is wide, so the chain is compared on wide ones; past
    # j = 170 its c_1...c_j is inf and its terms are 0, as the true ones
    # nearly are
    m = 3
    wide = (GaussPoly.exact(Fraction(1, 20), [1, -1, 0, 1], b=Fraction(1, 2)).heat(),
            GaussPoly(0.03, 0.2 - 0.4j, [1 + 0.5j, -0.2j, 0.3 + 0j], 1 + 0j).heat())
    for g in wide:
        for x0, r in ((0.3, 0.8), (-2.0, 4.0), (3.0, 2.5)):
            xv = [r / math.sqrt(m)] * m
            got = _axial_from_smooth(g, m, x0, xv, 400, 1e300)
            want = _axial_by_exact_chain(g.to_numeric().derivatives(400), m, x0, xv)
            assert (got - want).norm_inf() <= 1e-13 * want.norm_inf()
    # the smoothed Hermite functions overflowed that chain to nan; the series
    # stays finite, and past order 100 its terms are below rounding
    xv = [0.8 / math.sqrt(m)] * m
    for f in HERMITES:
        g = heat_semigroup(f)
        far = _axial_from_smooth(g, m, 0.3, xv, 400, 1e300)
        near = _axial_from_smooth(g, m, 0.3, xv, 100, 1e300)
        assert (far - near).norm_inf() <= 1e-15 * near.norm_inf()


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


def test_axial_cst_order_and_bound_are_certified_from_the_exact_function(monkeypatch):
    # at the diagnostic inputs the remainder and the chosen orders are those
    # of the certification rule, whatever sums the series
    args = (HERMITES[3], 3, 0.5, [4.0, 0.0, 0.0])
    with pytest.raises(TruncationError, match=r"^certified remainder 1\.815e\+08 above "
                       r"tolerance 1\.000e-12 at order 4$"):
        axial_cst(*args, order=4, tol=1e-12)
    orders = []
    taylor = GaussPoly.taylor
    monkeypatch.setattr(GaussPoly, "taylor",
                        lambda g, x0, order: orders.append(order) or taylor(g, x0, order))
    for tol in (1e-12, 1e-10, 1e-3):
        axial_cst(*args, tol=tol)
    assert orders == [72, 68, 44]


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
    gram = unitarity_gram(HERMITES, HERMITES, m)
    assert [len(row) for row in gram] == [len(HERMITES)] * len(HERMITES)
    # a rectangular Gram holds the entries of the square one, bit for bit
    assert unitarity_gram(HERMITES[1:3], HERMITES, m) == gram[1:3]
    for f, row in zip(HERMITES, gram):
        for g, entry in zip(HERMITES, row):
            res = unitarity_check(f, g, m)
            assert entry == res
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
    # the full inner product over the circle numerically.  The pair (1, 2)
    # vanishes term by term by parity, so alone it cannot see a wrong
    # reduction; the diagonal and same-parity pairs have nonzero integrands
    m = 2
    nx, nr, ntheta = 70, 40, 24
    ux, wx = np.polynomial.legendre.leggauss(nx)
    ur, wr = np.polynomial.legendre.leggauss(nr)
    xs, wxs = 12.0 * ux, 12.0 * wx
    rs, wrs = 8.0 * (ur + 1) / 2, 8.0 * wr / 2
    thetas = 2 * np.pi * np.arange(ntheta) / ntheta
    wth = 2 * np.pi / ntheta
    from monogenics.constants import sphere_area

    sigma = float(sphere_area(m))
    X, Rr = np.meshgrid(xs, rs, indexing="ij")
    one = CliffordElement(m, {0: 1.0})
    for i, j in ((1, 2), (1, 1), (1, 3), (0, 2)):
        f, g = HERMITES[i], HERMITES[j]
        Ff, Fg = heat_semigroup(f), heat_semigroup(g)
        fp, fm = Ff.evaluate(X + 1j * Rr), Ff.evaluate(X - 1j * Rr)
        gp, gm = Fg.evaluate(X + 1j * Rr), Fg.evaluate(X - 1j * Rr)
        # the slice values are u = a + omega b; hermitian(u) * v is conjugate
        # linear in u and linear in v, so its scalar part is a sum over the
        # pieces 1 and omega of u and v, each product taken in the algebra
        uf = ((fp + fm) / 2, (fp - fm) / 2j)
        ug = ((gp + gm) / 2, (gp - gm) / 2j)
        integrand = 0j
        for th in thetas:
            pieces = (one, CliffordElement.vector(m, [math.cos(th), math.sin(th)]))
            for p, cf in zip(pieces, uf):
                for q, cg in zip(pieces, ug):
                    sc = complex((p.hermitian() * q).scalar_part())
                    integrand = integrand + wth * sc * np.conj(cf) * cg
        # measure: e^{-r^2} r^{1-m} times volume r^{m-1} dr dtheta
        total = np.einsum("i,j,ij->", wxs, wrs * np.exp(-rs * rs), integrand)
        rhs_full = 2 / math.sqrt(math.pi) / sigma * total
        res = unitarity_check(f, g, m)
        assert abs(rhs_full - res.rhs) < 1e-6, (i, j)


def _direct_split(F, x0, t):
    """The split from two evaluations of the entire F, at z and at conj z."""
    z = x0 + 1j * np.asarray(t)
    zp, zm = F.evaluate(z), F.evaluate(np.conj(z))
    return (zp + zm) / 2, (zp - zm) / 2j, np.maximum(np.abs(zp), np.abs(zm))


def _split_functions():
    hermites = [hermite_function(n) for n in range(9)]
    fs = [f.heat() for f in hermites] + [f.heat().derivatives(3)[-1] for f in hermites]
    fs.append(GaussPoly(0.4, 0.3 - 0.5j, [1 + 0.5j, -0.2j, 0.3 + 0j, 0.1j], 0.7 + 0.2j).heat())
    return fs


def _split_grids():
    """(x0, t) as scalars, as a node column and as the Gram grid."""
    rule = ProductGaussRule(3, 8)
    xs, _ = _legendre_grid(40, -13.0, 13.0)
    rs, _ = _legendre_grid(24, 0.0, 9.0, 1.0)
    return [(0.7, 0.5), (-0.6, 0.4), (0.0, 1.3),
            (-0.9, (rule.nodes @ np.array([0.3, -0.25, 0.2]))[:, None]),
            (xs[:, None], rs)]


@pytest.mark.parametrize("F", _split_functions(), ids=repr)
def test_slice_split_matches_direct_evaluation(F):
    from monogenics.cst import _slice_split

    for x0, t in _split_grids():
        alpha, beta = _slice_split(F, x0, t)
        want_alpha, want_beta, size = _direct_split(F, x0, t)
        assert np.shape(alpha) == np.shape(beta) == np.shape(want_alpha)
        # relative to the values the direct split combines
        assert np.all(np.abs(alpha - want_alpha) <= 1e-12 * size)
        assert np.all(np.abs(beta - want_beta) <= 1e-12 * size)
        # alpha is even and beta odd in t, to the last bit
        minus_alpha, minus_beta = _slice_split(F, x0, -np.asarray(t))
        assert np.array_equal(minus_alpha, alpha) and np.array_equal(minus_beta, -beta)


def test_slice_split_is_real_on_real_data():
    from monogenics.cst import _slice_split

    t = np.linspace(-1.0, 1.0, 5)[:, None]
    for F in (HERMITES[2].heat(), GaussPoly.exact(Fraction(1, 3), [1, -2, 3], b=Fraction(1, 2))):
        assert all(part.dtype == np.float64 for part in _slice_split(F, 0.4, t))
    complex_b = GaussPoly(0.4, 0.3 - 0.5j, [1 + 0j, 2 + 0j], 1 + 0j)
    assert all(part.dtype == np.complex128 for part in _slice_split(complex_b, 0.4, t))
