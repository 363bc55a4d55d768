import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from monogenics.gausspoly import GaussPoly, hermite_coeffs, hermite_function
from monogenics.scalars import PiScalar, Radical


def gauss_quad_line(fn, cutoff=14.0, n=260):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    y = cutoff * nodes
    w = cutoff * weights
    return np.sum(w * fn(y))


def test_heat_of_plain_gaussian():
    f = GaussPoly.exact(Fraction(1, 2), [1])
    h = f.heat()
    assert h.a == Fraction(1, 4)
    assert h.pref == Radical.sqrt(Fraction(1, 2))
    for x in (0.0, 0.9, -1.7):
        assert abs(complex(h.evaluate(x)).real - math.exp(-x * x / 4) / math.sqrt(2)) < 1e-15


def test_heat_width_update_keeps_positivity():
    a = Fraction(1, 2)
    f = GaussPoly.exact(a, [1])
    for _ in range(5):
        f = f.heat()
        assert f.a > 0
        a = a / (1 + 2 * a)
        assert f.a == a


def test_heat_matches_convolution_quadrature():
    rng = random.Random(14)
    for _ in range(6):
        coeffs = [Fraction(rng.randint(-4, 4), 3) for _ in range(rng.randint(1, 7))]
        f = GaussPoly.exact(Fraction(rng.randint(1, 4), rng.randint(2, 5)), coeffs)
        h = f.heat()
        for x0 in (0.0, 0.6, -1.1):
            conv = gauss_quad_line(
                lambda y: np.exp(-((x0 - y) ** 2) / 2) * f.evaluate(y.astype(complex)).real
            ) / math.sqrt(2 * math.pi)
            assert abs(conv - complex(h.evaluate(x0)).real) < 1e-10


def test_heat_linearity_in_coefficients():
    f = GaussPoly.exact(Fraction(1, 2), [1, 2, 3])
    g = GaussPoly.exact(Fraction(1, 2), [0, -5, 1])
    fh, gh = f.heat(), g.heat()
    combined = GaussPoly.exact(Fraction(1, 2), [1, -3, 4]).heat()
    total = [a + b for a, b in zip(fh.coeffs, gh.coeffs)]
    assert total == combined.coeffs


def test_heat_derivative_commutation_exact():
    for n in range(4):
        f = hermite_function(n)
        for k in range(1, 6):
            lhs, rhs = f, f
            for _ in range(k):
                lhs = lhs.derivative()
            lhs = lhs.heat()
            rhs = rhs.heat()
            for _ in range(k):
                rhs = rhs.derivative()
            assert lhs == rhs


def test_hermite_polynomials():
    assert hermite_coeffs(0) == [1]
    assert hermite_coeffs(1) == [0, 2]
    assert hermite_coeffs(2) == [-2, 0, 4]
    assert hermite_coeffs(3) == [0, -12, 0, 8]


def test_hermite_orthonormality_exact():
    for i in range(5):
        for j in range(5):
            prod = hermite_function(i).conjugate() * hermite_function(j)
            val = prod.integrate_line()
            if i == j:
                assert val == Radical.one()
            else:
                assert isinstance(val, Radical) and val.is_zero()


def test_integrate_line_matches_quadrature():
    f = GaussPoly.exact(Fraction(1, 3), [1, 1, -2, 0, 1])
    want = gauss_quad_line(lambda y: f.evaluate(y.astype(complex)).real)
    got = float(f.integrate_line())
    assert abs(got - want) < 1e-11


def test_fourier_of_hermites_is_phase():
    for n in range(5):
        hn = hermite_function(n)
        ft = hn.fourier()
        for p in (0.0, 0.7, -1.9):
            assert abs(complex(ft.evaluate(p)) - (-1j) ** n * complex(hn.evaluate(p))) < 1e-12


def test_fourier_against_quadrature():
    f = GaussPoly.exact(Fraction(2, 3), [1, -1, 2])
    ft = f.fourier()
    for p in (0.4, -1.3):
        want = gauss_quad_line(
            lambda y: np.exp(-1j * p * y) * f.evaluate(y.astype(complex))
        ) / math.sqrt(2 * math.pi)
        assert abs(complex(ft.evaluate(p)) - want) < 1e-12


def test_product_and_conjugate():
    f = hermite_function(1)
    g = hermite_function(2)
    prod = f.conjugate() * g
    assert prod.a == Fraction(1)
    x = 0.37
    want = complex(f.evaluate(x)).conjugate() * complex(g.evaluate(x))
    assert abs(complex(prod.evaluate(x)) - want) < 1e-14


def test_magnitude_bound_is_certified():
    f = hermite_function(3).heat()
    center, radius = 0.7, 1.4
    bound = f.magnitude_bound(center, radius)
    rng = random.Random(2)
    for _ in range(200):
        theta = rng.uniform(0, 2 * math.pi)
        rr = rng.uniform(0, radius)
        z = complex(center + rr * math.cos(theta), rr * math.sin(theta))
        assert abs(complex(f.evaluate(z))) <= bound + 1e-12


def test_array_evaluation():
    f = hermite_function(2)
    xs = np.linspace(-2, 2, 11)
    arr = f.evaluate(xs.astype(complex))
    for x, v in zip(xs, arr):
        assert abs(complex(f.evaluate(complex(x))) - v) < 1e-14


def test_numeric_mode_with_linear_term():
    # nonzero linear term demotes to complex closed forms; all three
    # operations still match direct quadrature
    f = GaussPoly(Fraction(1, 2), 0.7 + 0.2j, [1.0 + 0j, 0.5 - 0.1j, -0.3 + 0j], 1.0 + 0j)
    assert not f.is_exact()
    h = f.heat()
    nodes, weights = np.polynomial.legendre.leggauss(300)
    y, w = 16 * nodes, 16 * weights
    for x0 in (0.0, 0.8, -1.2):
        conv = np.sum(w * np.exp(-((x0 - y) ** 2) / 2)
                      * f.evaluate(y.astype(complex))) / math.sqrt(2 * math.pi)
        assert abs(conv - complex(h.evaluate(x0))) < 1e-11
    ft = f.fourier()
    for p in (0.3, -1.4):
        want = np.sum(w * np.exp(-1j * p * y)
                      * f.evaluate(y.astype(complex))) / math.sqrt(2 * math.pi)
        assert abs(want - complex(ft.evaluate(p))) < 1e-11
    assert abs(complex(f.integrate_line()) - np.sum(w * f.evaluate(y.astype(complex)))) < 1e-11


def test_exact_and_numeric_paths_are_chosen_by_type():
    # b exactly zero with a Radical prefactor: the heat flow stays exact
    h = hermite_function(5).derivative().heat()
    assert isinstance(h.pref, Radical) and isinstance(h.b, PiScalar)
    assert all(isinstance(c, PiScalar) for c in h.coeffs)
    # line integrals of Hermite products are Radicals
    for i, j in ((2, 2), (1, 3), (0, 4), (3, 6)):
        prod = hermite_function(i).conjugate() * hermite_function(j)
        assert isinstance(prod.integrate_line(), Radical)
    # a rational nonzero b demotes to complex
    f = GaussPoly.exact(Fraction(1, 3), [1, -1, 2], b=Fraction(1, 2))
    h = f.heat()
    assert not h.is_exact() and isinstance(h.b, complex)
    assert all(isinstance(c, complex) for c in h.coeffs)
    assert isinstance(f.integrate_line(), complex)
    # a Radical prefactor with a complex b takes the numeric path and agrees
    # with the numeric copy of the same function
    g = GaussPoly.exact(Fraction(1, 2), [1, 2], b=0.5j)
    assert isinstance(g.pref, Radical) and isinstance(g.b, complex)
    gn = g.to_numeric()
    assert not g.heat().is_exact()
    for x in (0.0, 0.7, -1.3):
        assert abs(complex(g.heat().evaluate(x)) - complex(gn.heat().evaluate(x))) < 1e-15
    assert abs(complex(g.integrate_line()) - complex(gn.integrate_line())) < 1e-15


TAYLOR_FUNCTIONS = {
    # exact, with the nonzero linear term -1/2 + i/3
    "exact_b": GaussPoly.exact(
        Fraction(1, 3), [1, -2, 0, Fraction(1, 2)],
        b=PiScalar({0: (Fraction(-1, 2), Fraction(1, 3))})),
    "numeric": GaussPoly(0.4, 0.3 - 0.5j, [1 + 0.5j, -0.2j, 0.3 + 0j, 0.1j], 0.7 + 0.2j),
}


@functools.lru_cache(maxsize=None)
def _derivative_chain(name):
    return TAYLOR_FUNCTIONS[name].derivatives(64)


def _derivatives_at(name, x0):
    """Reference f^(j)(x0)/j!, j <= 64, from the derivative chain.  An exact
    f has its derivatives evaluated at the rational x0 in exact arithmetic,
    so each value is rounded once; a numeric f goes through ``evaluate``."""
    f = TAYLOR_FUNCTIONS[name]
    out = []
    if f.is_exact():
        x = float(x0)
        front = float(f.pref) * np.exp(-float(f.a) * x * x + complex(f.b.to_complex()) * x)
    for j, d in enumerate(_derivative_chain(name)):
        if f.is_exact():
            acc = PiScalar()
            for c in reversed(d.coeffs):
                acc = acc * x0 + c
            value = complex(acc.to_complex()) * front
        else:
            value = complex(d.evaluate(complex(x0)))
        out.append(value / math.factorial(j))
    return np.array(out)


@pytest.mark.parametrize("name", sorted(TAYLOR_FUNCTIONS))
@pytest.mark.parametrize("x0", [Fraction(0), Fraction(-4, 5), Fraction(17, 10), Fraction(-5, 2)])
def test_taylor_matches_derivative_chain(name, x0):
    f = TAYLOR_FUNCTIONS[name]
    ref = _derivatives_at(name, x0)
    for order in (0, 1, f.degree(), 64):
        got = f.taylor(float(x0), order)
        assert got.shape == (order + 1,)
        assert np.abs(got - ref[:order + 1]).max() <= 1e-13 * np.abs(ref).max(), order
    if f.is_exact():
        # against the once-rounded reference every coefficient is accurate,
        # the smallest ones (about 1e-47 here) included
        assert (np.abs(got - ref) <= 1e-12 * np.abs(ref)).all()
