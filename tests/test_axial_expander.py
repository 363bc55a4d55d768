"""The axial-to-Cartesian expander and the two-scalar series value against
references built from polynomial products.

The references repeat the product algorithms the expander replaced: powers
of the vector variable by repeated products, one element scaling per
coefficient, and closed-form terms as products of x0, |x|^2 and rho.
"""

import math
from fractions import Fraction

import pytest

from monogenics.axial import AxialClosedForm, RhoExpr
from monogenics.clifford import CliffordElement
from monogenics.extensions import AxialSeries, gck_extension
from monogenics.kernels import monogenic_monomial
from monogenics.laurent import LaurentPoly
from monogenics.poly import CliffordPolynomial, paravector_power
from monogenics.scalars import PiScalar, _compositions, _multinomial
from test_kernels import closed_power
from test_poly import radial_sq


def vector_power_rows(m, j):
    """x^j as ``(x1..xm exponents, blade, int)`` rows, with no products:
    x^(2s) = (-|x|^2)^s = (-1)^s sum_(|a|=s) multinomial(a) x^(2a) on the
    scalar blade, and x^(2s+1) is that times sum_i x_i e_i.  Each (a, i)
    gives its own monomial."""
    s, odd = divmod(j, 2)
    rows = []
    for a in _compositions(s, m):
        k, tail = (-1) ** s * _multinomial(a), tuple(2 * e for e in a)
        if not odd:
            rows.append((tail, 0, k))
            continue
        rows.extend(((*tail[:i], tail[i] + 1, *tail[i + 1:]), 1 << i, k) for i in range(m))
    return rows


def rows_polynomial(m, j):
    return CliffordPolynomial(m, {(0, *tail): CliffordElement(m, {mask: Fraction(k)})
                                  for tail, mask, k in vector_power_rows(m, j)})


def product_built_series(series):
    """sum_j x^j f_j(x0) with x^j by repeated products and each term of x^j
    scaled by each coefficient of f_j from the right."""
    m = series.m
    vec = CliffordPolynomial.vector_variable(m)
    vp = CliffordPolynomial.one(m)
    terms = {}
    for f in series.trimmed():
        for n, c in f.terms.items():
            for exps, coeff in vp.terms.items():
                terms[(n, *exps[1:])] = coeff * c
        vp = vp * vec
    return CliffordPolynomial(m, terms)


def product_built_closed(form):
    """Each closed-form term as the product x0^p |x|^q rho^h, the w part with x."""
    m = form.m
    x0 = CliffordPolynomial.variable(m, 0)
    r2 = radial_sq(m)
    rho = x0 * x0 + r2
    vec = CliffordPolynomial.vector_variable(m)
    out = CliffordPolynomial.zero(m)
    for (p, q, e), c in form.A.terms.items():
        out = out + ((x0 ** p) * (r2 ** (q // 2)) * (rho ** (e // 2))).scale(c)
    for (p, q, e), c in form.B.terms.items():
        out = out + (vec * (x0 ** p) * (r2 ** ((q - 1) // 2)) * (rho ** (e // 2))).scale(c)
    return out


def typed(p):
    return {exps: {mask: (type(c), c) for mask, c in coeff.coeffs.items()}
            for exps, coeff in p.terms.items()}


@pytest.mark.parametrize("m", range(1, 7))
def test_vector_power_rows_equal_products(m):
    vec = CliffordPolynomial.vector_variable(m)
    for j in range(13):
        assert rows_polynomial(m, j) == vec ** j, (m, j)
        # every row is its own monomial
        tails = [tail for tail, _, _ in vector_power_rows(m, j)]
        assert len(set(tails)) == len(tails)


def axis_data(m):
    e1 = CliffordElement.generator(m, 1)
    e12 = CliffordElement.blade(m, [1, 2], Fraction(2, 3)) if m >= 2 else e1.scale(Fraction(2, 3))
    return {
        "fraction": LaurentPoly({7: Fraction(3, 5), 4: Fraction(-2, 7), 1: Fraction(5), 0: Fraction(1, 3)}),
        "pi": LaurentPoly({6: PiScalar.pi_power(1, Fraction(1, 3)), 3: PiScalar.pi_power(-2, 2),
                           0: Fraction(-2)}),
        "float": LaurentPoly({5: 0.75, 2: -1.25, 0: 3.5}),
        "element": LaurentPoly({5: e1 + e12, 2: PiScalar.pi_power(1, Fraction(1, 3)), 0: e12}),
    }


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", ["fraction", "pi", "float", "element"])
def test_gck_polynomial_equals_product_reference(m, kind):
    series = gck_extension(axis_data(m)[kind], m)
    got = series.to_polynomial()
    want = product_built_series(series)
    assert got == want
    assert typed(got) == typed(want)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_fraction_output_carries_the_integer_form(m):
    got = gck_extension(axis_data(m)["fraction"], m).to_polynomial()
    assert got._terms is None and got._ints
    den, flat = got._ints
    assert math.gcd(den, *flat.values()) == 1
    assert all(type(c) is Fraction for coeff in got.terms.values() for c in coeff.coeffs.values())


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_paravector_power_closed_equals_product_reference(m):
    for n in range(9):
        form = closed_power(m, n)
        got = form.to_polynomial()
        assert got == product_built_closed(form) == paravector_power(m, n), (m, n)
        assert typed(got) == typed(product_built_closed(form))


@pytest.mark.parametrize("m", range(2, 7))
def test_monogenic_monomial_equals_product_reference(m):
    for k in range(7):
        form = monogenic_monomial(m, k)
        got = form.to_polynomial()
        want = product_built_closed(form)
        assert got == want, (m, k)
        assert typed(got) == typed(want)


def test_closed_form_series_refusals():
    m = 3
    with pytest.raises(ValueError):
        AxialClosedForm(m, RhoExpr.term(Fraction(1)), RhoExpr(), sign_power=1).to_series()
    with pytest.raises(ValueError):
        closed_power(m, -2).to_polynomial()
    with pytest.raises(ValueError):
        AxialClosedForm(m, RhoExpr.term(Fraction(1), e=1), RhoExpr()).to_polynomial()
    with pytest.raises(ValueError):
        AxialClosedForm(m, RhoExpr(), RhoExpr.term(Fraction(1), p=1)).to_polynomial()
    # x0^2 rho^1 in A reaches f_0 and f_2: x0^4 - x^2 x0^2
    series = AxialClosedForm(m, RhoExpr.term(Fraction(1), p=2, e=2), RhoExpr()).to_series()
    assert series.coeffs == [LaurentPoly.monomial(4), LaurentPoly(), LaurentPoly.monomial(2, Fraction(-1))]


RATIONAL_POINTS = [
    (Fraction(1, 2), (Fraction(1, 3), Fraction(-2, 5), Fraction(1, 4), Fraction(3, 7), Fraction(-1, 6))),
    (Fraction(-3, 2), (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 3), Fraction(1, 5))),
    (Fraction(0), (Fraction(0),) * 5),
]


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", ["fraction", "pi", "element"])
def test_series_value_equals_polynomial_value_exactly(m, kind):
    series = gck_extension(axis_data(m)[kind], m)
    poly = series.to_polynomial()
    for x0, xv in RATIONAL_POINTS:
        assert series.evaluate(x0, xv[:m]) == poly.evaluate(x0, xv[:m])


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", ["fraction", "float", "element"])
def test_series_value_matches_polynomial_value_at_float_points(m, kind):
    series = gck_extension(axis_data(m)[kind], m)
    poly = series.to_polynomial()
    for x0, xv in [(0.7, (0.3, -0.25, 0.2, 0.15, -0.1)), (-1.1, (0.5, 0.05, -0.4, 0.0, 0.9))]:
        got = series.evaluate(x0, xv[:m]).to_numeric()
        want = poly.evaluate(x0, xv[:m]).to_numeric()
        assert (got - want).norm_inf() <= 1e-14 * want.norm_inf()


def test_series_value_refuses_a_wrong_length_point():
    # the constant series has no odd term at all
    for series in (gck_extension(LaurentPoly.one(), 3), gck_extension(LaurentPoly.monomial(4), 3)):
        with pytest.raises(ValueError):
            series.evaluate(Fraction(1), [Fraction(1), Fraction(2)])
    only_even = AxialSeries(3, [LaurentPoly.one(), LaurentPoly(), LaurentPoly.monomial(1)])
    with pytest.raises(ValueError):
        only_even.evaluate(0.5, [0.1, 0.2])
