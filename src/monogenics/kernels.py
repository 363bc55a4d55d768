"""The Cauchy kernel, Kelvin inversion, and the two-sided family of monogenic
monomials, together with the exact/numeric checks of their axial-extension
representations.

The kernel and every monomial are ``AxialClosedForm``s: derivatives of the
kernel are taken symbolically on the closed forms from ``axial``, and a
half-axis factor sgn(x0)^s is the form's ``sign_power``, set with
``dataclasses.replace``.  The inversion is symbolic on closed forms and a
pointwise wrapper for anything merely evaluable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .axial import AxialClosedForm, DomainError, RhoExpr
from .clifford import CliffordElement, Paravector, nan_max
from .constants import constants
from .extensions import AxialSeries, appell_Q, gck_extension
from .laurent import LaurentPoly
from .scalars import PiScalar, to_complex


def cauchy_kernel(m: int) -> AxialClosedForm:
    """E(x) = conj(x) / (sigma_(m+1) |x|^(m+1)), in closed axial form."""
    inv_sigma = constants(m).sigma_next.inverse()
    A = RhoExpr.term(inv_sigma, p=1, q=0, e=-(m + 1))
    B = RhoExpr.term(-inv_sigma, p=0, q=1, e=-(m + 1))
    return AxialClosedForm(m, A, B, 0, singular_origin=True)


class KelvinWrapped:
    """Pointwise Kelvin inversion of an arbitrary evaluable function."""

    def __init__(self, fn, m: int):
        self.fn = fn
        self.m = m

    def evaluate(self, x0, xv) -> CliffordElement:
        m = self.m
        nsq = x0 * x0 + sum(c * c for c in xv)
        if nsq == 0:
            raise DomainError("Kelvin inversion undefined at the origin")
        y0 = x0 / nsq
        yv = [-c / nsq for c in xv]
        inner = self.fn.evaluate(y0, yv) if hasattr(self.fn, "evaluate") else self.fn(y0, yv)
        front = Paravector(x0, tuple(xv)).conj().to_element().scale(
            _float_or_exact_power(nsq, m + 1)
        )
        return front * inner


def _float_or_exact_power(nsq, mp1: int):
    # |x|^-(m+1) = nsq^(-(m+1)/2); exact when the exponent is even
    if mp1 % 2 == 0:
        return Fraction(1) / (nsq ** (mp1 // 2)) if isinstance(nsq, Fraction) else nsq ** (-(mp1 // 2))
    return float(nsq) ** (-mp1 / 2)


def kelvin_inversion(f, m: int):
    """I[f](x) = (conj(x)/|x|^(m+1)) f(conj(x)/|x|^2).

    Closed forms invert symbolically; other evaluables get a pointwise wrapper.
    """
    if isinstance(f, AxialClosedForm):
        return f.kelvin()
    return KelvinWrapped(f, m)


def monogenic_monomial(m: int, order: int) -> AxialClosedForm:
    """P^(order): for order = -k, ((-1)^(k-1) sigma_(m+1) lam / (k-1)!) d_x0^(k-1) E;
    for order = k-1 >= 0 the Kelvin inversion of P^(-k), whose ``to_polynomial``
    is the Cartesian form."""
    if order < 0:
        k = -order
        form = cauchy_kernel(m)
        for _ in range(k - 1):
            form = form.diff_x0()
        cst = constants(m)
        coeff = cst.sigma_next * cst.lam * Fraction((-1) ** (k - 1), math.factorial(k - 1))
        return form.scale(coeff)
    return monogenic_monomial(m, -(order + 1)).kelvin()


def monomial_constant(m: int, k: int) -> PiScalar:
    """lam * (m+k-2)! / ((k-1)! (m-1)!), the proportionality constant of the
    axial-extension representations of P^(-k) and P^(k-1)."""
    cst = constants(m)
    return cst.lam * Fraction(
        math.factorial(m + k - 2), math.factorial(k - 1) * math.factorial(m - 1)
    )


@dataclass(frozen=True)
class IdentityReport:
    """``exact`` is the identity's kind of comparison; if exact, ``residual`` counts failures."""

    identity: str
    m: int
    k: int
    residual: float
    exact: bool


def _max_residual(closed: AxialClosedForm, series: AxialSeries, scale, points) -> float:
    """Largest gap between a closed form, its half-axis sign included, and
    ``scale`` times an axial series over the points."""
    return nan_max((closed.evaluate(x0, xv).to_numeric()
                    - series.evaluate(x0, xv).to_numeric().scale(to_complex(scale))).norm_inf()
                   for x0, xv in points)


def verify_monomial_identities(m: int, k: int, order: int = 20, ratio: float = 0.4) -> list[IdentityReport]:
    """Check the four axial-extension representations of the monomial family.

    The polynomial identities are compared exactly; the negative-order ones
    numerically at |x|/|x0| = ratio via the order-``order`` truncated series,
    on both signs of x0.  P^(-k) is built once: P^(k-1) is its Kelvin image,
    as ``monogenic_monomial(m, k - 1)`` defines it.
    """
    if m < 2:
        raise ValueError("family needs m >= 2")
    cst = constants(m)
    const = monomial_constant(m, k)
    points = [(x0, tuple(ratio * c for c in _unit_dir(m))) for x0 in (1.0, -1.0)]

    reports = []

    # negative order, restriction form: sgn^(m-1) * P^(-k) vs const * GCK[x0^(1-k-m)]
    p_minus = monogenic_monomial(m, -k)
    p_neg = replace(p_minus, sign_power=m - 1)
    series = gck_extension(LaurentPoly.monomial(1 - k - m), m, order)
    res = _max_residual(p_neg, series, const, points)
    reports.append(IdentityReport("neg_order_restriction", m, k, res, False))

    # negative order, derivative form: const' * sgn(-x0)^(m-1) * GCK[d^(m-1) x0^(-k)]
    series_d = gck_extension(LaurentPoly.monomial(-k).derivative(m - 1), m, order)
    const_d = cst.lam * Fraction((-1) ** (m - 1), math.factorial(m - 1))
    res = _max_residual(p_neg, series_d, const_d, points)
    reports.append(IdentityReport("neg_order_derivative", m, k, res, False))

    # nonnegative order, restriction form: P^(k-1) = const * GCK[x0^(k-1)] exactly
    lhs_poly = p_minus.kelvin().to_polynomial()
    rhs_poly = appell_Q(m, k - 1).scale(const)
    reports.append(IdentityReport("pos_order_restriction", m, k, float(lhs_poly != rhs_poly), True))

    # nonnegative order, derivative form: const'' * GCK[d^(m-1) x0^(m+k-2)]
    f0 = LaurentPoly.monomial(m + k - 2).derivative(m - 1)
    rhs2 = gck_extension(f0, m).to_polynomial().scale(cst.lam * Fraction(1, math.factorial(m - 1)))
    reports.append(IdentityReport("pos_order_derivative", m, k, float(lhs_poly != rhs2), True))
    return reports


def _unit_dir(m: int) -> tuple:
    v = [1.0 / math.sqrt(m)] * m
    return tuple(v)
