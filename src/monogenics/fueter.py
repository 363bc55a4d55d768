"""The slice-to-axial map in all dimensions, realized through the axial
extension identity: on data f0 on the real axis the map equals
``gamma_m * GCK o d_x0^(m-1)``.

For odd m the pointwise route (iterated Laplacian of the slice extension)
is kept as an independent witness, both through the polynomial engine and
through closed-form radial calculus; no ad-hoc fractional Laplacian is
invented for even m, where the closed-form monomial family provides the
cross-check instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .axial import AxialClosedForm
from .constants import constants
from .extensions import AxialSeries, IntrinsicPair, gck_extension, intrinsic_split, slice_extension
from .laurent import LaurentPoly
from .poly import CliffordPolynomial, OperatorTag, apply_operator
from .scalars import PiScalar, double_factorial
from .kernels import monogenic_monomial


@dataclass(frozen=True)
class FueterResult:
    """Action of the map on one integer power of the paravector.

    branch records which case fired: "negative" (closed form + truncated
    series), "kernel" (identically zero), or "monomial" (polynomial output,
    a scaled Appell polynomial).
    """

    m: int
    power: int
    branch: str
    output: object                      # CliffordPolynomial or AxialSeries
    closed: AxialClosedForm | None = None


def fueter_on_power(m: int, ell: int, order: int | None = None) -> FueterResult:
    """Action on one integer power via the identity gamma * GCK[d^(m-1) x0^ell].

    Negative powers also carry the independent closed form
    i^(1-m) sgn(-x0)^(m-1) P^(ell) for cross-validation.
    """
    gamma = constants(m).gamma
    if 0 <= ell <= m - 2:
        return FueterResult(m, ell, "kernel", CliffordPolynomial.zero(m))
    if ell >= m - 1:
        f0 = LaurentPoly.monomial(ell).derivative(m - 1)
        poly = gck_extension(f0, m).to_polynomial().scale(gamma)
        return FueterResult(m, ell, "monomial", poly)
    # ell < 0
    f0 = LaurentPoly.monomial(ell).derivative(m - 1)
    if order is None:
        order = 2 * m + 28
    series = gck_extension(f0, m, order).scale(gamma)
    phase = PiScalar.i_power(1 - m) * Fraction((-1) ** (m - 1))  # sgn(-x0) = -sgn(x0)
    closed = replace(monogenic_monomial(m, ell).scale(phase), sign_power=(m - 1) % 2)
    return FueterResult(m, ell, "negative", series, closed)


def fueter_on_laurent(m: int, f0: LaurentPoly, order: int | None = None) -> AxialSeries:
    """Linear extension over Laurent data: gamma_m * GCK[f0^(m-1)]."""
    return gck_extension(f0.derivative(m - 1), m, order).scale(constants(m).gamma)


def laplacian_power_route(m: int, f0: LaurentPoly):
    """Iterated Laplacian of the slice extension of f0, for odd m only.

    Polynomial data goes through the exact polynomial engine and returns a
    CliffordPolynomial; data with negative powers returns an AxialClosedForm,
    the Laplacians of the intrinsic split alpha + w beta in closed form,
    exact and singular at the origin.
    """
    if m % 2 == 0:
        raise ValueError("pointwise route requires odd m")
    steps = (m - 1) // 2
    if f0.is_polynomial():
        p = slice_extension(f0, m).to_polynomial()
        for _ in range(steps):
            p = apply_operator(OperatorTag.LAPLACIAN, p)
        return p
    pair = intrinsic_split(f0)
    form = AxialClosedForm(m, pair.alpha, pair.beta)
    for _ in range(steps):
        form = form.laplacian()
    return form


def radial_route_components(m: int, pair: IntrinsicPair) -> AxialClosedForm:
    """Explicit components of the pointwise route on a slice function
    alpha + w beta, for odd m:

        A = (m-1)!! (r^-1 d_r)^((m-1)/2) alpha
        B = (m-1)!! (d_r r^-1)^((m-1)/2) beta

    alpha and beta are the RhoExpr of the intrinsic split in (x0, r), with
    w = x/|x| and r = |x|.  alpha is even and beta odd in r, so each step
    keeps the terms free of negative r powers.  The components are exact on
    Laurent data too; the origin is singular when a term carries a negative
    power of rho.
    """
    if m % 2 == 0:
        raise ValueError("explicit components require odd m")
    if not pair.parity_ok():
        raise ValueError("alpha must be even and beta odd in r")
    A, B = pair.alpha, pair.beta
    for _ in range((m - 1) // 2):
        A = A.diff_r().div_r()
        B = B.div_r().diff_r()
    df = double_factorial(m - 1)
    singular = any(e < 0 for expr in (pair.alpha, pair.beta) for _, _, e in expr.terms)
    return AxialClosedForm(m, A.scale(df), B.scale(df), 0, singular_origin=singular)


def fueter_kernel_range(m: int) -> range:
    """Powers annihilated by the map."""
    return range(0, m - 1)
