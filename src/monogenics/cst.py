"""Coherent state transforms: heat-semigroup smoothing followed by an
extension map (holomorphic, slice, or axial), and the route identities tying
them together through the dual Radon transform and the slice-to-axial map.

Test functions live in the Gaussian polynomial algebra; identities at the
operator level are exact there, and pointwise route agreements are checked
with certified series truncation and spectral sphere quadrature.  The
quadrature route is evaluated on the rule's node arrays, and the series
sums float derivatives up to an order certified from the exact function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordElement
from .constants import constants, sphere_area
from .extensions import gck_denominator
from .gausspoly import GaussPoly
from .sphere import ProductGaussRule


class TruncationError(RuntimeError):
    """Certified series remainder exceeded the requested tolerance."""


def heat_semigroup(f: GaussPoly) -> GaussPoly:
    """Time-one Gaussian smoothing, exact in the algebra."""
    return f.heat()


def classical_cst(f: GaussPoly, z) -> complex:
    """Holomorphic extension of the heat flow, evaluated at a complex point."""
    return complex(f.heat().evaluate(z))


@dataclass(frozen=True)
class SliceValue:
    """Even/odd components of a slice function value: full value alpha + w beta."""

    alpha: complex
    beta: complex

    def value(self, m: int, omega) -> CliffordElement:
        out = CliffordElement(m, {0: self.alpha})
        return out + CliffordElement.vector(m, list(omega)).scale(self.beta)


def _entire_split(F: GaussPoly, x0: float, r) -> SliceValue:
    zp = complex(F.evaluate(complex(x0, float(r))))
    zm = complex(F.evaluate(complex(x0, -float(r))))
    return SliceValue((zp + zm) / 2, (zp - zm) / 2j)


def slice_cst(f: GaussPoly, x0: float, r: float) -> SliceValue:
    """Slice transform: heat flow followed by the slice extension.

    The central complex unit splits the entire extension F of the smoothed
    function into even/odd parts: alpha = (F(x0+ir)+F(x0-ir))/2 and
    beta = (F(x0+ir)-F(x0-ir))/2i.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    return _entire_split(f.heat(), x0, r)


def slice_cst_fourier(f: GaussPoly, x0: float, r: float, n: int = 240,
                      cutoff: float = 12.0) -> SliceValue:
    """Quadrature cross-check of the slice transform through the Fourier side:

        (1/sqrt(2 pi)) int e^{-p^2/2} e^{i p x0}
                           [cosh(p r) + i w sinh(p r)] ft(p) dp
    """
    ft = f.fourier()
    p, w = _legendre_grid(n, -cutoff, cutoff, 0.5)   # e^{-p^2/2} is in w
    vals = ft.evaluate(p.astype(complex))
    common = np.exp(1j * p * x0) * vals / math.sqrt(2 * math.pi)
    alpha = np.sum(w * common * np.cosh(p * r))
    beta = np.sum(w * common * 1j * np.sinh(p * r))
    return SliceValue(complex(alpha), complex(beta))


@functools.lru_cache(maxsize=16)
def _legendre_grid(n: int, lo: float, hi: float,
                   decay: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [lo, hi] and their weights times e^(-decay x^2).

    Built on first use and shared by every later call with the same
    arguments, so both arrays are read-only.
    """
    u, w = np.polynomial.legendre.leggauss(n)
    half = (hi - lo) / 2
    x = (hi + lo) / 2 + half * u
    wx = half * w * np.exp(-decay * x * x)
    x.flags.writeable = False
    wx.flags.writeable = False
    return x, wx


def _axial_from_smooth(g: GaussPoly, m: int, x0: float, xv, order: int | None,
                       tol: float) -> CliffordElement:
    """Axial extension of an already-smoothed function, evaluated at a point.

    Sums x^j g^(j)(x0) / (c_1 ... c_j) with the recursion constants c_j and
    certifies the dropped tail via a Cauchy bound: |g^(j)(x0)| <= j! M_R/R^j
    and c_1...c_j >= j! give tail <= M_R (r/R)^(N+1) / (1 - r/R).
    """
    r2 = float(sum(c * c for c in xv))
    r = math.sqrt(r2)
    R = max(2.0 * r, r + 1.0)
    M = g.magnitude_bound(x0, R)
    if order is None:
        ratio = r / R
        order = 8
        while M * ratio ** (order + 1) / (1 - ratio) > tol and order < 400:
            order += 4
    tail = M * (r / R) ** (order + 1) / (1 - r / R)
    if tail > tol:
        raise TruncationError(
            f"certified remainder {tail:.3e} above tolerance {tol:.3e} at order {order}"
        )
    value_s = 0j
    value_v = 0j
    deriv = g.to_numeric()  # the order and tail above come from the exact g
    cprod = 1.0
    even_pow = 1.0  # (-r^2)^i
    for j in range(order + 1):
        if j > 0:
            deriv = deriv.derivative()
            cprod *= gck_denominator(m, j)
        d = complex(deriv.evaluate(complex(x0))) / cprod
        if j % 2 == 0:
            value_s += even_pow * d
        else:
            value_v += even_pow * d
            even_pow *= -r2
    out = CliffordElement(m, {0: value_s})
    if any(xv):
        out = out + CliffordElement.vector(m, list(xv)).scale(value_v)
    return out


def axial_cst(f: GaussPoly, m: int, x0: float, xv, order: int | None = None,
              tol: float = 1e-10) -> CliffordElement:
    """Axial transform: heat flow followed by the axial extension."""
    return _axial_from_smooth(f.heat(), m, x0, xv, order, tol)


def axial_cst_radon_route(f: GaussPoly, m: int, x0: float, xv,
                          rule: ProductGaussRule | None = None) -> CliffordElement:
    """The same transform through the dual Radon transform of the slice route."""
    if rule is None:
        rule = ProductGaussRule(m, 24)
    F = f.heat()
    return _radon_of_entire(F, m, x0, xv, rule)


def _radon_of_entire(F: GaussPoly, m: int, x0: float, xv, rule: ProductGaussRule) -> CliffordElement:
    """Sphere mean of the slice split of F, on the rule's nodes at once.

    Along w the radius is the signed t = <x,w>: beta is odd in t, so
    alpha + w beta at (x0, t) is the slice value at x0 + t w.
    """
    t = rule.nodes @ np.asarray(xv, dtype=float)
    zp = F.evaluate(float(x0) + 1j * t)
    zm = F.evaluate(float(x0) - 1j * t)
    sig = rule.sigma()
    alpha = complex(rule.weights @ (zp + zm)) / (2 * sig)
    beta = (rule.weights * (zp - zm)) @ rule.nodes / (2j * sig)
    return CliffordElement(m, {0: alpha, **{1 << j: complex(beta[j]) for j in range(m)}})


def fueter_cst(f: GaussPoly, m: int, x0: float, xv, order: int | None = None,
               tol: float = 1e-10) -> CliffordElement:
    """Slice-to-axial CST: gamma_m times the axial extension of the
    (m-1)-th derivative of the smoothed function."""
    g = f.heat()
    for _ in range(m - 1):
        g = g.derivative()
    gamma = complex(constants(m).gamma.to_complex())
    return _axial_from_smooth(g, m, x0, xv, order, tol).scale(gamma)


def fueter_cst_routes(f: GaussPoly, m: int, x0: float, xv,
                      rule: ProductGaussRule | None = None,
                      tol: float = 1e-10) -> dict[str, CliffordElement]:
    """All three routes to the slice-to-axial CST at one point.

    derivative_then_heat uses the commutation of the derivative with the
    heat flow; the radon route goes through the slice transform.
    """
    if rule is None:
        rule = ProductGaussRule(m, 24)
    gamma = complex(constants(m).gamma.to_complex())
    heat_then_d = f.heat()
    for _ in range(m - 1):
        heat_then_d = heat_then_d.derivative()
    fd = f
    for _ in range(m - 1):
        fd = fd.derivative()
    d_then_heat = fd.heat()
    routes = {
        "heat_then_derivative": _axial_from_smooth(heat_then_d, m, x0, xv, None, tol).scale(gamma),
        "derivative_then_heat": _axial_from_smooth(d_then_heat, m, x0, xv, None, tol).scale(gamma),
        "radon_of_slice": _radon_of_entire(d_then_heat, m, x0, xv, rule).scale(gamma),
    }
    return routes


@dataclass(frozen=True)
class MeasureDvm:
    """Weight (2/sqrt(pi)) (1/sigma_m) e^(-r^2) r^(1-m) on (m+1)-space.

    Radial reduction: integrating g(x0, |x|) against it equals
    (2/sqrt(pi)) iint g(x0, r) e^(-r^2) dr dx0 after the sphere factor
    sigma_m cancels.
    """

    m: int

    def density(self, x0: float, xv) -> float:
        r2 = float(sum(c * c for c in xv))
        r = math.sqrt(r2)
        if r == 0:
            raise ZeroDivisionError("density singular on the axis for m > 1")
        return (
            2.0 / math.sqrt(math.pi) / float(sphere_area(self.m))
            * math.exp(-r2) / r ** (self.m - 1)
        )

    @staticmethod
    def radial_mass() -> float:
        """(2/sqrt(pi)) int_0^inf e^(-r^2) dr, equal to one."""
        return 1.0


DEFAULT_QUAD_LEVELS: tuple[tuple[int, int], tuple[int, int]] = ((40, 24), (96, 64))


@dataclass(frozen=True)
class UnitarityResult:
    lhs: complex
    rhs: complex
    rhs_coarse: complex
    residual: float
    residual_coarse: float
    quad_levels: tuple = DEFAULT_QUAD_LEVELS

    @property
    def converging(self) -> bool:
        return self.residual <= self.residual_coarse + 1e-12

    def to_json(self) -> dict:
        return {
            "lhs_re": self.lhs.real, "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real, "rhs_im": self.rhs.imag,
            "residual": self.residual,
            "residual_coarse": self.residual_coarse,
            "quad_levels": [list(lv) for lv in self.quad_levels],
            "converging": self.converging,
        }


def _slice_gram_quad(Ff: GaussPoly, Fg: GaussPoly, nx: int, nr: int,
                     x_cut: float = 13.0, r_cut: float = 9.0) -> complex:
    """(2/sqrt(pi)) iint [conj(alpha_f) alpha_g + conj(beta_f) beta_g] e^(-r^2) dr dx0."""
    xs, wxs = _legendre_grid(nx, -x_cut, x_cut)
    rs, wrs = _legendre_grid(nr, 0.0, r_cut, 1.0)   # e^{-r^2} is in wrs
    Z = xs[:, None] + 1j * rs[None, :]
    Zc = Z.conj()

    def split(F):
        vp = F.evaluate(Z)
        vm = F.evaluate(Zc)
        return (vp + vm) / 2, (vp - vm) / 2j

    af, bf = split(Ff)
    ag, bg = split(Fg)
    integrand = np.conj(af) * ag + np.conj(bf) * bg
    total = np.einsum("i,j,ij->", wxs, wrs, integrand)
    return complex(2.0 / math.sqrt(math.pi) * total)


def unitarity_check(f: GaussPoly, g: GaussPoly, m: int,
                    levels: tuple[tuple[int, int], tuple[int, int]] = DEFAULT_QUAD_LEVELS,
                    ) -> UnitarityResult:
    """Inner product identity of the slice transform.

    lhs is the line inner product of f and g; rhs integrates the slice
    transforms against the Gaussian radial measure, the sphere directions
    having been integrated out exactly (odd terms vanish, w*w = sigma_m).
    Once the sphere is integrated out the reduced identity no longer
    depends on m, so ``m`` is not read; it stays in the signature to name
    the space the identity is about.  The identity is checked at two
    quadrature levels.
    """
    lhs_val = (f.conjugate() * g).integrate_line()
    lhs = complex(float(lhs_val)) if not isinstance(lhs_val, complex) else lhs_val
    Ff, Fg = f.heat(), g.heat()
    rhs_coarse = _slice_gram_quad(Ff, Fg, *levels[0])
    rhs = _slice_gram_quad(Ff, Fg, *levels[1])
    return UnitarityResult(
        lhs=lhs,
        rhs=rhs,
        rhs_coarse=rhs_coarse,
        residual=abs(rhs - lhs),
        residual_coarse=abs(rhs_coarse - lhs),
        quad_levels=levels,
    )
