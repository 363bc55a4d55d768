"""Coherent state transforms: heat-semigroup smoothing followed by an
extension map (holomorphic, slice, or axial), and the route identities tying
them together through the dual Radon transform and the slice-to-axial map.

Test functions live in the Gaussian polynomial algebra; identities at the
operator level are exact there, and pointwise route agreements are checked
with certified series truncation and spectral sphere quadrature.  One
closed form of the slice split in (x0, t), real on real data, serves the
slice transform, the unitarity Gram and the quadrature route, the rule's
plane-wave mean of it over the signed radii t = <x,w>.  The series reads
its terms off one Taylor expansion at x0 (``GaussPoly.taylor``) up to an
order certified from the exact function; the split shifts p by binomials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .clifford import CliffordElement, axial_element
from .constants import constants
from .extensions import gck_denominator
from .gausspoly import GaussPoly
from .scalars import to_complex
from .sphere import NodeRule, _even_odd, _shift_matrix


# (x0, r) points at which cst-check and the cst suite compare the routes
CHECK_POINTS: tuple[tuple[float, float], ...] = ((0.7, 0.5), (0.3, 0.8), (-0.6, 0.4))


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
        return axial_element(m, self.alpha, omega, self.beta)


def _slice_split(F: GaussPoly, x0, t):
    """alpha = (F(x0+it) + F(x0-it))/2 and beta = (F(x0+it) - F(x0-it))/2i
    of the entire F at broadcasting x0 and t: alpha + w beta is the slice
    value at x0 + t w.  For F = pref p(x) e^(-a x^2 + b x), with K = pref
    e^(-a x0^2 + b x0), kappa = b - 2a x0 and A + i t B = p(x0 + it) from the
    coefficients of p(x0 + s), F(x0 + it) = K e^(a t^2) e^(i t kappa) (A + i t B),
    so alpha = K e^(a t^2) (A cos(t kappa) - t B sin(t kappa)) and beta =
    K e^(a t^2) (A sin(t kappa) + t B cos(t kappa)), for complex b, p and pref
    too: one real exp, cos and sin per point on real data."""
    data = np.array([to_complex(c) for c in (F.b, F.pref, *F.coeffs)])
    b, pref, *coeffs = data if data.imag.any() else data.real   # real data stays real
    a, bx = float(F.a), b * x0
    # q_k times pref and the phase of e^(b x0); the modulus goes in the exp
    q = (np.einsum("...kj,j->k...", _shift_matrix(len(coeffs), x0), coeffs)
         * (pref * np.exp(bx - np.real(bx))))
    even, odd = _even_odd(q, t)
    growth = np.exp(a * t * t + (np.real(bx) - a * x0 * x0))
    angle = t * (b - 2.0 * a * x0)
    cos, sin = np.cos(angle), np.sin(angle)
    return growth * (even * cos - odd * sin), growth * (even * sin + odd * cos)


def slice_cst(f: GaussPoly, x0: float, r: float) -> SliceValue:
    """Slice transform, heat flow then slice extension: ``_slice_split`` at t = r."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    alpha, beta = _slice_split(f.heat(), float(x0), float(r))
    return SliceValue(complex(alpha), complex(beta))


# Gauss-Legendre nodes and half-width of the Fourier-side slice quadrature
FOURIER_NODES, FOURIER_CUTOFF = 240, 12.0


def slice_cst_fourier(f: GaussPoly, x0: float, r: float) -> SliceValue:
    """Quadrature cross-check of the slice transform through the Fourier side:

        (1/sqrt(2 pi)) int e^{-p^2/2} e^{i p x0}
                           [cosh(p r) + i w sinh(p r)] ft(p) dp
    """
    ft = f.fourier()
    # e^{-p^2/2} is in w
    p, w = _legendre_grid(FOURIER_NODES, -FOURIER_CUTOFF, FOURIER_CUTOFF, 0.5)
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
    u, w = leggauss(n)
    half = (hi - lo) / 2
    x = (hi + lo) / 2 + half * u
    wx = half * w * np.exp(-decay * x * x)
    x.flags.writeable = False
    wx.flags.writeable = False
    return x, wx


def _axial_from_smooth(g: GaussPoly, m: int, x0: float, xv, order: int | None,
                       tol: float) -> CliffordElement:
    """Axial extension of an already-smoothed function, evaluated at a point.

    Sums x^j g^(j)(x0) / (c_1 ... c_j) with the recursion constants c_j, read
    off one Taylor expansion of g at x0: the coefficients g^(j)(x0)/j! are
    weighted by j!/(c_1 ... c_j), and the even and odd parts are summed
    against (-r^2)^i.  The dropped tail is certified from the exact g via a
    Cauchy bound: |g^(j)(x0)| <= j! M_R/R^j and c_1...c_j >= j! give
    tail <= M_R (r/R)^(N+1) / (1 - r/R).
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
    # j!/(c_1 ... c_j) as a running product of ratios <= 1, so nothing overflows
    weights = np.cumprod([1.0] + [j / gck_denominator(m, j) for j in range(1, order + 1)])
    terms = g.taylor(x0, order) * weights
    powers = (-r2) ** np.arange(order // 2 + 1)   # (-r^2)^i
    value_s = complex(np.sum(terms[0::2] * powers))
    value_v = complex(np.sum(terms[1::2] * powers[:(order + 1) // 2]))
    return axial_element(m, value_s, xv, value_v)


def axial_cst(f: GaussPoly, m: int, x0: float, xv, order: int | None = None,
              tol: float = 1e-10) -> CliffordElement:
    """Axial transform: heat flow followed by the axial extension."""
    return _axial_from_smooth(f.heat(), m, x0, xv, order, tol)


def axial_cst_radon_route(f: GaussPoly, m: int, x0: float, xv, rule: NodeRule) -> CliffordElement:
    """The same transform through the dual Radon transform of the slice route."""
    return _radon_of_entire(f.heat(), m, x0, xv, rule)


def _radon_of_entire(F: GaussPoly, m: int, x0: float, xv, rule: NodeRule) -> CliffordElement:
    """The rule's plane-wave mean of the slice split of F at x0."""
    a, v, _ = rule.plane_wave_mean(xv, functools.partial(_slice_split, F, float(x0)))
    return axial_element(m, a.item(), v[0].tolist(), 1)


def fueter_cst(f: GaussPoly, m: int, x0: float, xv, order: int | None = None,
               tol: float = 1e-10) -> CliffordElement:
    """Slice-to-axial CST: gamma_m times the axial extension of the
    (m-1)-th derivative of the smoothed function."""
    g = f.heat().derivatives(m - 1)[-1]
    return _axial_from_smooth(g, m, x0, xv, order, tol).scale(_gamma(m))


@functools.lru_cache(maxsize=None)
def _gamma(m: int) -> complex:
    """gamma_m as a complex float, computed once per m from the exact constant."""
    return to_complex(constants(m).gamma)


def fueter_cst_routes(f: GaussPoly, m: int, x0: float, xv, rule: NodeRule,
                      tol: float = 1e-10) -> dict[str, CliffordElement]:
    """All three routes to the slice-to-axial CST at one point.

    heat_then_derivative is ``fueter_cst``; derivative_then_heat uses the
    commutation of the derivative with the heat flow; the radon route goes
    through the slice transform.
    """
    gamma = _gamma(m)
    d_then_heat = f.derivatives(m - 1)[-1].heat()
    return {
        "heat_then_derivative": fueter_cst(f, m, x0, xv, None, tol),
        "derivative_then_heat": _axial_from_smooth(d_then_heat, m, x0, xv, None, tol).scale(gamma),
        "radon_of_slice": _radon_of_entire(d_then_heat, m, x0, xv, rule).scale(gamma),
    }


# (nx, nr) Gauss-Legendre levels of the coarse and fine Gram quadrature, on
# x0 in [-GRAM_X_CUT, GRAM_X_CUT] and r in [0, GRAM_R_CUT]
DEFAULT_QUAD_LEVELS: tuple[tuple[int, int], tuple[int, int]] = ((40, 24), (96, 64))
GRAM_X_CUT, GRAM_R_CUT = 13.0, 9.0


@dataclass(frozen=True)
class UnitarityResult:
    lhs: complex
    rhs: complex
    rhs_coarse: complex
    residual: float
    residual_coarse: float

    @property
    def converging(self) -> bool:
        return self.residual <= self.residual_coarse + 1e-12

    def to_json(self) -> dict:
        return {
            "lhs_re": self.lhs.real, "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real, "rhs_im": self.rhs.imag,
            "residual": self.residual,
            "residual_coarse": self.residual_coarse,
            "quad_levels": [list(lv) for lv in DEFAULT_QUAD_LEVELS],
            "converging": self.converging,
        }


def unitarity_gram(fs: Sequence[GaussPoly], gs: Sequence[GaussPoly],
                   m: int) -> list[list[UnitarityResult]]:
    """Inner product identity of the slice transform; entry [i][j] is the
    pair (fs[i], gs[j]).

    lhs is the line inner product of f and g; rhs integrates the slice
    transforms against the Gaussian radial measure, the sphere directions
    having been integrated out exactly (odd terms vanish, w*w = sigma_m):
    (2/sqrt(pi)) iint [conj(alpha_f) alpha_g + conj(beta_f) beta_g] e^(-r^2) dr dx0.
    Once the sphere is integrated out the reduced identity no longer
    depends on m, so ``m`` is not read; it stays in the signature to name
    the space the identity is about.  The identity is checked at two
    quadrature levels, ``DEFAULT_QUAD_LEVELS``.  ``f.heat()``, the line
    integral of conj(f) g and the split of f.heat() on each level's grid are
    kept in the memos of f and f.heat(), so a later call, for any m, sums
    only products of splits it has, and for a pair it has seen computes
    nothing new.
    """
    coarse, fine = [], []   # rhs of the pairs, row by row
    for (nx, nr), rhs in zip(DEFAULT_QUAD_LEVELS, (coarse, fine)):
        xs, wxs = _legendre_grid(nx, -GRAM_X_CUT, GRAM_X_CUT)
        rs, wrs = _legendre_grid(nr, 0.0, GRAM_R_CUT, 1.0)   # e^{-r^2} is in wrs
        for (af, bf), (ag, bg) in product([_gram_split(f.heat(), xs, rs) for f in fs],
                                          [_gram_split(g.heat(), xs, rs) for g in gs]):
            total = np.einsum("i,j,ij->", wxs, wrs, np.conj(af) * ag + np.conj(bf) * bg)
            rhs.append(complex(2.0 / math.sqrt(math.pi) * total))
    # conj(f) g on the line, kept in f's memo under id(g) with g itself,
    # which holds that id for as long as the entry lives
    lhs = [f._cached(("line", id(g)),
                     lambda: (g, to_complex((f.conjugate() * g).integrate_line())))[1]
           for f, g in product(fs, gs)]
    flat = [UnitarityResult(a, b, c, abs(b - a), abs(c - a)) for a, b, c in zip(lhs, fine, coarse)]
    return [flat[i * len(gs):(i + 1) * len(gs)] for i in range(len(fs))]


def _gram_split(F: GaussPoly, xs: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slice split of the smoothed F on the Gram grid, the column xs
    against the row rs, kept read-only in F's memo under the grid's shape
    (nx, nr), the level: the cuts are fixed."""
    def build():
        alpha, beta = _slice_split(F, xs[:, None], rs)
        alpha.flags.writeable = beta.flags.writeable = False
        return alpha, beta
    return F._cached(("gram", (len(xs), len(rs))), build)


def unitarity_check(f: GaussPoly, g: GaussPoly, m: int) -> UnitarityResult:
    """The entry of ``unitarity_gram`` for the one pair (f, g)."""
    return unitarity_gram([f], [g], m)[0][0]
