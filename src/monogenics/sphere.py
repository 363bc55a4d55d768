"""Integration over the unit sphere S^(m-1): an exact monomial rule, a
product Gauss rule, and Monte Carlo for independent validation.

The monomial rule uses the classical closed form

    int_{S^(m-1)} w^a dS = 2 prod_i Gamma((a_i+1)/2) / Gamma((|a|+m)/2)

for all-even multi-indices (zero otherwise), carried exactly with the pi
powers symbolic; it is validated against Monte Carlo in the test suite
before anything downstream relies on it.

Divided by sigma_m = |S^(m-1)| the pi powers cancel, and the normalized
moment is the plain rational

    (1/sigma_m) int_{S^(m-1)} w^a dS = prod_i (a_i-1)!! / prod_{j<|a|/2} (m+2j)

(Folland, "How to integrate a polynomial over a sphere", Amer. Math.
Monthly 108, 2001).  ``sphere_moment`` computes it over Q; the dual Radon
transform runs on it, and the tests tie it to the validated rule exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import roots_jacobi

from .clifford import CliffordElement
from .constants import sphere_area
from .scalars import PiScalar, double_factorial, gamma_half


def monomial_sphere_integral(m: int, exps: tuple[int, ...]) -> PiScalar:
    """Exact integral of prod_i w_i^(a_i) over S^(m-1); zero unless all even."""
    if len(exps) != m:
        raise ValueError("need one exponent per component")
    if any(e < 0 for e in exps):
        raise ValueError("negative exponent")
    if any(e % 2 for e in exps):
        return PiScalar()
    num = PiScalar.of(2)
    for e in exps:
        num = num * gamma_half(e + 1)
    return num / gamma_half(sum(exps) + m)


def sphere_moment(m: int, exps: tuple[int, ...]) -> Fraction:
    """Mean of prod_i w_i^(a_i) over S^(m-1), exactly; zero unless all even."""
    if len(exps) != m:
        raise ValueError("need one exponent per component")
    if any(e < 0 for e in exps):
        raise ValueError("negative exponent")
    if any(e % 2 for e in exps):
        return Fraction(0)
    num = 1
    for e in exps:
        num *= double_factorial(e - 1)
    den = 1
    for j in range(sum(exps) // 2):
        den *= m + 2 * j
    return Fraction(num, den)


@dataclass(frozen=True)
class ExactMonomialRule:
    m: int
    kind: str = "exact"

    def integrate_monomial(self, exps: tuple[int, ...]) -> PiScalar:
        return monomial_sphere_integral(self.m, exps)

    def sigma(self) -> PiScalar:
        return self.integrate_monomial((0,) * self.m)


class ProductGaussRule:
    """Product quadrature on S^(m-1), exact for polynomials of degree
    <= 2*level-1 in the sphere variables.

    Built recursively: Gauss-Jacobi nodes in each polar cosine with weight
    (1-u^2)^((d-3)/2), equally spaced points on the base circle, two points
    for S^0.  Nodes come in antipodal pairs, so odd monomials cancel to
    rounding.
    """

    kind = "gauss"

    def __init__(self, m: int, level: int = 16):
        self.m = m
        self.level = level
        nodes, weights = _sphere_product_rule(m, level)
        self.nodes = nodes          # (n, m)
        self.weights = weights      # (n,)

    def sigma(self) -> float:
        return float(self.weights.sum())

    def integrate_scalar(self, values: np.ndarray):
        return np.tensordot(self.weights, values, axes=(0, 0))


def _sphere_product_rule(m: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    if m == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if m == 2:
        n = max(2 * level, 4)
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(n, 2.0 * np.pi / n)
        return nodes, weights
    sub_nodes, sub_weights = _sphere_product_rule(m - 1, level)
    alpha = (m - 3) / 2.0
    u, wu = roots_jacobi(level, alpha, alpha)
    s = np.sqrt(1.0 - u**2)
    nodes = np.concatenate(
        [
            np.concatenate(
                [np.full((len(sub_nodes), 1), ui), si * sub_nodes], axis=1
            )
            for ui, si in zip(u, s)
        ]
    )
    weights = np.concatenate([wi * sub_weights for wi in wu])
    return nodes, weights


class MonteCarloRule:
    """Uniform Monte Carlo on S^(m-1) from a seeded generator."""

    kind = "mc"

    def __init__(self, m: int, n: int, seed: int):
        if n < 2:
            raise ValueError("Monte Carlo needs n >= 2 samples for a standard error")
        self.m = m
        self.n = n
        self.seed = seed
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, m))
        self.nodes = v / np.linalg.norm(v, axis=1, keepdims=True)
        self._sigma = float(sphere_area(m))

    def sigma(self) -> float:
        return self._sigma

    def estimate(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(integral estimate, standard error) of pointwise sample values.

        ``values`` holds real float samples, one per row: shape (n,) or
        (n, k) for k components.  Each component is reduced along
        contiguous memory (a transposed copy, one row per component, that
        the centring and squaring then overwrite): the mean, then the
        centred two-pass sample variance with one degree of freedom taken
        off, as ``np.mean`` and ``np.std(ddof=1)`` compute them.  Constant
        samples give a standard error of exactly zero.
        """
        rows = np.array(np.asarray(values).T, order="C")
        mean = rows.mean(axis=-1)
        rows -= mean[..., None]
        np.multiply(rows, rows, out=rows)
        var = rows.sum(axis=-1) / (rows.shape[-1] - 1)
        se = np.sqrt(var) / math.sqrt(self.n)
        return self._sigma * mean, self._sigma * se

    def integrate_monomial(self, exps: tuple[int, ...]) -> tuple[float, float]:
        if len(exps) != self.m:
            raise ValueError("need one exponent per component")
        # only the columns with a nonzero exponent enter the product
        vals = np.ones(self.n)
        for j, e in enumerate(exps):
            if e:
                vals *= self.nodes[:, j] ** e
        est, se = self.estimate(vals)
        return float(est), float(se)


def sphere_integrate(poly_terms: dict, rule) -> object:
    """Integrate an omega-polynomial given as {exponent tuple: coefficient}
    exactly under the monomial rule (coefficients may be scalars or
    CliffordElements).
    """
    if not isinstance(poly_terms, dict):
        raise TypeError("sphere_integrate needs an omega-polynomial term table")
    if isinstance(rule, ExactMonomialRule):
        out = None
        for exps, coeff in poly_terms.items():
            w = rule.integrate_monomial(tuple(exps))
            if w.is_zero():
                continue
            term = coeff.scale(w) if isinstance(coeff, CliffordElement) else coeff * w
            out = term if out is None else out + term
        if out is None:
            return PiScalar()
        return out
    raise TypeError("sphere_integrate needs an exact monomial rule")


def funk_hecke_constants(m: int, j: int) -> tuple[PiScalar, PiScalar]:
    """(C0, C1) with int <x,w>^j dS = C0 |x|^j (j even, else 0) and
    int <x,w>^j w dS = C1 |x|^(j-1) x (j odd, else 0).

    Computed by expanding <x,w>^j against the exact monomial rule with the
    x components symbolic, and checking that the resulting polynomial in x
    really is the stated multiple of the appropriate power of |x|^2.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    zero = PiScalar()
    c0 = _radialized(m, j, with_omega=False) if j % 2 == 0 else zero
    c1 = _radialized(m, j, with_omega=True) if j % 2 == 1 else zero
    return c0, c1


def _radialized(m: int, j: int, with_omega: bool) -> PiScalar:
    # <x,w>^j = sum over |a| = j of multinomial(j; a) x^a w^a: integrate each
    # term (optionally times w_1) and collect on the x-monomials x^a
    poly: dict[tuple[int, ...], PiScalar] = {}
    for a in _compositions(j, m):
        w_exp = (a[0] + 1, *a[1:]) if with_omega else a
        val = monomial_sphere_integral(m, w_exp)
        if not val.is_zero():
            poly[a] = val * _multinomial(a)
    if not poly:
        return PiScalar()
    # expected shape: C * (sum_i x_i^2)^t  or  C * (sum_i x_i^2)^t * x_1,
    # t = j // 2 either way since j is odd in the second case
    c = poly[(j, *(0,) * (m - 1))]
    expected: dict[tuple[int, ...], PiScalar] = {}
    for b in _compositions(j // 2, m):
        key = tuple(2 * e for e in b)
        if with_omega:
            key = (key[0] + 1, *key[1:])
        expected[key] = c * _multinomial(b)
    if expected != poly:
        raise AssertionError("radialization failed: integral is not radial")
    return c


def _compositions(total: int, parts: int):
    """Every exponent vector with ``parts`` entries summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def _multinomial(a: tuple[int, ...]) -> int:
    return math.factorial(sum(a)) // math.prod(map(math.factorial, a))
