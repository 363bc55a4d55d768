"""The dual Radon transform (sphere average over hyperplane projections)
and the plane-wave decompositions it induces.

On a slice function f the transform is
    R*[f](x0, x) = (1/sigma_m) int_{S^(m-1)} f(x0, <x,w> w) dS_w ,
computed exactly on polynomials by substituting x_j -> w_j <x,w> and
averaging the resulting omega-polynomial with the rational sphere moments
of ``sphere.sphere_moment``, so the exact transform runs over Q.

The numeric routes (pointwise transform, plane-wave forms of the kernels)
are evaluated on the rule's node arrays: ``t = nodes @ x`` once, the
in-plane power of ``x0 + i t`` on the whole array, and the weighted sums
of its real part and of its imaginary part times the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
import numpy as np

from .clifford import CliffordElement, axial_element
from .constants import sphere_area
from .extensions import SliceFunction, gck_extension, slice_extension
from .laurent import LaurentPoly
from .poly import CliffordPolynomial
from .scalars import to_complex
from .sphere import ExactMonomialRule, MonteCarloRule, ProductGaussRule, sphere_moment


def dual_radon(f: CliffordPolynomial) -> CliffordPolynomial:
    """Exact dual Radon transform of a polynomial; output is again polynomial.

    Each term c * x0^e0 * x^a becomes, after substitution, c * x0^e0 *
    w^a <x,w>^|a|.  Expanding the bracket gives the monomials x^b with
    |b| = |a|, each weighted by its multinomial coefficient and the
    normalized sphere moment of w^(a+b); only the b with a+b all even, the
    moments that do not vanish, are visited.  All weights are rational.
    """
    m = f.m
    # images of sorted exponents, shared by every permutation of them
    images: dict[tuple[int, ...], list[tuple[tuple[int, ...], Fraction]]] = {}
    sums: dict[tuple[int, ...], dict[int, object]] = {}
    for exps, coeff in f.terms.items():
        e0, vec = exps[0], exps[1:]
        order = sorted(range(m), key=vec.__getitem__)
        key = tuple(vec[i] for i in order)
        image = images.get(key)
        if image is None:
            image = images[key] = _monomial_image(m, key)
        place = sorted(range(m), key=order.__getitem__)   # inverse of order
        for combo, weight in image:
            blades = sums.setdefault((e0, *map(combo.__getitem__, place)), {})
            for mask, c in coeff.coeffs.items():
                term = c * weight
                blades[mask] = blades[mask] + term if mask in blades else term
    return CliffordPolynomial(m, {key: CliffordElement(m, blades) for key, blades in sums.items()})


def _monomial_image(m: int, vec: tuple[int, ...]) -> list[tuple[tuple[int, ...], Fraction]]:
    """(combo, weight) pairs of the sphere mean of w^vec <x,w>^|vec|."""
    total = sum(vec)
    fact = math.factorial(total)
    return [(combo, sphere_moment(m, tuple(map(add, vec, combo)))
             * (fact // math.prod(map(math.factorial, combo))))
            for combo in _same_parity(vec, total)]


def _same_parity(vec: tuple[int, ...], total: int):
    """Every combo with the parities of ``vec`` whose entries sum to ``total``."""
    if len(vec) == 1:
        yield (total,)
        return
    for head in range(vec[0] % 2, total + 1, 2):
        for tail in _same_parity(vec[1:], total - head):
            yield (head, *tail)


def dual_radon_pointwise(sf: SliceFunction, rule: ProductGaussRule, x0, xv) -> CliffordElement:
    """Numeric dual Radon transform of a slice function at a point.

    Along w the term c x^n takes the value Re(z^n) c + w Im(z^n) c at
    z = x0 + i<x,w>, the signed <x,w> carrying the orientation of w.  The
    sphere mean is linear in c, so each term adds c times the weighted sum
    of Re z^n and e_j c times that of w_j Im z^n, all on the rule's nodes
    at once.
    """
    m = sf.m
    z = float(x0) + 1j * (rule.nodes @ np.asarray(xv, dtype=float))
    if sf.f0.min_exp() < 0 and not z.all():
        raise ZeroDivisionError("negative powers require x0 + <x,w> w != 0")
    sig = rule.sigma()
    acc = CliffordElement.zero(m)
    for n, c in sf.f0.terms.items():
        zn = z**n
        vec = (rule.weights * zn.imag) @ rule.nodes / sig
        acc = acc + axial_element(m, float(rule.weights @ zn.real) / sig * c, vec.tolist(), c)
    return acc


@dataclass(frozen=True)
class ResidualReport:
    check: str
    m: int
    degree: int
    rule: str
    residual: float
    exact: bool
    stderr: float | None = None

    def to_json(self) -> dict:
        d = {
            "check": self.check,
            "m": self.m,
            "degree": self.degree,
            "rule": self.rule,
            "residual": self.residual,
            "exact": self.exact,
        }
        if self.stderr is not None:
            d["stderr"] = self.stderr
        return d


def plane_wave_gck_check(f0: LaurentPoly, m: int, rule,
                         point: tuple | None = None) -> ResidualReport:
    """Compare (1/sigma_m) int S[f0](x0 + <x,w>w) dS against the axial
    extension of f0: exact polynomial equality under the monomial rule,
    pointwise residual under numeric rules.

    Under Monte Carlo only the first point is checked.  Along each sampled
    direction w the slice value is f0(z) = Re f0(z) + w Im f0(z) at
    z = x0 + i<x,w>, with f0 (scalar coefficients) evaluated by Horner on
    the whole sample array; the scalar part and the m vector components
    are estimated from Re f0(z) and w Im f0(z), and the report carries the
    largest residual and the largest standard error, both divided by
    sigma_m.
    """
    if not f0.is_polynomial():
        raise ValueError("plane-wave check needs polynomial data")
    deg = f0.max_exp()
    sf = slice_extension(f0, m)
    gck_poly = gck_extension(f0, m).to_polynomial()
    if isinstance(rule, ExactMonomialRule):
        lhs = dual_radon(sf.to_polynomial())
        ok = lhs == gck_poly
        gap = 0.0 if ok else (lhs.map_coeffs(lambda c: c.to_numeric())
                              - gck_poly.map_coeffs(lambda c: c.to_numeric())).norm_inf()
        return ResidualReport("gck_plane_wave", m, deg, "exact", gap, ok)
    points = [point] if point is not None else _check_points(m)
    if isinstance(rule, ProductGaussRule):
        worst = 0.0
        for x0, xv in points:
            lhs = dual_radon_pointwise(sf, rule, x0, xv)
            rhs = gck_poly.evaluate(x0, xv).to_numeric()
            worst = max(worst, (lhs - rhs).norm_inf())
        return ResidualReport("gck_plane_wave", m, deg, f"gauss:{rule.level}", worst, False)
    if isinstance(rule, MonteCarloRule):
        x0, xv = points[0]
        # slice values f0(z) along each plane direction, by Horner in place
        z = x0 + 1j * (rule.nodes @ np.asarray(xv, dtype=float))
        vals = np.full_like(z, complex(f0.coeff(deg)))
        for n in range(deg - 1, -1, -1):
            vals *= z
            vals += complex(f0.coeff(n))
        scalar_est, scalar_se = rule.estimate(vals.real)
        vec_est, vec_se = rule.estimate(rule.nodes * vals.imag[:, None])
        rhs = gck_poly.evaluate(x0, xv).to_numeric()
        sig = rule.sigma()
        resid = abs(scalar_est / sig - to_complex(rhs.scalar_part()).real)
        comps = rhs.vector_components()
        for j in range(m):
            resid = max(resid, abs(vec_est[j] / sig - to_complex(comps[j]).real))
        se = float(max(scalar_se, *vec_se)) / sig
        return ResidualReport("gck_plane_wave", m, deg, f"mc:{rule.n}:{rule.seed}",
                              float(resid), False, se)
    raise TypeError("unsupported rule")


def _check_points(m: int) -> list[tuple[float, tuple]]:
    base = [0.3, -0.25, 0.2, 0.15, -0.1, 0.05][:m]
    return [
        (1.0, tuple(base)),
        (0.7, tuple(0.5 * b for b in base)),
        (-0.9, tuple(base)),
    ]


def _plane_wave_vs_closed(m: int, exponent: int, const: float, closed, point: tuple,
                          rule: ProductGaussRule) -> float:
    x0, xv = point[0], list(point[1:])
    if x0 == 0:
        raise ValueError("plane-wave form needs x0 != 0 on the chosen points")
    # inside the plane of 1 and w, (x0 + <x,w> w)^n = Re z^n + w Im z^n
    z = (float(x0) + 1j * (rule.nodes @ np.asarray(xv, dtype=float))) ** exponent
    vec = (rule.weights * z.imag) @ rule.nodes
    quad = axial_element(m, const * float(rule.weights @ z.real), vec.tolist(), const)
    closed_val = closed.evaluate(x0, xv).to_numeric()
    return (quad - closed_val).norm_inf()


def cauchy_plane_wave_check(m: int, point: tuple, rule: ProductGaussRule) -> float:
    """Residual of the plane-wave form of the Cauchy kernel at one point:

        E(x) = sgn(x0)^(m+1) / (sigma_m sigma_(m+1))
               * int (x0 + <x,w> w)^(-m) dS_w ,

    against the closed form, off the singular set."""
    from .kernels import cauchy_kernel

    x0 = point[0]
    sgn = 1.0 if x0 > 0 else (-1.0) ** (m + 1)
    const = sgn / (float(sphere_area(m)) * float(sphere_area(m + 1)))
    return _plane_wave_vs_closed(m, -m, const, cauchy_kernel(m), point, rule)


def monomial_plane_wave_check(m: int, k: int, point: tuple, rule: ProductGaussRule) -> float:
    """Plane-wave representation of the negative-order monomial P^(-k):
    constant * sgn(x0)^(m+1)/sigma_m * int (x0 + <x,w>w)^(1-k-m) dS."""
    from .kernels import monogenic_monomial, monomial_constant

    x0 = point[0]
    sgn = 1.0 if x0 > 0 else (-1.0) ** (m + 1)
    const = float(monomial_constant(m, k)) * sgn / float(sphere_area(m))
    closed = monogenic_monomial(m, -k).closed
    return _plane_wave_vs_closed(m, 1 - k - m, const, closed, point, rule)
