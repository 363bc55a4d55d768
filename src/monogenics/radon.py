"""The dual Radon transform (sphere average over hyperplane projections)
and the plane-wave decompositions it induces.

On a slice function f the transform is
    R*[f](x0, x) = (1/sigma_m) int_{S^(m-1)} f(x0, <x,w> w) dS_w ,
computed exactly on polynomials by substituting x_j -> w_j <x,w> and
averaging the resulting omega-polynomial with the rational sphere moments,
the numerators of ``scalars.sphere_moment`` built one coordinate at a time,
so the exact transform runs over Q without numpy.  On data of every kind
(see ``poly``) each packed key gives its vector exponents, the bits above
the x1 field, and its image's keys are its x0 field and blade plus the
packed exponents of each image monomial, at a width that holds the vector
degree; on int numerators every weight is an integer over D = prod_{j<top}
(m + 2j), the moments' common denominator at the top vector degree, and
each key's numerator is scaled to D once.  Two tables, built on first use
and kept for the process as ``poly.paravector_power`` keeps its powers,
hold what depends on the exponents alone: ``_monomial_image``, per sorted
vector exponent s, the image's monomials and integer weights, which every
permutation of s shares; and ``_OFFSETS``, per (m, width, packed vector
exponents), the offsets that add each image monomial to a key, 8 bytes
each while they fit 63 bits, else a tuple.  At the largest accepted run,
``verify radon --m 6 --max-degree 10``, they hold 198 images of 8,853
monomials and 3,222 offset rows of 268,038 offsets (2.1 MB).

The numeric routes (the plane-wave check and the kernel plane waves, which
average a power of z) share one slice path, ``_slice_plane_wave``, the
numeric transform of a slice function at a point: its split gives the
slice values alpha + w beta in closed form in the signed radius t = <x,w>,
real on every channel, and the rule's ``plane_wave_mean`` sums them over
the nodes (Monte Carlo, a block at a time, adds the spread).  Only that
path imports numpy, when it first runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from operator import lshift
from typing import TYPE_CHECKING, Sequence

from .axial import AxialClosedForm
from .clifford import CliffordElement, axial_element, nan_max
from .constants import constants
from .extensions import gck_extension, slice_extension
from .laurent import LaurentPoly
from .poly import CliffordPolynomial, _compact, _exponents, _fields, _fit, _rational, _repacked, _view
from .scalars import double_factorial, to_complex

if TYPE_CHECKING:
    from .sphere import NodeRule


# (m, width, packed vector exponents) -> their sorted form and the packed key
# offsets of its image, in the order of ``_monomial_image``; see dual_radon
_OFFSETS: dict[tuple[int, int, int], tuple[tuple[int, ...], bytes | tuple[int, ...]]] = {}


def dual_radon(f: CliffordPolynomial) -> CliffordPolynomial:
    """Exact dual Radon transform of a polynomial; output is again polynomial.

    Each term c * x0^e0 * x^a becomes, after substitution, c * x0^e0 *
    w^a <x,w>^|a|.  Expanding the bracket gives the monomials x^b with
    |b| = |a|, each weighted by its multinomial coefficient and the
    normalized sphere moment of w^(a+b); only the b with a+b all even, the
    moments that do not vanish, are visited.  All weights are rational.
    """
    m, (den, flat) = f.m, f._ints
    # an image exponent reaches the vector degree, which the sum of the fieldwise bounds holds
    width = max(f._width, _fit(sum(_fields(m, flat, f._width)[1:])))
    flat = _repacked(m, flat, f._width, width)
    shift = m + width                   # the x1 field: the vector exponents lie above it
    offsets = {v: _image_offsets(m, width, v) for v in {key >> shift for key in flat}}
    top = max((sum(s) for s, _ in offsets.values()), default=0)
    D = math.prod(range(m, m + 2 * top, 2))
    # ints take integer weights over D, scaled once per key; other data
    # rational weights, as a float cannot hold the integers over D past a
    # vector degree of about 150
    exact = _rational(flat)
    weights, placed = {}, {}
    for v, (s, offs) in offsets.items():
        if s not in weights:
            den_s = math.prod(range(m, m + 2 * sum(s), 2))
            ws = _monomial_image(s)[1]
            weights[s] = (ws, D // den_s) if exact else (tuple(Fraction(w, den_s) for w in ws), None)
        placed[v] = offs, *weights[s]
    sums: dict[int, object] = {}
    get = sums.get
    low = (1 << shift) - 1
    for key, n in flat.items():
        offs, ws, scale = placed[key >> shift]
        base = key & low                # x0 and the blade stay
        if exact:
            n *= scale
        for off, w in zip(offs, ws):
            out = base + off
            sums[out] = get(out, 0) + n * w
    return CliffordPolynomial._packed(m, width, den * D if exact else den, sums)


def _image_offsets(m: int, width: int, v: int) -> tuple[tuple[int, ...], Sequence[int]]:
    """The sorted form s of the m vector exponents packed in v, ``width``
    bits each, and the key offsets that place each monomial of the image of
    s on the fields of v: the image of v is that of s, which every
    permutation of s shares, placed by the sorting order.  Built once per
    (m, width, v) and kept."""
    if (entry := _OFFSETS.get((m, width, v))) is None:
        vec = _exponents(m - 1, v, width)
        order = sorted(range(m), key=vec.__getitem__)
        s = tuple(vec[i] for i in order)
        shifts = [m + width * (1 + i) for i in order]
        entry = _OFFSETS.setdefault((m, width, v), (s, _compact([sum(map(lshift, combo, shifts))
                                                                  for combo in _monomial_image(s)[0]])))
    return entry[0], _view(entry[1])


@functools.lru_cache(maxsize=None)
def _monomial_image(vec: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The monomials x^b of w^vec <x,w>^|vec| whose sphere moment does not
    vanish, those with the parities of vec, and each one's multinomial
    coefficient times prod_i (a_i + b_i - 1)!!, the numerator of the moment
    of w^(vec+b) over prod_(j<|vec|) (m + 2j) (``scalars.sphere_moment``),
    built one coordinate at a time.  Kept per vec, as tuples."""
    level = [((), sum(vec), 1)]
    for i, a in enumerate(vec):
        level = [(combo + (b,), rest - b, w * math.comb(rest, b) * double_factorial(a + b - 1))
                 for combo, rest, w in level
                 for b in (range(a % 2, rest + 1, 2) if i < len(vec) - 1 else (rest,))]
    return tuple(combo for combo, _, _ in level), tuple(w for _, _, w in level)


def _slice_plane_wave(f0: LaurentPoly, m: int, rule: NodeRule, x0, xv
                      ) -> tuple[CliffordElement, float | None]:
    """Sphere mean of the slice extension of f0, and its standard error.

    f0 = sum_c P_c(z) u_c: one real polynomial P_c per blade and real or
    imaginary part, with the unit u_c = e_A or i e_A acting from the right.
    P_c has the slice value Re P_c(z) + w Im P_c(z) at z = x0 + it.  With
    n = -lo, 1/z^n = (x0 - it)^n / (x0^2 + t^2)^n, so one Q(s) = P(x0 + s)
    (x0 - s)^n for all channels gives Re = sum_j Q_2j (-t^2)^j / (x0^2 +
    t^2)^n and Im = t sum_j Q_(2j+1) (-t^2)^j / (x0^2 + t^2)^n, in reals.
    """
    import numpy as np
    from .sphere import _even_odd, _shift_matrix

    lo = min(f0.min_exp(), 0)
    rows: dict[tuple[int, bool], np.ndarray] = {(0, False): np.zeros(f0.max_exp() - lo + 1)}
    for k, c in f0.terms.items():
        for mask, b in (c.coeffs if isinstance(c, CliffordElement) else {0: c}).items():
            b = to_complex(b)
            for imag, part in ((False, b.real), (True, b.imag)):
                if part:
                    rows.setdefault((mask, imag), np.zeros_like(rows[0, False]))[k - lo] = part
    keys = sorted(rows)
    x0, n = float(x0), -lo
    shifted = np.einsum("kj,jc->kc", _shift_matrix(len(rows[0, False]), x0),
                        np.column_stack([rows[key] for key in keys]))
    r = [math.comb(n, j) * (-1) ** j * x0 ** (n - j) for j in range(n + 1)]   # (x0 - s)^n
    q = np.column_stack([np.convolve(col, r) for col in shifted.T])
    work: dict = {}

    def split(t):
        if n and x0 == 0 and not t.all():   # x0 + it vanishes only if x0 does
            raise ZeroDivisionError("negative powers require x0 + <x,w> w != 0")
        alpha, beta = _even_odd(q, t, work)
        if n:
            scale = (x0 * x0 + t * t) ** -n
            alpha *= scale
            beta *= scale
        return alpha, beta

    a, v, se = rule.plane_wave_mean(xv, split)
    # a scalar unit scales; only a blade unit needs the Clifford product
    units = [CliffordElement(m, {mask: 1j if imag else 1.0}) if mask else 1j if imag else 1.0
             for mask, imag in keys]
    parts = [axial_element(m, u * ac, vc, u) for u, ac, vc in zip(units, a.tolist(), v.tolist())]
    return sum(parts[1:], parts[0]), se


@dataclass(frozen=True)
class ResidualReport:
    """``exact`` is the rule's kind of comparison; if exact, ``residual`` counts failures."""

    check: str
    m: int
    degree: int
    rule: str
    residual: float
    exact: bool
    stderr: float | None = None

    def to_json(self) -> dict:
        d = asdict(self)
        if self.stderr is None:
            del d["stderr"]
        return d


def plane_wave_gck_check(f0: LaurentPoly, m: int, rule,
                         point: tuple | None = None) -> ResidualReport:
    """Compare (1/sigma_m) int S[f0](x0 + <x,w>w) dS against the axial
    extension of f0: exact polynomial equality under the monomial rule
    (residual 1.0 when it fails), pointwise residual under node rules.

    Under a node rule the sphere mean is the rule's plane-wave mean of the
    slice values, for scalar, complex and Clifford-valued coefficients
    alike, and the residual is the largest blade coefficient of its gap to
    the value of the axial series, with no Cartesian expansion.  Monte Carlo
    checks only the first point, and the report carries its largest standard
    error divided by sigma_m.
    """
    if not f0.is_polynomial():
        raise ValueError("plane-wave check needs polynomial data")
    deg = f0.max_exp()
    gck = gck_extension(f0, m)
    if rule.kind == "exact":
        lhs = dual_radon(slice_extension(f0, m).to_polynomial())
        return ResidualReport("gck_plane_wave", m, deg, "exact",
                              float(lhs != gck.to_polynomial()), True)
    points = [point] if point is not None else _check_points(m)
    gaps = []
    for x0, xv in points[:1] if rule.kind == "mc" else points:
        lhs, se = _slice_plane_wave(f0, m, rule, x0, xv)
        gaps.append((lhs - gck.evaluate(x0, xv).to_numeric()).norm_inf())
    return ResidualReport("gck_plane_wave", m, deg, rule.label, nan_max(gaps), False, se)


def _check_points(m: int) -> list[tuple[float, tuple]]:
    base = [0.3, -0.25, 0.2, 0.15, -0.1, 0.05][:m]
    return [
        (1.0, tuple(base)),
        (0.7, tuple(0.5 * b for b in base)),
        (-0.9, tuple(base)),
    ]


def _plane_wave_vs_closed(m: int, exponent: int, const: float, closed: AxialClosedForm,
                          point: tuple, rule: NodeRule) -> float:
    """Residual of const times the sphere mean of (x0 + <x,w> w)^exponent
    against the closed form, which carries sgn(x0)^(m+1), at the point."""
    x0, xv = point[0], list(point[1:])
    if x0 == 0:
        raise ValueError("plane-wave form needs x0 != 0 on the chosen points")
    mean = _slice_plane_wave(LaurentPoly.monomial(exponent), m, rule, x0, xv)[0]
    return (mean.scale(const) - closed.evaluate(x0, xv).to_numeric()).norm_inf()


def cauchy_plane_wave_check(m: int, point: tuple, rule: NodeRule) -> float:
    """Residual of the plane-wave form of the Cauchy kernel at one point:

        E(x) = sgn(x0)^(m+1) / (sigma_m sigma_(m+1))
               * int (x0 + <x,w> w)^(-m) dS_w ,

    against the closed form, off the singular set."""
    return _plane_wave_vs_closed(m, -m, *_cauchy_form(m), point, rule)


def monomial_plane_wave_check(m: int, k: int, point: tuple, rule: NodeRule) -> float:
    """Plane-wave representation of the negative-order monomial P^(-k):
    constant * sgn(x0)^(m+1)/sigma_m * int (x0 + <x,w>w)^(1-k-m) dS."""
    return _plane_wave_vs_closed(m, 1 - k - m, *_monomial_form(m, k), point, rule)


# The closed forms depend on (m, k) alone and are only evaluated, so each is
# built once rather than once per checked point, with the plane waves'
# sgn(x0)^(m+1) moved onto it.
@functools.lru_cache(maxsize=None)
def _cauchy_form(m: int) -> tuple[float, AxialClosedForm]:
    from .kernels import cauchy_kernel

    # 1/sigma_m is in the mean
    return 1.0 / float(constants(m).sigma_next), replace(cauchy_kernel(m), sign_power=m + 1)


@functools.lru_cache(maxsize=None)
def _monomial_form(m: int, k: int) -> tuple[float, AxialClosedForm]:
    from .kernels import monogenic_monomial, monomial_constant

    return float(monomial_constant(m, k)), replace(monogenic_monomial(m, -k), sign_power=m + 1)
