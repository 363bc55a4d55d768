"""Extension maps from the real axis: slice extension, intrinsic split, the
axial (CK-style) extension with its Bessel-series cross-check, and the Appell
polynomial family it generates.

The axial extension of ``f0`` is the series ``sum_j x^j f_j(x0)`` whose
coefficients obey the recursion forced by applying the Cauchy-Riemann
operator termwise with ``d_x x^j = -j x^(j-1)`` (j even) and
``-(m+j-1) x^(j-1)`` (j odd):

    f_j = f_{j-1}' / j        (j even)
    f_j = f_{j-1}' / (m+j-1)  (j odd)

On polynomial data the series terminates and everything here is exact.

Since x^2 = -|x|^2 is a scalar, no Clifford product is needed to reach the
Cartesian form or a value.  ``AxialSeries.to_polynomial`` writes x^j as
integer rows from a multinomial sum, packed once per process, and shifts
their x0 exponents by the powers of f_j; ``AxialSeries.evaluate`` sums the
even and the odd terms as two scalars and returns ``even + x * odd``.  The
slice extension and ``appell_sum`` keep their polynomial products, as
independent witnesses; both read x^k from ``poly.paravector_power``, which
builds each power once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .axial import RhoExpr
from .clifford import BLADE_TABLE, CliffordElement, axial_element
from .laurent import LaurentPoly
from .poly import CliffordPolynomial, _as_ints, _compact, _fit, _pack, _view, paravector_power
from .scalars import (PiScalar, _compositions, _multinomial, canon, gamma_half, pochhammer,
                      sqrt_exact_or_float)

# (m, s, width) -> the packed rows of x^(2s), see _even_rows
_EVEN_ROWS: dict[tuple[int, int, int], tuple[bytes | tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = {}


# ---------------------------------------------------------------------------
# Slice extension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceFunction:
    """Slice extension of data on the real axis: x0 -> x, termwise on powers.

    Values are computed inside the plane spanned by 1 and the unit vector
    w = x/|x|, which is an isomorphic copy of the complex plane; negative
    powers are therefore evaluated in closed form, with no truncation.
    """

    m: int
    f0: LaurentPoly

    def restrict(self) -> LaurentPoly:
        return self.f0

    def slice_values(self, x0, r) -> tuple:
        """(alpha, beta) with value = alpha + w*beta on the slice at radius r."""
        if self.f0.min_exp() < 0 and x0 == 0 and r == 0:
            raise ZeroDivisionError("negative powers require x != 0")
        alpha = beta = Fraction(0)
        exact_in = isinstance(x0, (int, Fraction)) and isinstance(r, (int, Fraction))
        for n, c in sorted(self.f0.terms.items()):
            if exact_in:
                z = PiScalar.of(x0) + PiScalar.imaginary(r)
                zn = z**n if n >= 0 else (z ** (-n)).inverse()
                re, im = canon(zn.real_part()), canon(zn.imag_part())
            else:
                z = complex(x0, r)
                zn = z**n
                re, im = zn.real, zn.imag
            alpha = alpha + c * re
            beta = beta + c * im
        return alpha, beta

    def evaluate(self, x0, xv: Sequence) -> CliffordElement:
        m = self.m
        r2 = sum(c * c for c in xv)
        if r2 == 0:
            return CliffordElement.zero(m) + self.f0.evaluate(x0)
        r = sqrt_exact_or_float(r2)
        alpha, beta = self.slice_values(x0, r)
        return axial_element(m, alpha, [c / r for c in xv], beta)

    def to_polynomial(self) -> CliffordPolynomial:
        if not self.f0.is_polynomial():
            raise ValueError("slice extension is polynomial only for polynomial data")
        out = CliffordPolynomial.zero(self.m)
        for n, c in self.f0.terms.items():
            p = paravector_power(self.m, n)
            out = out + p.scale(c)
        return out


def slice_extension(f0: LaurentPoly, m: int) -> SliceFunction:
    return SliceFunction(m, f0)


# ---------------------------------------------------------------------------
# Intrinsic split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntrinsicPair:
    """Even/odd components (alpha, beta) of an intrinsic holomorphic extension.

    Both are RhoExpr in (x0, r), the real and imaginary parts of f(x0 + i r),
    exact on Laurent data: x0^p r^q terms, times rho^(-|n|) for a power
    n < 0.  alpha is even and beta odd in r; together they satisfy the
    Cauchy-Riemann system d_x0 alpha = d_r beta, d_r alpha = -d_x0 beta
    exactly.  On the slice at radius r in the direction w the extension
    takes the value alpha + w beta.
    """

    alpha: RhoExpr = field(default_factory=RhoExpr)
    beta: RhoExpr = field(default_factory=RhoExpr)

    def parity_ok(self) -> bool:
        return self.alpha.r_parity() == 0 and (self.beta.is_zero() or self.beta.r_parity() == 1)

    def cr_residuals(self) -> tuple[RhoExpr, RhoExpr]:
        """(d_x0 alpha - d_r beta, d_r alpha + d_x0 beta)."""
        return (self.alpha.diff_x0() - self.beta.diff_r(),
                self.alpha.diff_r() + self.beta.diff_x0())


def intrinsic_split(f0: LaurentPoly) -> IntrinsicPair:
    """Real and imaginary parts of f0(x0 + i r), in closed form.

    A power n >= 0 contributes the binomial terms C(n, t) x0^(n-t) (i r)^t,
    a power n < 0 those of (x0 - i r)^|n| / rho^|n|; the term with i^t goes
    to alpha when t is even and to beta when t is odd.
    """
    alpha: dict = {}
    beta: dict = {}
    for t in range(max(map(abs, f0.terms), default=0) + 1):
        target = beta if t % 2 else alpha
        for n, c in f0.terms.items():
            k = abs(n)
            if k >= t:
                # i^t = (-1)^(t//2) i^(t%2), and (-i)^t = (-1)^t i^t
                sign = (-1) ** (t // 2 + (t if n < 0 else 0))
                target[(k - t, t, 0 if n >= 0 else -2 * k)] = c * Fraction(sign * math.comb(k, t))
    return IntrinsicPair(RhoExpr(alpha), RhoExpr(beta))


# ---------------------------------------------------------------------------
# Axial extension
# ---------------------------------------------------------------------------


def gck_denominator(m: int, j: int) -> int:
    """Recursion constant: j for even j, m+j-1 for odd j."""
    return j if j % 2 == 0 else m + j - 1


@dataclass
class AxialSeries:
    """Axial function sum_j x^j f_j(x0), truncated at order = len(coeffs)-1."""

    m: int
    coeffs: list[LaurentPoly]
    exact: bool = False

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def trimmed(self) -> list[LaurentPoly]:
        c = list(self.coeffs)
        while len(c) > 1 and c[-1].is_zero():
            c.pop()
        return c

    def restrict(self) -> LaurentPoly:
        return self.coeffs[0]

    def scale(self, s) -> "AxialSeries":
        return AxialSeries(self.m, [f.scale(s) for f in self.coeffs], self.exact)

    def __add__(self, other: "AxialSeries") -> "AxialSeries":
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        zs = LaurentPoly.zero()
        coeffs = [
            (self.coeffs[j] if j < len(self.coeffs) else zs)
            + (other.coeffs[j] if j < len(other.coeffs) else zs)
            for j in range(n)
        ]
        return AxialSeries(self.m, coeffs, self.exact and other.exact)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AxialSeries):
            return NotImplemented
        return self.m == other.m and self.trimmed() == other.trimmed()

    def evaluate(self, x0, xv: Sequence) -> CliffordElement:
        """even + x * odd, where x^(2i) = (-r^2)^i sums the values of f_(2i)
        into even and those of f_(2i+1) into odd: one Clifford product."""
        r2 = canon(sum(c * c for c in xv))
        # (-r^2)^i at j = 2i and j = 2i+1; at a float point v * 1.0 is v, as v * Fraction(1) is
        sums, power = [0, 0], 1.0 if isinstance(r2, float) and isinstance(x0, float) else Fraction(1)
        for j, f in enumerate(self.coeffs):
            if not f.is_zero():
                sums[j % 2] = sums[j % 2] + f.evaluate(x0) * power
            if j % 2:
                power = power * (-r2)
        return sums[0] + CliffordElement.vector(self.m, list(xv)) * sums[1]

    def to_polynomial(self) -> CliffordPolynomial:
        """sum_j x^j f_j(x0) straight onto the packed keys of ``poly``: each
        power c x0^n of f_j adds n to the lowest field of the keys of x^j,
        whose coefficients it multiplies from the right.  x^(2s) is its rows
        from ``_even_rows`` on the blade b of the coefficient; x^(2s+1) is
        each of them times x_i e_i, one key add per generator, on the blade
        of e_i e_b with its ``BLADE_TABLE`` sign on the multinomial.  Each
        blade coefficient of c, an int numerator over one den if all are
        Fractions, forms its product with each distinct multinomial once.
        The rows are a table kept for the process, ``_EVEN_ROWS``, keyed by
        (m, s, width): at the largest accepted run, ``export --kind Qpoly
        --m 6 --k 24``, it holds 13 entries of 18,564 keys (8 bytes each)."""
        m = self.m
        if not all(f.is_polynomial() for f in self.coeffs):
            raise ValueError("series with negative powers is not a polynomial")
        den, scalars = _as_ints({(j, n, b): s for j, f in enumerate(self.trimmed()) for n, c in f.terms.items()
                                 for b, s in (c.coeffs if isinstance(c, CliffordElement) else {0: c}).items()})
        width = _fit(max((max(j, n) for j, n, _ in scalars), default=0))
        table, sums = BLADE_TABLE, {}
        get = sums.get
        for (j, n, b), c in scalars.items():
            s, odd = divmod(j, 2)
            keys, ks, distinct = _even_rows(m, s, width)
            shift = n << m
            if not odd:
                ck, move = {k: k * c for k in distinct}, shift + b
                for key, k in zip(keys, ks):
                    sums[key + move] = get(key + move, 0) + ck[k]
                continue
            # x_i e_i e_b = +-x_i e_(i ^ b): the field of x_i gains one, the sign goes on k
            ck = {k: k * c for k in (*distinct, *(-k for k in distinct))}
            gens = [(shift + (1 << (m + width * (i + 1))) + ((1 << i) ^ b), table[1 << i][b][1]) for i in range(m)]
            for key, k in zip(keys, ks):
                for move, negate in gens:
                    sums[key + move] = get(key + move, 0) + ck[-k if negate else k]
        return CliffordPolynomial._packed(m, width, den, sums)

    def truncation_residual(self, x0, xv: Sequence) -> float:
        """|x^N f_N'(x0)|, the exact Cauchy-Riemann defect of the truncation."""
        tail = AxialSeries(self.m, [LaurentPoly.zero()] * self.order + [self.coeffs[-1].derivative()])
        return tail.evaluate(x0, xv).to_numeric().norm_inf()


def _even_rows(m: int, s: int, width: int) -> tuple[Sequence[int], tuple[int, ...], tuple[int, ...]]:
    """x^(2s) = (-|x|^2)^s = (-1)^s sum_(|a|=s) multinomial(a) x^(2a) on the
    scalar blade, with no products: the packed key of each x^(2a), ``width``
    bits a field, its signed multinomial, and the distinct multinomials.
    Built once per (m, s, width) and kept, in the order of
    ``scalars._compositions``; each distinct multinomial is one int object."""
    if (rows := _EVEN_ROWS.get((m, s, width))) is None:
        sign, keys, ks, distinct = (-1) ** s, [], [], {}
        for a in _compositions(s, m):
            keys.append(_pack(m, (0, *(2 * e for e in a)), width))
            k = sign * _multinomial(a)
            ks.append(distinct.setdefault(k, k))
        rows = _EVEN_ROWS.setdefault((m, s, width), (_compact(keys), tuple(ks), tuple(distinct)))
    return _view(rows[0]), rows[1], rows[2]


def gck_extension(f0: LaurentPoly, m: int, order: int | None = None) -> AxialSeries:
    """Unique axial extension of f0, built by the coefficient recursion."""
    polynomial = f0.is_polynomial()
    if order is None:
        order = f0.max_exp() if polynomial else max(f0.max_exp(), 0, 2 * m + 8)
    if polynomial and order < f0.max_exp():
        raise ValueError("order below polynomial degree loses exactness")
    coeffs = [f0]
    f = f0
    for j in range(1, order + 1):
        d = gck_denominator(m, j)
        f = LaurentPoly({n - 1: c * Fraction(n, d) for n, c in f.terms.items() if n})
        coeffs.append(f)
    series = AxialSeries(m, coeffs, exact=polynomial)
    if polynomial:
        series.coeffs = series.trimmed()
    return series


def gck_bessel_form(f0: LaurentPoly, m: int) -> AxialSeries:
    """Axial extension assembled from the Bessel-series form of the extension
    operator; terminating (hence exact) on polynomial data.

    The operator series contracts to
        f_{2i}   = f0^(2i)   * G(m/2) / (i! G(m/2+i)   4^i)
        f_{2i+1} = f0^(2i+1) * G(m/2) / (i! G(m/2+i+1) 2^(2i+1))
    where the Gamma ratios come from the Taylor coefficients of J_(m/2-1)
    and J_(m/2); the alternating Bessel signs are absorbed by x^(2i) = (-r^2)^i.
    """
    if not f0.is_polynomial():
        raise ValueError("Bessel-series form requires polynomial data")
    gm = gamma_half(m)
    deg = f0.max_exp()
    coeffs: list[LaurentPoly] = []
    for j in range(deg + 1):
        i = j // 2
        if j % 2 == 0:
            ratio = (gm / gamma_half(m + 2 * i)).rational()
            w = ratio / (math.factorial(i) * 4**i)
        else:
            ratio = (gm / gamma_half(m + 2 * (i + 1))).rational()
            w = ratio / (math.factorial(i) * 2 ** (2 * i + 1))
        coeffs.append(f0.derivative(j).scale(w))
    series = AxialSeries(m, coeffs, exact=True)
    series.coeffs = series.trimmed()
    return series


# ---------------------------------------------------------------------------
# Appell polynomials
# ---------------------------------------------------------------------------


def appell_Q(m: int, k: int) -> CliffordPolynomial:
    """Degree-k axially monogenic polynomial with restriction x0^k and Q(1) = 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return gck_extension(LaurentPoly.monomial(k), m).to_polynomial()


def appell_weight(m: int, k: int, j: int) -> Fraction:
    """Coefficient of the explicit two-factor expansion of the Appell family."""
    return (
        Fraction(math.factorial(k))
        / pochhammer(m, k)
        * pochhammer(Fraction(m + 1, 2), k - j)
        * pochhammer(Fraction(m - 1, 2), j)
        / (math.factorial(k - j) * math.factorial(j))
    )


def _appell_weights(m: int, k: int) -> list[Fraction]:
    """T_j = ``appell_weight(m, k, j)`` for j = 0..k, from T_0 by the ratio
    T_(j+1)/T_j = ((m-1)/2 + j)(k - j) / (((m+1)/2 + k - j - 1)(j + 1))."""
    t = appell_weight(m, k, 0)
    return [t] + [t := t * Fraction((m - 1 + 2 * j) * (k - j), (m - 1 + 2 * (k - j)) * (j + 1)) for j in range(k)]


def appell_sum(m: int, k: int) -> CliffordPolynomial:
    """Explicit expansion sum_j T_j^k x^(k-j) conj(x)^j.

    The two factors commute (both lie in the plane of 1 and x).  With the
    factors in this order the sum is monogenic and matches the axial
    extension of x0^k; the transposed order fails monogenicity under the
    left Cauchy-Riemann operator.

    Evaluated in Horner form in conj(x): starting from T_k, each step
    multiplies the sum by conj(x) and adds T_j x^(k-j).  The weights come
    from T_0 and their exact ratio (``_appell_weights``), and x^(k-j) from
    the per-process powers of ``paravector_power``.
    """
    xbar = CliffordPolynomial.variable(m, 0) - CliffordPolynomial.vector_variable(m)
    *weights, top = _appell_weights(m, k)
    out = CliffordPolynomial.one(m).scale(top)
    for j in range(k - 1, -1, -1):
        out = out * xbar + paravector_power(m, k - j).scale(weights[j])
    return out
