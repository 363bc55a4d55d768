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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .clifford import CliffordElement
from .laurent import LaurentPoly
from .poly import CliffordPolynomial, paravector_power
from .scalars import PiScalar, canon, gamma_half, pochhammer


def _sqrt_exact_or_float(r2):
    """Square root of a nonnegative scalar, exact when it is a rational square."""
    if isinstance(r2, Fraction):
        num, den = r2.numerator, r2.denominator
        sn, sd = math.isqrt(num), math.isqrt(den)
        if sn * sn == num and sd * sd == den:
            return Fraction(sn, sd)
    return math.sqrt(float(r2))


def _add_mixed(m: int, a, b):
    """a + b where either may be a scalar or a CliffordElement: a scalar
    meeting an element is promoted to a scalar element first."""
    if isinstance(a, CliffordElement) != isinstance(b, CliffordElement):
        a, b = (x if isinstance(x, CliffordElement) else CliffordElement.scalar(m, x)
                for x in (a, b))
    return a + b


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
        alpha = None
        beta = None
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
            a = c.scale(re) if hasattr(c, "scale") else c * re
            b = c.scale(im) if hasattr(c, "scale") else c * im
            alpha = a if alpha is None else _add_mixed(self.m, alpha, a)
            beta = b if beta is None else _add_mixed(self.m, beta, b)
        if alpha is None:
            alpha = Fraction(0)
            beta = Fraction(0)
        return alpha, beta

    def evaluate(self, x0, xv: Sequence) -> CliffordElement:
        m = self.m
        r2 = sum(c * c for c in xv)
        if r2 == 0:
            val = self.f0.evaluate(x0)
            return val if isinstance(val, CliffordElement) else CliffordElement.scalar(m, val)
        r = _sqrt_exact_or_float(r2)
        alpha, beta = self.slice_values(x0, r)
        omega = CliffordElement.vector(m, [c / r for c in xv])
        out = CliffordElement.scalar(m, alpha) if not isinstance(alpha, CliffordElement) else alpha
        wb = omega.scale(beta) if not isinstance(beta, CliffordElement) else omega * beta
        return out + wb

    def to_polynomial(self) -> CliffordPolynomial:
        if not self.f0.is_polynomial():
            raise ValueError("slice extension is polynomial only for polynomial data")
        out = CliffordPolynomial.zero(self.m)
        for n, c in self.f0.terms.items():
            p = paravector_power(self.m, n)
            out = out + (p.right_mul_element(c) if isinstance(c, CliffordElement) else p.scale(c))
        return out


def slice_extension(f0: LaurentPoly, m: int) -> SliceFunction:
    return SliceFunction(m, f0)


# ---------------------------------------------------------------------------
# Intrinsic split
# ---------------------------------------------------------------------------

Bivar = dict  # (u_exp, v_exp) -> scalar


def _bivar_add(d: Bivar, key, c) -> None:
    cur = d.get(key)
    c = canon(c if cur is None else cur + c)
    if c == 0:
        d.pop(key, None)
    else:
        d[key] = c


def bivar_diff(d: Bivar, axis: int) -> Bivar:
    out: Bivar = {}
    for (pu, pv), c in d.items():
        e = (pu, pv)[axis]
        if e == 0:
            continue
        key = (pu - 1, pv) if axis == 0 else (pu, pv - 1)
        _bivar_add(out, key, c * e)
    return out


def bivar_eval(d: Bivar, u, v):
    out = 0
    for (pu, pv), c in d.items():
        up = u**pu if pu >= 0 else 1 / (u ** (-pu))
        out = out + c * up * v**pv
    return out


@dataclass(frozen=True)
class IntrinsicPair:
    """Even/odd components (alpha, beta) of an intrinsic holomorphic extension.

    alpha is even and beta odd in the second variable; together they satisfy
    the Cauchy-Riemann system d_u alpha = d_v beta, d_v alpha = -d_u beta
    (exactly for polynomial data, up to the retained order otherwise).
    """

    alpha: Bivar = field(default_factory=dict)
    beta: Bivar = field(default_factory=dict)
    exact: bool = True
    order: int | None = None

    def alpha_eval(self, u, v):
        return bivar_eval(self.alpha, u, v)

    def beta_eval(self, u, v):
        return bivar_eval(self.beta, u, v)

    def parity_ok(self) -> bool:
        return all(pv % 2 == 0 for (_, pv) in self.alpha) and all(
            pv % 2 == 1 for (_, pv) in self.beta
        )

    def cr_residuals(self) -> tuple[Bivar, Bivar]:
        """(d_u alpha - d_v beta, d_v alpha + d_u beta) as coefficient tables."""
        r1: Bivar = dict(bivar_diff(self.alpha, 0))
        for key, c in bivar_diff(self.beta, 1).items():
            _bivar_add(r1, key, -c)
        r2: Bivar = dict(bivar_diff(self.alpha, 1))
        for key, c in bivar_diff(self.beta, 0).items():
            _bivar_add(r2, key, c)
        return r1, r2


def intrinsic_split(f0: LaurentPoly, order: int | None = None) -> IntrinsicPair:
    """Even/odd series of the holomorphic extension of f0.

    alpha = sum_j (-1)^j v^(2j)/(2j)! f0^(2j)(u), beta the odd counterpart;
    exact (terminating) when f0 is a polynomial.
    """
    exact = f0.is_polynomial()
    if order is None:
        order = f0.max_exp() if exact else 16
    alpha: Bivar = {}
    beta: Bivar = {}
    deriv = f0
    sign = Fraction(1)
    for j in range(order + 1):
        if deriv.is_zero():
            break
        coeff = sign * Fraction(1, math.factorial(j))
        target, parity = (alpha, 0) if j % 2 == 0 else (beta, 1)
        for n, c in deriv.terms.items():
            _bivar_add(target, (n, j), c * coeff)
        deriv = deriv.derivative()
        if j % 2 == 1:
            sign = -sign
    return IntrinsicPair(alpha=alpha, beta=beta, exact=exact, order=order)


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
        m = self.m
        vec = CliffordElement.vector(m, list(xv))
        r2 = canon(sum(c * c for c in xv))
        out = CliffordElement.zero(m)
        even_pow = Fraction(1)  # (-r^2)^i at j = 2i
        for j, f in enumerate(self.coeffs):
            if f.is_zero():
                if j % 2 == 1:
                    even_pow = even_pow * (-r2)
                continue
            val = f.evaluate(x0)
            if not isinstance(val, CliffordElement):
                val = CliffordElement.scalar(m, val)
            if j % 2 == 0:
                out = out + val.scale(even_pow)
            else:
                out = out + (vec * val).scale(even_pow)
                even_pow = even_pow * (-r2)
        return out

    def to_polynomial(self) -> CliffordPolynomial:
        m = self.m
        vec = CliffordPolynomial.vector_variable(m)
        out = CliffordPolynomial.zero(m)
        vp = CliffordPolynomial.one(m)
        for j, f in enumerate(self.coeffs):
            if not f.is_zero():
                if not f.is_polynomial():
                    raise ValueError("series with negative powers is not a polynomial")
                for n, c in f.terms.items():
                    x0n = CliffordPolynomial.variable(m, 0) ** n
                    term = vp * x0n
                    out = out + (
                        term.right_mul_element(c) if isinstance(c, CliffordElement) else term.scale(c)
                    )
            vp = vp * vec
        return out

    def truncation_residual(self, x0, xv: Sequence) -> float:
        """|x^N f_N'(x0)|, the exact Cauchy-Riemann defect of the truncation."""
        tail = AxialSeries(self.m, [LaurentPoly.zero()] * self.order + [self.coeffs[-1].derivative()])
        return tail.evaluate(x0, xv).to_numeric().norm_inf()


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
        f = f.derivative().scale(Fraction(1, gck_denominator(m, j)))
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


def appell_sum(m: int, k: int) -> CliffordPolynomial:
    """Explicit expansion sum_j T_j^k x^(k-j) conj(x)^j.

    The two factors commute (both lie in the plane of 1 and x).  With the
    factors in this order the sum is monogenic and matches the axial
    extension of x0^k; the transposed order fails monogenicity under the
    left Cauchy-Riemann operator.

    Evaluated in Horner form in conj(x): starting from T_k, each step
    multiplies the sum by conj(x), raises the running power of x by one,
    and adds T_j x^(k-j).
    """
    x = CliffordPolynomial.paravector_variable(m)
    xbar = CliffordPolynomial.variable(m, 0) - CliffordPolynomial.vector_variable(m)
    out = CliffordPolynomial.one(m).scale(appell_weight(m, k, k))
    xpow = CliffordPolynomial.one(m)
    for j in range(k - 1, -1, -1):
        xpow = xpow * x
        out = out * xbar + xpow.scale(appell_weight(m, k, j))
    return out
