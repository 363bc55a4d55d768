"""Closed-form calculus for axial functions A(x0,r) + w B(x0,r).

Both components are held as exact sums of terms  c * x0^p * r^q * rho^(e/2)
with rho = x0^2 + r^2.  This family is closed under d_x0, d_r, division by
r, the inversion substitution (x0, r) -> (x0, r)/rho, and products, which
is everything the kernel manipulations need.  No numeric differentiation
ever happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .clifford import CliffordElement, axial_element
from .laurent import LaurentPoly
from .poly import CliffordPolynomial
from .scalars import canon, is_zero_scalar, sqrt_exact_or_float


class DomainError(ValueError):
    """Evaluation requested on the singular set of a closed form."""


class RhoExpr:
    """Exact linear combination of x0^p * r^q * (x0^2+r^2)^(e/2) terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int], object] | None = None):
        self.terms: dict[tuple[int, int, int], object] = {}
        for key, c in (terms or {}).items():
            self._merge(key, c)

    @classmethod
    def _sum(cls, pairs: Iterable[tuple[tuple[int, int, int], object]]) -> "RhoExpr":
        """The canonical sum of (key, coefficient) pairs; a key may repeat."""
        out = cls()
        for key, c in pairs:
            out._merge(key, c)
        return out

    def _merge(self, key: tuple[int, int, int], c) -> None:
        # canonical form: r-powers reduced to q in {0, 1} via
        # r^(2n) = (rho - x0^2)^n = sum_k C(n,k) (-x0^2)^k rho^(n-k),
        # so cancellations forced by that relation happen automatically
        p, q, e = key
        n, s = divmod(q, 2) if q >= 2 else (0, q)
        for k in range(n + 1):
            ck = canon(c if n == 0 else c * ((-1) ** k * math.comb(n, k)))
            reduced = (p + 2 * k, s, e + 2 * (n - k))
            tot = canon(self.terms[reduced] + ck) if reduced in self.terms else ck
            if is_zero_scalar(tot):
                self.terms.pop(reduced, None)
            else:
                self.terms[reduced] = tot

    @classmethod
    def zero(cls) -> "RhoExpr":
        return cls()

    @classmethod
    def term(cls, coeff, p: int = 0, q: int = 0, e: int = 0) -> "RhoExpr":
        return cls({(p, q, e): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, RhoExpr):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "RhoExpr") -> "RhoExpr":
        return RhoExpr._sum(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "RhoExpr") -> "RhoExpr":
        return self + (-other)

    def __neg__(self) -> "RhoExpr":
        return RhoExpr({k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "RhoExpr":
        if isinstance(other, RhoExpr):
            return RhoExpr._sum(((p1 + p2, q1 + q2, e1 + e2), a * b)
                                for (p1, q1, e1), a in self.terms.items()
                                for (p2, q2, e2), b in other.terms.items())
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s) -> "RhoExpr":
        return RhoExpr({k: c * s for k, c in self.terms.items()})

    def diff_x0(self) -> "RhoExpr":
        # d/dx0 rho^(e/2) = e * x0 * rho^((e-2)/2)
        def pairs():
            for (p, q, e), c in self.terms.items():
                if p:
                    yield (p - 1, q, e), c * p
                if e:
                    yield (p + 1, q, e - 2), c * e
        return RhoExpr._sum(pairs())

    def diff_r(self) -> "RhoExpr":
        def pairs():
            for (p, q, e), c in self.terms.items():
                if q:
                    yield (p, q - 1, e), c * q
                if e:
                    yield (p, q + 1, e - 2), c * e
        return RhoExpr._sum(pairs())

    def div_r(self) -> "RhoExpr":
        return RhoExpr({(p, q - 1, e): c for (p, q, e), c in self.terms.items()})

    def mul_x0(self) -> "RhoExpr":
        return RhoExpr({(p + 1, q, e): c for (p, q, e), c in self.terms.items()})

    def mul_r(self) -> "RhoExpr":
        return RhoExpr({(p, q + 1, e): c for (p, q, e), c in self.terms.items()})

    def mul_rho_half_power(self, e: int) -> "RhoExpr":
        return RhoExpr({(p, q, e0 + e): c for (p, q, e0), c in self.terms.items()})

    def invert_point(self) -> "RhoExpr":
        """Substitute (x0, r) -> (x0/rho, r/rho); note rho -> 1/rho."""
        return RhoExpr({(p, q, -2 * (p + q) - e): c for (p, q, e), c in self.terms.items()})

    def evaluate(self, x0, r):
        """Value at (x0, r); exact when inputs are rational and e is even."""
        rho = x0 * x0 + r * r
        out = None
        for (p, q, e), c in self.terms.items():
            if (p < 0 and x0 == 0) or (q < 0 and r == 0) or (e < 0 and rho == 0):
                raise DomainError("evaluation on the singular set")
            v = _ipow(x0, p) * _ipow(r, q)
            if e:
                if e % 2 == 0:
                    v = v * _ipow(rho, e // 2)
                else:
                    v = v * math.sqrt(float(rho)) ** e if rho != 0 else 0
            term = c * canon(v)   # a PiScalar coefficient demotes to a float or complex point
            out = term if out is None else out + term
        return out if out is not None else Fraction(0)

    def r_parity(self) -> int | None:
        """0 if even in r, 1 if odd, None if mixed (rho is even in r)."""
        ps = {q % 2 for (_, q, _) in self.terms}
        if not ps:
            return 0
        return ps.pop() if len(ps) == 1 else None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})*x0^{p}*r^{q}*rho^({Fraction(e,2)})" for (p, q, e), c in sorted(self.terms.items())
        )


def _ipow(base, n: int):
    if n == 0:
        return 1
    return base**n if n > 0 else 1 / (base ** (-n))


@dataclass
class AxialClosedForm:
    """Evaluable axial function sgn(x0)^s * (A(x0,r) + w B(x0,r)).

    A must be even and B odd in r on the domain; the optional sign power
    keeps half-axis factors explicit instead of folding them into floats.
    Evaluation at a singular point raises DomainError, never returns NaN.
    A polynomial closed form reaches Cartesian form through ``to_series``,
    the axial series sum_j x^j f_j(x0), and its one expander.
    """

    m: int
    A: RhoExpr
    B: RhoExpr
    sign_power: int = 0
    singular_origin: bool = True

    def scale(self, s) -> "AxialClosedForm":
        return AxialClosedForm(self.m, self.A.scale(s), self.B.scale(s),
                               self.sign_power, self.singular_origin)

    def diff_x0(self) -> "AxialClosedForm":
        if self.sign_power % 2:
            raise ValueError("cannot differentiate across the sign factor")
        return AxialClosedForm(self.m, self.A.diff_x0(), self.B.diff_x0(),
                               self.sign_power, self.singular_origin)

    def laplacian(self) -> "AxialClosedForm":
        """Laplacian in m+1 variables of A + w B, kept in closed form.

        On the scalar part: d_x0^2 + d_r^2 + (m-1)/r d_r; on the w part the
        same radial operator plus the -(m-1)/r^2 angular term.
        """
        if self.sign_power % 2:
            raise ValueError("cannot differentiate across the sign factor")
        m = self.m
        A, B = self.A, self.B
        lap_a = A.diff_x0().diff_x0() + A.diff_r().diff_r() + A.diff_r().div_r().scale(m - 1)
        # B_r/r - B/r^2 = d_r(B/r), which keeps the terms in canonical form
        lap_b = (
            B.diff_x0().diff_x0()
            + B.diff_r().diff_r()
            + B.div_r().diff_r().scale(m - 1)
        )
        return AxialClosedForm(m, lap_a, lap_b, self.sign_power, self.singular_origin)

    def kelvin(self) -> "AxialClosedForm":
        """Inversion f -> (conj(x)/|x|^(m+1)) f(conj(x)/|x|^2), stays closed."""
        m = self.m
        At = self.A.invert_point()
        Bt = self.B.invert_point()
        shell = -(m + 1)
        newA = (At.mul_x0() - Bt.mul_r()).mul_rho_half_power(shell)
        newB = (At.mul_r() + Bt.mul_x0()).mul_rho_half_power(shell).scale(-1)
        # sgn(x0) of the inverted argument equals sgn(x0), so parity is kept
        return AxialClosedForm(m, newA, newB, self.sign_power, True)

    def value_parts(self, x0, r):
        a = self.A.evaluate(x0, r)
        b = self.B.evaluate(x0, r)
        if self.sign_power % 2:
            if x0 == 0:
                raise DomainError("sign factor undefined at x0 = 0")
            if (x0 if not isinstance(x0, complex) else x0.real) < 0:
                a, b = -a, -b
        return a, b

    def evaluate(self, x0, xv: Sequence) -> CliffordElement:
        m = self.m
        r2 = sum(c * c for c in xv)
        if self.singular_origin and x0 == 0 and r2 == 0:
            raise DomainError("closed form singular at the origin")
        if r2 == 0:
            a, _ = self.value_parts(x0, 0 if isinstance(x0, (int, Fraction)) else 0.0)
            return CliffordElement.zero(m) + a
        r = sqrt_exact_or_float(canon(r2))
        a, b = self.value_parts(x0, r)
        return axial_element(m, a, [c / r for c in xv], b)

    def to_series(self) -> "AxialSeries":
        """The axial series sum_j x^j f_j(x0) of a polynomial closed form.

        With r^2 = -x^2, w r = x and rho^h = sum_k C(h, k) x0^(2h-2k) r^(2k),
        the k-th term of c x0^p r^q rho^h in A (q even) or in w B (q odd)
        adds c (-1)^(q//2+k) C(h, k) x0^(p+2h-2k) to f_(q+2k).  Fails if any
        power is negative or a sign factor is present.
        """
        from .extensions import AxialSeries

        if self.sign_power % 2:
            raise ValueError("sign factor prevents polynomial form")
        fs: dict[int, dict[int, object]] = {}
        for expr, odd in ((self.A, 0), (self.B, 1)):
            for (p, q, e), c in expr.terms.items():
                if min(p, q, e) < 0 or e % 2 or q % 2 != odd:
                    raise ValueError("closed form is not polynomial")
                h = e // 2
                for k in range(h + 1):
                    f, n = fs.setdefault(q + 2 * k, {}), p + 2 * h - 2 * k
                    v = c * ((-1) ** (q // 2 + k) * math.comb(h, k))
                    f[n] = f[n] + v if n in f else v
        return AxialSeries(self.m, [LaurentPoly(fs.get(j, {})) for j in range(max(fs, default=0) + 1)],
                           exact=True)

    def to_polynomial(self) -> CliffordPolynomial:
        """Expand into a genuine polynomial through the axial series."""
        return self.to_series().to_polynomial()

