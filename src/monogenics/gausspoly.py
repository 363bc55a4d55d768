"""A function algebra closed under the heat semigroup: p(x) exp(-a x^2 + b x).

The polynomial part has exact complex-rational coefficients and the global
normalization is a ``Radical`` (sign * sqrt(rational) * pi^(e/4)).  The
heat flow, the line integral and the Fourier transform all complete a
square and take one Gaussian average of the polynomial,

    E[p(u x + v + sqrt(var) Z)],  Z a standard normal variable,

which ``_gauss_average`` expands through the even normal moments
(j-1)!! var^(j/2).  With b = 0 and a ``Radical`` prefactor (the Hermite
test family) its weights are rational and the heat flow

    a -> a/(1+2a),  prefactor -> prefactor / sqrt(1+2a)

and the line integral stay exact.  A nonzero linear term b or numeric
coefficients demote the result to complex arithmetic.

A ``GaussPoly`` is immutable and keeps what it derives in a private memo
that lives and dies with it: ``heat()``, ``derivative()``, the float form
``to_numeric()`` of an exact function (``to_complex`` of b, pref and each
coefficient, nothing more), and the slice splits and the line integrals of
conj(f) g of ``cst.unitarity_gram`` are built on the first call on that
object and the same result is returned on every later one.  Of what a
function derives, the series and quadrature routes of ``cst`` share only
its float form and ``heat()``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .scalars import PiScalar, Radical, double_factorial, to_complex


def _memoized(method):
    """A no-argument method whose result the instance keeps in its memo."""
    return functools.wraps(method)(lambda self: self._cached(method.__name__, lambda: method(self)))


class GaussPoly:
    """pref p(x) exp(-a x^2 + b x).  Immutable: nothing changes a, b, coeffs
    or pref after ``__init__``, so ``_memo`` keeps what is derived from them."""

    __slots__ = ("a", "b", "coeffs", "pref", "_memo")

    def __init__(self, a, b, coeffs, pref):
        if a <= 0:
            raise ValueError("Gaussian width a must be positive")
        self.a = Fraction(a) if isinstance(a, int) else a
        self.b = b if isinstance(b, (PiScalar, complex)) else PiScalar.of(b)
        self.coeffs = [c if isinstance(c, (PiScalar, complex)) else PiScalar.of(c)
                       for c in coeffs]
        while len(self.coeffs) > 1 and not self.coeffs[-1]:
            self.coeffs.pop()
        self.pref = pref
        self._memo = {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def exact(cls, a, coeffs, b=0, pref: Radical | None = None) -> "GaussPoly":
        return cls(Fraction(a), b, coeffs, pref if pref is not None else Radical.one())

    def _cached(self, key, build):
        """The value kept under ``key``, built by ``build()`` on first use."""
        return self._memo[key] if key in self._memo else self._memo.setdefault(key, build())

    def is_exact(self) -> bool:
        return isinstance(self.pref, Radical)

    def _is_centred_exact(self) -> bool:
        """Exact with b exactly zero: heat flow and line integral stay exact."""
        return self.is_exact() and isinstance(self.b, PiScalar) and self.b.is_zero()

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_numeric(self) -> "GaussPoly":
        return self._cached("numeric", lambda: GaussPoly(
            self.a, to_complex(self.b), [to_complex(c) for c in self.coeffs],
            to_complex(self.pref))) if self.is_exact() else self

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussPoly):
            return NotImplemented
        return ((self.a, self.b, self.pref, self.coeffs)
                == (other.a, other.b, other.pref, other.coeffs))

    def __repr__(self) -> str:
        return f"GaussPoly(a={self.a}, b={self.b}, deg={self.degree()}, pref={self.pref})"

    # -- pointwise algebra -------------------------------------------------

    def __mul__(self, other) -> "GaussPoly":
        if not isinstance(other, GaussPoly):
            return NotImplemented
        both_exact = self.is_exact() and other.is_exact()
        f, g = (self, other) if both_exact else (self.to_numeric(), other.to_numeric())
        coeffs = [PiScalar() if both_exact else 0j] * (f.degree() + g.degree() + 1)
        for i, ci in enumerate(f.coeffs):
            for j, cj in enumerate(g.coeffs):
                coeffs[i + j] = coeffs[i + j] + ci * cj
        return GaussPoly(f.a + g.a, f.b + g.b, coeffs, f.pref * g.pref)

    def conjugate(self) -> "GaussPoly":
        return GaussPoly(self.a, self.b.conjugate(),
                         [c.conjugate() for c in self.coeffs], self.pref)

    @_memoized
    def derivative(self) -> "GaussPoly":
        """d/dx: p -> p' + (b - 2a x) p, exact."""
        out = [PiScalar() if self.is_exact() else 0j] * (len(self.coeffs) + 1)
        two_a = 2 * self.a
        for k, c in enumerate(self.coeffs):
            if k >= 1:
                out[k - 1] = out[k - 1] + c * k
            out[k] = out[k] + c * self.b
            out[k + 1] = out[k + 1] - c * two_a
        return GaussPoly(self.a, self.b, out, self.pref)

    def derivatives(self, count: int) -> list["GaussPoly"]:
        seq = [self]
        for _ in range(count):
            seq.append(seq[-1].derivative())
        return seq

    def taylor(self, x0: float, order: int) -> np.ndarray:
        """Taylor coefficients f^(j)(x0)/j! for j = 0..order, in complex floats.

        With c = b - 2a x0,
        f(x0 + h) = pref e^(-a x0^2 + b x0) exp(c h - a h^2) p(x0 + h).  The
        coefficients e_n of exp(c h - a h^2) follow the Hermite recurrence
        (n+1) e_(n+1) = c e_n - 2a e_(n-1) (DLMF 18.12.15), p(x0 + h) comes
        from repeated synthetic division, and one truncated convolution
        multiplies the two: O(order * deg p) work, no derivative is built.
        """
        f, a = self.to_numeric(), float(self.a)
        c = complex(f.b) - 2.0 * a * x0
        e = [1.0 + 0j, c][:order + 1]
        for n in range(1, order):
            e.append((c * e[n] - 2.0 * a * e[n - 1]) / (n + 1))
        # descending coefficients; pass k leaves the h^k coefficient at q[-1-k]
        q = [complex(cf) for cf in reversed(f.coeffs)]
        for k in range(len(q) - 1):
            for i in range(1, len(q) - k):
                q[i] += x0 * q[i - 1]
        shifted = np.array(q[::-1], dtype=complex)
        scale = f.pref * np.exp(-a * x0 * x0 + f.b * x0)
        return scale * np.convolve(e, shifted)[:order + 1]

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, z):
        """Value of the entire extension at z (scalar or numpy array)."""
        acc = None
        for c in reversed(self.coeffs):
            acc = to_complex(c) if acc is None else acc * z + to_complex(c)
        return to_complex(self.pref) * acc * np.exp(-float(self.a) * z * z + to_complex(self.b) * z)

    def magnitude_bound(self, center: float, radius: float) -> float:
        """Certified bound of |f| on the disk |z - center| <= radius."""
        f, rho = self.to_numeric(), abs(center) + radius
        poly = sum(abs(complex(c)) * rho**k for k, c in enumerate(f.coeffs))
        # Re z^2 >= center^2 - 2|center| radius - radius^2 on the disk
        expo = (float(self.a) * (2 * abs(center) * radius + radius**2 - center**2)
                + abs(complex(f.b)) * rho)
        return abs(complex(f.pref)) * poly * math.exp(expo)

    # -- Gaussian averages: heat flow, line integral, Fourier transform --------

    @_memoized
    def heat(self) -> "GaussPoly":
        """Time-one heat semigroup, the Gaussian convolution in closed form.

        With A = 1 + 2a: a -> a/A, b -> b/A and p -> E[p((x + b)/A + Z/sqrt(A))].
        """
        A = 1 + 2 * self.a
        if self._is_centred_exact():
            inv = 1 / A
            return GaussPoly(self.a / A, PiScalar(), _gauss_average(self.coeffs, inv, 0, inv),
                             self.pref * Radical.sqrt(inv))
        f, new_a, A = self.to_numeric(), self.a / A, float(A)   # new_a exact for rational a
        pref = f.pref * (A**-0.5) * np.exp(f.b * f.b / (2 * A))
        return GaussPoly(new_a, f.b / A, _gauss_average(f.coeffs, 1 / A, f.b / A, 1 / A), pref)

    def integrate_line(self):
        """integral over the real line, in closed form: sqrt(pi/a) e^(b^2/4a)
        E[p(b/2a + Z/sqrt(2a))].

        Exact (a Radical) for b = 0 with real rational coefficients;
        complex float otherwise.
        """
        if self._is_centred_exact():
            total = _gauss_average(self.coeffs, 0, 0, 1 / (2 * self.a))[0]
            root = Radical(1 / self.a, 2)   # sqrt(pi/a)
            if total.is_rational():
                return self.pref * Radical.of(total.rational()) * root
            return to_complex(total) * float(self.pref) * float(root)
        f = self.to_numeric()
        a = float(f.a)
        total = _gauss_average(f.coeffs, 0, f.b / (2 * a), 1 / (2 * a))[0]
        return f.pref * total * math.sqrt(math.pi / a) * np.exp(f.b * f.b / (4 * a))

    def fourier(self) -> "GaussPoly":
        """(1/sqrt(2 pi)) int exp(-i p y) f(y) dy as a numeric GaussPoly in p.

        Completing the square with b - i p leaves E[p((b - i p)/2a + Z/sqrt(2a))].
        """
        f = self.to_numeric()
        a = float(f.a)
        coeffs = _gauss_average(f.coeffs, -1j / (2 * a), f.b / (2 * a), 1 / (2 * a))
        pref = f.pref * math.sqrt(math.pi / a) / math.sqrt(2 * math.pi) * np.exp(f.b**2 / (4 * a))
        return GaussPoly(1 / (4 * self.a), -1j * f.b / (2 * a), coeffs, pref)


def _gauss_average(coeffs, u, v, var) -> list:
    """Coefficients in x of E[p(u x + v + sqrt(var) Z)], Z a standard normal.

    First q(y) = E[p(y + sqrt(var) Z)], whose y^n coefficient is the sum over
    even j of c_(n+j) C(n+j, j) (j-1)!! var^(j/2); then y = u x + v.  Every
    weight is a plain number formed before it meets a coefficient, so
    rational u, v, var keep ``PiScalar`` coefficients exact.  v = 0 folds u^n
    into the weights of q_n, which is then the answer; u = 0 keeps q_0 only.
    """
    zero = PiScalar() if isinstance(var, Fraction) else 0j
    size = len(coeffs) if u else 1
    moments = [double_factorial(j - 1) * var ** (j // 2) for j in range(0, len(coeffs), 2)]
    q = []
    for n in range(len(coeffs) if v else size):
        un = 1 if v else u**n
        acc = zero
        for j in range(0, len(coeffs) - n, 2):
            if coeffs[n + j]:
                acc = acc + coeffs[n + j] * (math.comb(n + j, j) * moments[j // 2] * un)
        q.append(acc)
    if not v:
        return q
    out = [zero] * size
    for n, qn in enumerate(q):
        for t in range(min(n + 1, size)):
            out[t] = out[t] + qn * (math.comb(n, t) * u**t * v ** (n - t))
    return out


def hermite_coeffs(n: int) -> list[int]:
    """Coefficients of the physicists' Hermite polynomial H_n."""
    h_prev, h = [1], [0, 2]
    if n == 0:
        return h_prev
    for k in range(1, n):
        nxt = [0] + [2 * c for c in h]
        for i, c in enumerate(h_prev):
            nxt[i] -= 2 * k * c
        h_prev, h = h, nxt
    return h


def hermite_function(n: int) -> GaussPoly:
    """Orthonormal Hermite function H_n(x) e^(-x^2/2) / sqrt(2^n n! sqrt(pi))."""
    pref = Radical(Fraction(1, 2**n * math.factorial(n)), -1)
    return GaussPoly.exact(Fraction(1, 2), hermite_coeffs(n), 0, pref)
