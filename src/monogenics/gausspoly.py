"""A function algebra closed under the heat semigroup: p(x) exp(-a x^2 + b x).

The polynomial part has exact complex-rational coefficients and the global
normalization is a ``Radical`` (sign * sqrt(rational) * pi^(e/4)), so the
time-one heat flow

    a -> a/(1+2a),  prefactor -> prefactor / sqrt(1+2a),
    p -> Gaussian average of the shifted polynomial

is computed exactly when b = 0 (the Hermite test family).  A nonzero linear
term b or numeric coefficients demote the result to complex arithmetic.
Evaluation accepts complex points and numpy arrays, which is how entire
extensions are read off.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalars import PiScalar, Radical, double_factorial


class GaussPoly:
    __slots__ = ("a", "b", "coeffs", "pref")

    def __init__(self, a, b, coeffs, pref):
        if isinstance(a, int):
            a = Fraction(a)
        if (isinstance(a, Fraction) and a <= 0) or (isinstance(a, float) and a <= 0):
            raise ValueError("Gaussian width a must be positive")
        self.a = a
        self.b = b if isinstance(b, (PiScalar, complex)) else PiScalar.of(b)
        self.coeffs = [c if isinstance(c, (PiScalar, complex)) else PiScalar.of(c)
                       for c in coeffs]
        while len(self.coeffs) > 1 and _czero(self.coeffs[-1]):
            self.coeffs.pop()
        self.pref = pref

    # -- constructors ----------------------------------------------------

    @classmethod
    def exact(cls, a, coeffs, b=0, pref: Radical | None = None) -> "GaussPoly":
        return cls(Fraction(a), b, coeffs, pref if pref is not None else Radical.one())

    @classmethod
    def gaussian(cls, a) -> "GaussPoly":
        """Plain exp(-a x^2)."""
        return cls.exact(a, [1])

    def is_exact(self) -> bool:
        return isinstance(self.pref, Radical)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_numeric(self) -> "GaussPoly":
        if not self.is_exact():
            return self
        return GaussPoly(
            self.a,
            complex(self.b.to_complex() if isinstance(self.b, PiScalar) else self.b),
            [complex(c.to_complex() if isinstance(c, PiScalar) else c) for c in self.coeffs],
            complex(float(self.pref)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussPoly):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.pref == other.pref
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"GaussPoly(a={self.a}, b={self.b}, deg={self.degree()}, pref={self.pref})"

    # -- pointwise algebra -------------------------------------------------

    def scale(self, s) -> "GaussPoly":
        if isinstance(s, Radical) and self.is_exact():
            return GaussPoly(self.a, self.b, self.coeffs, self.pref * s)
        return GaussPoly(self.a, self.b, [c * s for c in self.coeffs], self.pref)

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

    def derivative(self) -> "GaussPoly":
        """d/dx: p -> p' + (b - 2a x) p, exact."""
        n = len(self.coeffs)
        zero = PiScalar() if self.is_exact() else 0j
        out = [zero] * (n + 1)
        two_a = 2 * self.a if isinstance(self.a, Fraction) else 2.0 * self.a
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
        f = self.to_numeric()
        a = float(f.a)
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
        a = float(self.a)
        b = complex(self.b.to_complex() if isinstance(self.b, PiScalar) else self.b)
        pref = float(self.pref) if isinstance(self.pref, Radical) else complex(self.pref)
        acc = None
        for c in reversed(self.coeffs):
            cz = complex(c.to_complex() if isinstance(c, PiScalar) else c)
            acc = cz if acc is None else acc * z + cz
        return pref * acc * np.exp(-a * z * z + b * z)

    def magnitude_bound(self, center: float, radius: float) -> float:
        """Certified bound of |f| on the disk |z - center| <= radius."""
        rho = abs(center) + radius
        a = float(self.a)
        b = complex(self.b.to_complex() if isinstance(self.b, PiScalar) else self.b)
        pref = abs(float(self.pref)) if isinstance(self.pref, Radical) else abs(self.pref)
        poly = sum(
            abs(complex(c.to_complex() if isinstance(c, PiScalar) else c)) * rho**k
            for k, c in enumerate(self.coeffs)
        )
        # Re z^2 >= center^2 - 2|center| radius - radius^2 on the disk
        expo = a * (2 * abs(center) * radius + radius**2 - center**2) + abs(b) * rho
        return pref * poly * math.exp(expo)

    # -- heat flow -------------------------------------------------------------

    def heat(self) -> "GaussPoly":
        """Time-one heat semigroup, the Gaussian convolution in closed form."""
        if self.is_exact() and isinstance(self.b, PiScalar) and self.b.is_zero():
            A = 1 + 2 * self.a
            new_a = self.a / A
            pref = self.pref * Radical.sqrt(Fraction(1) / A)
            # E[p(x/A + Z/sqrt(A))], even normal moments (2k-1)!!/A^k
            n = self.degree()
            out = [PiScalar() for _ in range(n + 1)]
            invA = Fraction(1) / A
            for k, c in enumerate(self.coeffs):
                for j in range(0, k + 1, 2):
                    w = (
                        Fraction(math.comb(k, j) * double_factorial(j - 1))
                        * invA ** (j // 2)
                        * invA ** (k - j)
                    )
                    out[k - j] = out[k - j] + c * w
            return GaussPoly(new_a, PiScalar(), out, pref)
        f = self.to_numeric()
        A = 1 + 2 * float(f.a)
        new_a = Fraction(f.a) / (1 + 2 * Fraction(f.a)) if isinstance(f.a, Fraction) else f.a / A
        b = f.b
        pref = f.pref * (A**-0.5) * np.exp(b * b / (2 * A))
        n = f.degree()
        out = [0j] * (n + 1)
        for k, c in enumerate(f.coeffs):
            for j in range(0, k + 1, 2):
                w = math.comb(k, j) * double_factorial(j - 1) / A ** (j // 2)
                # (x+b)/A expanded binomially in x
                for t in range(k - j + 1):
                    out[t] = out[t] + c * w * math.comb(k - j, t) * b ** (k - j - t) / A ** (k - j)
        return GaussPoly(new_a, b / A, out, pref)

    # -- line integrals -------------------------------------------------------

    def integrate_line(self):
        """integral over the real line, in closed form.

        Exact (a Radical) for b = 0 with real rational coefficients;
        complex float otherwise.
        """
        if self.is_exact() and isinstance(self.b, PiScalar) and self.b.is_zero():
            total = PiScalar()
            inv2a = Fraction(1) / (2 * self.a)
            for k in range(0, self.degree() + 1, 2):
                w = Fraction(double_factorial(k - 1)) * inv2a ** (k // 2)
                total = total + self.coeffs[k] * w
            # times sqrt(pi/a)
            if total.is_rational():
                return self.pref * Radical(total.rational() ** 2 * Fraction(1) / self.a, 2,
                                           1 if total.rational() >= 0 else -1)
            root = Radical(Fraction(1) / self.a, 2)
            return complex(total.to_complex()) * float(self.pref) * float(root)
        f = self.to_numeric()
        a = float(f.a)
        mu = f.b / (2 * a)
        total = 0j
        for k, c in enumerate(f.coeffs):
            for j in range(0, k + 1, 2):
                total += (
                    c
                    * math.comb(k, j)
                    * double_factorial(j - 1)
                    / (2 * a) ** (j // 2)
                    * mu ** (k - j)
                )
        return f.pref * total * math.sqrt(math.pi / a) * np.exp(f.b * f.b / (4 * a))

    def fourier(self) -> "GaussPoly":
        """(1/sqrt(2 pi)) int exp(-i p y) f(y) dy as a numeric GaussPoly in p."""
        f = self.to_numeric()
        a = float(f.a)
        n = f.degree()
        # complete the square with beta = b - i p: polynomial part in p comes
        # from E[p(mu + Z/sqrt(2a))] with mu = (b - i p)/(2a)
        out = [0j] * (n + 1)
        for k, c in enumerate(f.coeffs):
            for j in range(0, k + 1, 2):
                w = c * math.comb(k, j) * double_factorial(j - 1) / (2 * a) ** (j // 2)
                for t in range(k - j + 1):
                    out[t] += (
                        w
                        * math.comb(k - j, t)
                        * f.b ** (k - j - t)
                        * (-1j) ** t
                        / (2 * a) ** (k - j)
                    )
        pref = f.pref * math.sqrt(math.pi / a) / math.sqrt(2 * math.pi) * np.exp(f.b**2 / (4 * a))
        return GaussPoly(Fraction(1, 4) / self.a if isinstance(self.a, Fraction) else 1 / (4 * a),
                         -1j * f.b / (2 * a), out, pref)


def _czero(c) -> bool:
    return c.is_zero() if isinstance(c, PiScalar) else c == 0


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
