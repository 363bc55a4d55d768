"""Univariate Laurent polynomials, the carrier for data on the real axis.

Coefficients are exact scalars by default but may be CliffordElements or
numeric types, mixed freely: a scalar and an element add as the element
plus the scalar blade, so sums and values of mixed data are elements.
Differentiation and evaluation are termwise, valid for all integer
exponents.
"""

from __future__ import annotations

from fractions import Fraction

from .clifford import COEFF_OPERANDS
from .scalars import canon, is_zero_scalar


class LaurentPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, object] | None = None):
        self.terms: dict[int, object] = {}
        if terms:
            for n, c in terms.items():
                c = canon(c)
                if not _is_zero(c):
                    self.terms[n] = c

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def monomial(cls, n: int, coeff=Fraction(1)) -> "LaurentPoly":
        return cls({n: coeff})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.monomial(0)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        return all(n >= 0 for n in self.terms)

    def min_exp(self) -> int:
        return min(self.terms, default=0)

    def max_exp(self) -> int:
        return max(self.terms, default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))   # equal values hash equal

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self.terms)
        for n, c in other.terms.items():
            terms[n] = terms[n] + c if n in terms else c
        return LaurentPoly(terms)

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({n: -c for n, c in self.terms.items()})

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            terms: dict[int, object] = {}
            for n, a in self.terms.items():
                for k, b in other.terms.items():
                    c = a * b
                    terms[n + k] = terms[n + k] + c if n + k in terms else c
            return LaurentPoly(terms)
        return self.scale(other) if isinstance(other, COEFF_OPERANDS) else NotImplemented

    def __rmul__(self, other) -> "LaurentPoly":
        # from the left: a Clifford element need not commute with the terms
        if not isinstance(other, COEFF_OPERANDS):
            return NotImplemented
        return LaurentPoly({n: other * c for n, c in self.terms.items()})

    def scale(self, s) -> "LaurentPoly":
        return LaurentPoly({n: c * s for n, c in self.terms.items()})

    # -- calculus ----------------------------------------------------------

    def derivative(self, order: int = 1) -> "LaurentPoly":
        out = self
        for _ in range(order):
            terms = {}
            for n, c in out.terms.items():
                if n != 0:
                    terms[n - 1] = c * n
            out = LaurentPoly(terms)
        return out

    def evaluate(self, x):
        """Value at x; x must be nonzero if negative exponents are present."""
        if x == 0 and any(n < 0 for n in self.terms):
            raise ZeroDivisionError("negative exponents require x != 0")
        real, out = isinstance(x, float), None
        for n, c in sorted(self.terms.items()):
            xp = x**n if n >= 0 else 1 / (x ** (-n))
            # Fraction * float is float(c) * xp, and float(c) is numerator / denominator
            val = c.numerator / c.denominator * xp if real and isinstance(c, Fraction) else c * canon(xp)
            out = val if out is None else out + val
        return out if out is not None else Fraction(0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*x^{n}" if n else f"({c})"
                          for n, c in sorted(self.terms.items()))


def _is_zero(c) -> bool:
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return is_zero_scalar(c)
