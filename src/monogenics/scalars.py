"""Exact scalar arithmetic for coefficient fields.

Two small number types cover every constant the extension maps produce:

``PiScalar``
    finite sums ``sum_p (re_p + i*im_p) * pi**(p/2)`` with rational
    ``re_p, im_p``.  Sphere areas, the extension-map constants and the
    dimensional ``gamma`` factors all live here, so identities in which
    powers of pi cancel can be checked by exact equality.

``Radical``
    single terms ``sign * sqrt(q) * pi**(e/4)`` with rational ``q >= 0``.
    Gaussian normalizations (heat-flow prefactors, Hermite norms) stay in
    this form under multiplication, which keeps the Gaussian function
    algebra exact.

Rationals themselves are plain ``fractions.Fraction``; both classes coerce
``int`` and ``Fraction`` operands.  Exactness is not enforced against
floats: a ``PiScalar`` meeting a ``float`` or ``complex`` operand on
either side of ``+``, ``-``, ``*`` or ``/`` demotes to a numeric value,
just as ``Fraction * float`` becomes a ``float``.  Any float operand of a
``Radical`` raises ``TypeError``.  Convert on purpose with ``to_complex``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]
_ZERO = Fraction(0)


def _as_frac(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class PiScalar:
    """Exact element of Q(i) extended by half-integer powers of pi.

    A product by an ``int`` or ``Fraction`` scales each term in place, and
    one of two single-term values is a single term (``a*c`` alone when both
    are real); only multi-term factors run the double loop over terms.  All
    three give the terms, in the order, that the double loop gives.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, tuple[Fraction, Fraction]] | None = None):
        self._terms = {}
        if terms:
            for p, (re, im) in terms.items():
                if re or im:
                    self._terms[p] = (re, im)

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, x: Rat) -> "PiScalar":
        x = _as_frac(x)
        return cls({0: (x, _ZERO)}) if x else cls()

    @classmethod
    def imaginary(cls, x: Rat = 1) -> "PiScalar":
        x = _as_frac(x)
        return cls({0: (_ZERO, x)}) if x else cls()

    @classmethod
    def pi_power(cls, half_power: int, coeff: Rat = 1) -> "PiScalar":
        """``coeff * pi**(half_power/2)``."""
        c = _as_frac(coeff)
        return cls({half_power: (c, _ZERO)}) if c else cls()

    @classmethod
    def i_power(cls, k: int) -> "PiScalar":
        """The complex unit i raised to any integer power."""
        return (cls.of(1), cls.imaginary(1), cls.of(-1), cls.imaginary(-1))[k % 4]

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(p == 0 and im == 0 for p, (_, im) in self._terms.items())

    def rational(self) -> Fraction:
        if self.is_zero():
            return _ZERO
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self._terms[0][0]

    def real_part(self) -> "PiScalar":
        return PiScalar({p: (re, _ZERO) for p, (re, _) in self._terms.items()})

    def imag_part(self) -> "PiScalar":
        return PiScalar({p: (im, _ZERO) for p, (_, im) in self._terms.items()})

    def conjugate(self) -> "PiScalar":
        return PiScalar({p: (re, -im) for p, (re, im) in self._terms.items()})

    def terms(self) -> list[tuple[int, Fraction, Fraction]]:
        return [(p, re, im) for p, (re, im) in sorted(self._terms.items())]

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(x) -> "PiScalar | None":
        if isinstance(x, PiScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return PiScalar.of(x)
        return None

    def _numeric(self):
        z = self.to_complex()
        return z.real if z.imag == 0.0 else z

    def __add__(self, other):
        # meeting a float/complex operand demotes to numeric, like Fraction
        if isinstance(other, (float, complex)):
            return self._numeric() + other
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for p, (re, im) in o._terms.items():
            r0, i0 = terms.get(p, (_ZERO, _ZERO))
            terms[p] = (r0 + re, i0 + im)
        return PiScalar(terms)

    __radd__ = __add__

    def __neg__(self) -> "PiScalar":
        return PiScalar({p: (-re, -im) for p, (re, im) in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (float, complex)):
            return self._numeric() - other
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        if isinstance(other, (float, complex)):
            return other - self._numeric()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (float, complex)):
            return self._numeric() * other
        if isinstance(other, (int, Fraction)):
            x = _as_frac(other)
            return PiScalar({p: (a * x, b * x if b else _ZERO) for p, (a, b) in self._terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self._terms) == 1 == len(o._terms):
            (p, (a, b)), = self._terms.items()
            (q, (c, d)), = o._terms.items()
            if not (b or d):
                return PiScalar({p + q: (a * c, _ZERO)})
            return PiScalar({p + q: (a * c - b * d, a * d + b * c)})
        terms: dict[int, tuple[Fraction, Fraction]] = {}
        for p, (a, b) in self._terms.items():
            for q, (c, d) in o._terms.items():
                re = a * c - b * d
                im = a * d + b * c
                r0, i0 = terms.get(p + q, (_ZERO, _ZERO))
                terms[p + q] = (r0 + re, i0 + im)
        return PiScalar(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PiScalar":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = PiScalar.of(1)
        for _ in range(n):
            out = out * self
        return out

    def inverse(self) -> "PiScalar":
        """Inverse of a single-term value ``(a+bi)*pi**(p/2)``."""
        if len(self._terms) != 1:
            raise ZeroDivisionError(f"cannot invert {self!r}")
        (p, (a, b)), = self._terms.items()
        n = a * a + b * b
        return PiScalar({-p: (a / n, -b / n)})

    def __truediv__(self, other):
        if isinstance(other, (float, complex)):
            return self._numeric() / other
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (float, complex)):
            return other / self._numeric()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- comparisons / conversions ------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        # a rational value equals its Fraction, so it hashes as one
        return hash(self.rational()) if self.is_rational() else hash(tuple(sorted(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def to_complex(self) -> complex:
        z = 0j
        for p, (re, im) in self._terms.items():
            z += complex(re, im) * math.pi ** (p / 2)
        return z

    def __complex__(self) -> complex:
        return self.to_complex()

    def __float__(self) -> float:
        z = self.to_complex()
        if z.imag != 0.0:
            raise ValueError(f"{self!r} has nonzero imaginary part")
        return z.real

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for p, (re, im) in sorted(self._terms.items()):
            coeff = f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)" if im else f"{re}"
            parts.append(coeff if p == 0 else f"{coeff}*pi^({Fraction(p, 2)})")
        return " + ".join(parts)


class Radical:
    """``sign * sqrt(q) * pi**(e/4)`` with rational ``q >= 0``, exact under products."""

    __slots__ = ("sq", "pi4", "sign")

    def __init__(self, sq: Rat, pi4: int = 0, sign: int = 1):
        sq = _as_frac(sq)
        if sq < 0:
            raise ValueError("radicand must be nonnegative")
        if sq == 0:
            pi4, sign = 0, 1
        self.sq = sq
        self.pi4 = pi4
        self.sign = 1 if sign >= 0 else -1

    @classmethod
    def one(cls) -> "Radical":
        return cls(Fraction(1))

    @classmethod
    def of(cls, x: Rat) -> "Radical":
        x = _as_frac(x)
        return cls(x * x, 0, 1 if x >= 0 else -1)

    @classmethod
    def sqrt(cls, q: Rat) -> "Radical":
        return cls(_as_frac(q))

    def is_zero(self) -> bool:
        return self.sq == 0

    def __mul__(self, other) -> "Radical":
        if isinstance(other, Radical):
            return Radical(self.sq * other.sq, self.pi4 + other.pi4, self.sign * other.sign)
        if isinstance(other, (int, Fraction)):
            return self * Radical.of(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Radical":
        if isinstance(other, (int, Fraction)):
            other = Radical.of(other)
        if isinstance(other, Radical):
            if other.sq == 0:
                raise ZeroDivisionError("division by zero Radical")
            return Radical(self.sq / other.sq, self.pi4 - other.pi4, self.sign * other.sign)
        return NotImplemented

    def __neg__(self) -> "Radical":
        return Radical(self.sq, self.pi4, -self.sign)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Radical.of(other)
        if not isinstance(other, Radical):
            return NotImplemented
        if self.sq == 0 and other.sq == 0:
            return True
        return self.sq == other.sq and self.pi4 == other.pi4 and self.sign == other.sign

    def __hash__(self) -> int:
        # equal to a rational r exactly when it is Radical.of(r): hash as r then
        root = Fraction(math.isqrt(self.sq.numerator), math.isqrt(self.sq.denominator))
        rational = self.pi4 == 0 and root * root == self.sq
        return hash(self.sign * root if rational else (self.sq, self.pi4, self.sign))

    def __float__(self) -> float:
        return self.sign * math.sqrt(self.sq) * math.pi ** (self.pi4 / 4)

    def __repr__(self) -> str:
        s = "-" if self.sign < 0 else ""
        core = f"sqrt({self.sq})"
        return f"{s}{core}" + (f"*pi^({Fraction(self.pi4, 4)})" if self.pi4 else "")


# -- shared helpers -----------------------------------------------------


def gamma_half(two_x: int) -> PiScalar:
    """Exact Gamma(two_x/2) for positive integer ``two_x``.

    Integer arguments give factorials; half-integer arguments give
    ``(2n)!/(4**n n!) * sqrt(pi)``.
    """
    if two_x <= 0:
        raise ValueError("argument must be positive")
    if two_x % 2 == 0:
        return PiScalar.of(math.factorial(two_x // 2 - 1))
    n = (two_x - 1) // 2
    coeff = Fraction(math.factorial(2 * n), 4**n * math.factorial(n))
    return PiScalar.pi_power(1, coeff)


def double_factorial(n: int) -> int:
    """n!! with the usual conventions (-1)!! = 0!! = 1."""
    if n in (-1, 0):
        return 1
    if n < -1:
        raise ValueError("n!! undefined for n < -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _check_exponents(m: int, exps: tuple[int, ...]) -> None:
    if len(exps) != m:
        raise ValueError("need one exponent per component")
    if any(e < 0 for e in exps):
        raise ValueError("negative exponent")


def sphere_moment(m: int, exps: tuple[int, ...]) -> Fraction:
    """Mean of prod_i w_i^(a_i) over S^(m-1), exactly; zero unless all even:
    prod_i (a_i-1)!! / prod_{j<|a|/2} (m+2j) (Folland, "How to integrate a
    polynomial over a sphere", Amer. Math. Monthly 108, 2001)."""
    _check_exponents(m, exps)
    if any(e % 2 for e in exps):
        return Fraction(0)
    num = 1
    for e in exps:
        num *= double_factorial(e - 1)
    den = 1
    for j in range(sum(exps) // 2):
        den *= m + 2 * j
    return Fraction(num, den)


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


def pochhammer(a: Rat, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1)."""
    a = _as_frac(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def canon(s):
    """Canonical scalar form: rational PiScalars demote to Fraction."""
    if isinstance(s, PiScalar):
        if s.is_rational():
            return s.rational()
        return s
    if isinstance(s, int):
        return Fraction(s)
    return s


def is_zero_scalar(s) -> bool:
    if isinstance(s, PiScalar):
        return s.is_zero()
    return s == 0


def scalar_conj(s):
    """Complex conjugation across all supported scalar types."""
    if isinstance(s, PiScalar):
        return s.conjugate()
    if isinstance(s, complex):
        return s.conjugate()
    return s


def sqrt_exact_or_float(r2):
    """Square root of a nonnegative scalar, exact when it is a rational square."""
    if isinstance(r2, Fraction):
        num, den = r2.numerator, r2.denominator
        sn, sd = math.isqrt(num), math.isqrt(den)
        if sn * sn == num and sd * sd == den:
            return Fraction(sn, sd)
    return math.sqrt(float(r2))


def to_complex(s) -> complex:
    if isinstance(s, PiScalar):
        return s.to_complex()
    if isinstance(s, Radical):
        return complex(float(s))
    return complex(s)
