"""Clifford-coefficient polynomials in (x0, x1, ..., xm) and the first-order operators on them.

Variables are central scalars; only the coefficients multiply through the
algebra.  Operators act from the left, matching the right-module convention
of the function spaces: ``D p = d/dx0 p + sum_j e_j (d/dxj p)``.

Products and the first-order operators run one exact kernel: the raw scalar
coefficients are summed in ``exponents -> blade -> scalar`` with the signs of
``clifford.BLADE_TABLE``, and each output ``CliffordElement`` is built once,
which is where ``canon`` and zero-dropping run.  A factor whose every
coefficient is one blade times the rational 1 or -1 (``x``, ``conj(x)``, the
vector variable, ``|x|^2``) on the right permutes the left factor's blades
with signs, so that product makes no scalar multiplication.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import add
from typing import Sequence

from .clifford import BLADE_TABLE, CliffordElement
from .scalars import canon

Exponents = tuple[int, ...]


class OperatorTag(enum.Enum):
    D = "cauchy_riemann"              # d_x0 + d_x
    DBAR = "conjugate_cauchy_riemann"  # d_x0 - d_x
    DIRAC = "dirac"                   # d_x
    LAPLACIAN = "laplacian"           # sum_j d_xj^2, j = 0..m
    PARTIAL_X0 = "partial_x0"
    HYPERCOMPLEX = "hypercomplex_derivative"  # (d_x0 - d_x)/2


class CliffordPolynomial:
    """Sparse multivariate polynomial with CliffordElement coefficients."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict[Exponents, CliffordElement] | None = None):
        self.m = m
        self.terms: dict[Exponents, CliffordElement] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != m + 1:
                    raise ValueError("exponent tuple must have length m+1")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in polynomial")
                if coeff.m != m:
                    raise ValueError("coefficient dimension mismatch")
                if not coeff.is_zero():
                    self.terms[tuple(exps)] = coeff

    @classmethod
    def _trusted(cls, m: int, terms: dict[Exponents, CliffordElement]) -> "CliffordPolynomial":
        """Wrap terms the engine made itself, dropping zero coefficients only."""
        p = object.__new__(cls)
        p.m = m
        p.terms = {exps: coeff for exps, coeff in terms.items() if coeff.coeffs}
        return p

    @classmethod
    def _from_blades(cls, m: int, sums: dict[Exponents, dict[int, object]]) -> "CliffordPolynomial":
        """Build each coefficient once from raw ``blade -> scalar`` sums."""
        return cls._trusted(m, {exps: CliffordElement(m, blades) for exps, blades in sums.items()})

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "CliffordPolynomial":
        return cls(m)

    @classmethod
    def constant(cls, m: int, coeff: CliffordElement) -> "CliffordPolynomial":
        return cls(m, {(0,) * (m + 1): coeff})

    @classmethod
    def scalar_constant(cls, m: int, value) -> "CliffordPolynomial":
        return cls.constant(m, CliffordElement.scalar(m, value))

    @classmethod
    def one(cls, m: int) -> "CliffordPolynomial":
        return cls.scalar_constant(m, Fraction(1))

    @classmethod
    def variable(cls, m: int, j: int) -> "CliffordPolynomial":
        """The coordinate x_j (j = 0 is the real axis)."""
        if not 0 <= j <= m:
            raise ValueError("variable index out of range")
        exps = tuple(1 if i == j else 0 for i in range(m + 1))
        return cls(m, {exps: CliffordElement.one(m)})

    @classmethod
    def vector_variable(cls, m: int) -> "CliffordPolynomial":
        """The grade-1 variable x1 e_1 + ... + xm e_m."""
        terms = {}
        for j in range(1, m + 1):
            exps = tuple(1 if i == j else 0 for i in range(m + 1))
            terms[exps] = CliffordElement.generator(m, j)
        return cls(m, terms)

    @classmethod
    def paravector_variable(cls, m: int) -> "CliffordPolynomial":
        return cls.variable(m, 0) + cls.vector_variable(m)

    @classmethod
    def radial_sq(cls, m: int) -> "CliffordPolynomial":
        """|x|^2 of the vector part: x1^2 + ... + xm^2."""
        out = cls.zero(m)
        for j in range(1, m + 1):
            out = out + cls.variable(m, j) * cls.variable(m, j)
        return out

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "CliffordPolynomial":
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms[exps] + coeff if exps in terms else coeff
        return CliffordPolynomial._trusted(self.m, terms)

    def __sub__(self, other) -> "CliffordPolynomial":
        return self + (-other)

    def __neg__(self) -> "CliffordPolynomial":
        return CliffordPolynomial._trusted(self.m, {e: -c for e, c in self.terms.items()})

    def scale(self, s) -> "CliffordPolynomial":
        """Every coefficient times s from the right; s is a scalar or an element."""
        return CliffordPolynomial._trusted(self.m, {e: c * s for e, c in self.terms.items()})

    def __mul__(self, other) -> "CliffordPolynomial":
        if not isinstance(other, CliffordPolynomial):
            return self.scale(other)
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        return _product(self, other)

    def __rmul__(self, other) -> "CliffordPolynomial":
        """Every coefficient times ``other`` from the left (an element or a scalar)."""
        return CliffordPolynomial._trusted(self.m, {e: other * c for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "CliffordPolynomial":
        if n < 0:
            raise ValueError("negative power")
        out = CliffordPolynomial.one(self.m)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    # -- calculus -------------------------------------------------------

    def diff(self, j: int) -> "CliffordPolynomial":
        # lowering exps[j] is one-to-one on the terms that have it, so no sums
        return CliffordPolynomial._trusted(self.m, {
            (*exps[:j], exps[j] - 1, *exps[j + 1:]): coeff.scale(exps[j])
            for exps, coeff in self.terms.items() if exps[j]
        })

    def evaluate(self, x0, xv: Sequence) -> CliffordElement:
        if len(xv) != self.m:
            raise ValueError("need m vector components")
        point = (x0, *xv)
        out = CliffordElement.zero(self.m)
        for exps, coeff in self.terms.items():
            mono = 1
            for val, e in zip(point, exps):
                if e:
                    mono = mono * val**e
            out = out + coeff.scale(canon(mono))
        return out

    def map_coeffs(self, fn) -> "CliffordPolynomial":
        return CliffordPolynomial(self.m, {e: fn(c) for e, c in self.terms.items()})

    def norm_inf(self) -> float:
        return max((c.norm_inf() for c in self.terms.values()), default=0.0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = ["x0"] + [f"x{j}" for j in range(1, self.m + 1)]
        parts = []
        for exps in sorted(self.terms):
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n for n, e in zip(names, exps) if e
            )
            c = self.terms[exps]
            parts.append(f"[{c}]" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def _unit_blades(p: CliffordPolynomial) -> list[tuple[Exponents, int, bool]] | None:
    """Each term as (exponents, blade, negate) if every coefficient is one
    blade times the rational 1 or -1; None otherwise."""
    units = []
    for exps, coeff in p.terms.items():
        if len(coeff.coeffs) != 1:
            return None
        [(mask, c)] = coeff.coeffs.items()
        if not (isinstance(c, Fraction) and abs(c) == 1):
            return None
        units.append((exps, mask, c < 0))
    return units


def _product(p: CliffordPolynomial, q: CliffordPolynomial) -> CliffordPolynomial:
    """p * q, summing raw scalars per exponent and blade in the order of the
    term pairs; a unit-blade right factor only moves and signs p's scalars."""
    table = BLADE_TABLE
    sums: dict[Exponents, dict[int, object]] = {}
    if (units := _unit_blades(q)) is not None:
        for ea, a in p.terms.items():
            for eb, mb, flip in units:
                blades = sums.setdefault(tuple(map(add, ea, eb)), {})
                for ma, c in a.coeffs.items():
                    mask, negate = table[ma][mb]
                    if negate != flip:
                        c = -c
                    blades[mask] = blades[mask] + c if mask in blades else c
    else:
        for ea, a in p.terms.items():
            for eb, b in q.terms.items():
                blades = sums.setdefault(tuple(map(add, ea, eb)), {})
                for ma, ca in a.coeffs.items():
                    row = table[ma]
                    for mb, cb in b.coeffs.items():
                        mask, negate = row[mb]
                        c = ca * cb
                        if negate:
                            c = -c
                        blades[mask] = blades[mask] + c if mask in blades else c
    return CliffordPolynomial._from_blades(p.m, sums)


def _first_order(p: CliffordPolynomial, with_x0: bool, flip: bool) -> CliffordPolynomial:
    """[d/dx0 p] +- sum_j e_j d/dxj p (minus when ``flip``) in one pass."""
    table = BLADE_TABLE
    sums: dict[Exponents, dict[int, object]] = {}
    for exps, coeff in p.terms.items():
        for j in range(0 if with_x0 else 1, p.m + 1):
            n = exps[j]
            if not n:
                continue
            blades = sums.setdefault((*exps[:j], n - 1, *exps[j + 1:]), {})
            row = table[(1 << j) >> 1]          # e_j, or the scalar blade at j = 0
            sign_flip = flip and j > 0
            for mb, c in coeff.coeffs.items():
                mask, negate = row[mb]
                c = c * n
                if negate != sign_flip:
                    c = -c
                blades[mask] = blades[mask] + c if mask in blades else c
    return CliffordPolynomial._from_blades(p.m, sums)


def apply_operator(tag: OperatorTag, p: CliffordPolynomial) -> CliffordPolynomial:
    """Exact left action of the stated differential operator."""
    m = p.m
    if tag is OperatorTag.PARTIAL_X0:
        return p.diff(0)
    if tag is OperatorTag.LAPLACIAN:
        out = CliffordPolynomial.zero(m)
        for j in range(m + 1):
            out = out + p.diff(j).diff(j)
        return out
    if tag is OperatorTag.DIRAC:
        return _first_order(p, False, False)
    if tag is OperatorTag.D:
        return _first_order(p, True, False)
    if tag is OperatorTag.DBAR:
        return _first_order(p, True, True)
    if tag is OperatorTag.HYPERCOMPLEX:
        return _first_order(p, True, True).scale(Fraction(1, 2))
    raise ValueError(f"unknown operator {tag}")


def paravector_power(m: int, k: int) -> CliffordPolynomial:
    """(x0 + x)^k expanded into a genuine polynomial via x^2 = -|x|^2."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return CliffordPolynomial.paravector_variable(m) ** k


def is_monogenic(p: CliffordPolynomial) -> bool:
    """True iff the left Cauchy-Riemann operator annihilates p exactly."""
    return apply_operator(OperatorTag.D, p).is_zero()
