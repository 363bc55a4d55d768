"""Clifford-coefficient polynomials in (x0, x1, ..., xm) and the first-order operators on them.

Variables are central scalars; only the coefficients multiply through the
algebra.  Operators act from the left, matching the right-module convention
of the function spaces: ``D p = d/dx0 p + sum_j e_j (d/dxj p)``.

Products and the first-order operators run one kernel over ``exponents ->
blade -> value`` rows with the signs of ``clifford.BLADE_TABLE``.  A
polynomial whose coefficients are all ``Fraction`` also has a unique integer
form ``(den, exponents -> blade -> int)``, gcd(den, numerators) = 1: on it
products, sums, rational scalings, derivatives and ``==`` do plain ``int``
arithmetic, and ``terms`` builds each Fraction and element once, on first
read.  Data with any ``PiScalar``, float or complex coefficient takes the
scalar path, chosen by type, where each output element is built once
through ``canon``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Sequence

from .clifford import BLADE_TABLE, COEFF_OPERANDS, CliffordElement, nan_max
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

    __slots__ = ("m", "_terms", "_ints")

    def __init__(self, m: int, terms: dict[Exponents, CliffordElement] | None = None):
        self.m, self._terms, self._ints = m, {}, None
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != m + 1:
                    raise ValueError("exponent tuple must have length m+1")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in polynomial")
                if coeff.m != m:
                    raise ValueError("coefficient dimension mismatch")
                if not coeff.is_zero():
                    self._terms[tuple(exps)] = coeff

    @classmethod
    def _trusted(cls, m: int, terms: dict[Exponents, CliffordElement]) -> "CliffordPolynomial":
        """Wrap terms the engine made itself, dropping zero coefficients only."""
        p = object.__new__(cls)
        p.m, p._ints, p._terms = m, None, {exps: c for exps, c in terms.items() if c.coeffs}
        return p

    @classmethod
    def _from_sums(cls, m: int, den: int | None, sums: dict[Exponents, dict[int, object]]
                   ) -> "CliffordPolynomial":
        """Wrap ``exponents -> blade -> value`` sums: numerators over ``den``,
        reduced to the integer form, or raw scalars when ``den`` is None."""
        if den is None:
            return cls._trusted(m, {exps: CliffordElement(m, blades) for exps, blades in sums.items()})
        rows, g = {}, den
        for exps, blades in sums.items():
            if 0 in blades.values():
                blades = {mask: n for mask, n in blades.items() if n}
            if blades:
                rows[exps] = blades
                if g != 1:
                    g = gcd(g, *blades.values())
        if g != 1:
            den //= g
            rows = {exps: {mask: n // g for mask, n in blades.items()} for exps, blades in rows.items()}
        p = object.__new__(cls)
        p.m, p._terms, p._ints = m, None, (den, rows)
        return p

    @property
    def terms(self) -> dict[Exponents, CliffordElement]:
        """exponents -> coefficient; made from the integer form on first read."""
        if self._terms is None:
            den, rows = self._ints
            self._terms = {exps: CliffordElement._trusted(self.m, {
                mask: Fraction(n, den) for mask, n in blades.items()}) for exps, blades in rows.items()}
        return self._terms

    def _int_form(self) -> tuple[int, dict[Exponents, dict[int, int]]] | None:
        """``(den, exponents -> blade -> numerator)`` if every coefficient is a
        Fraction, else None.  den is the lcm of the denominators, so no prime
        divides it and every numerator."""
        if self._ints is None:
            coeffs = [c for coeff in self._terms.values() for c in coeff.coeffs.values()]
            self._ints = False
            if all(type(c) is Fraction for c in coeffs):
                den = lcm(*(c.denominator for c in coeffs))
                self._ints = den, {exps: {mask: c.numerator * (den // c.denominator)
                                          for mask, c in coeff.coeffs.items()}
                                   for exps, coeff in self._terms.items()}
        return self._ints or None

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
        return cls(m, {tuple(int(i == j) for i in range(m + 1)): CliffordElement.generator(m, j)
                       for j in range(1, m + 1)})

    @classmethod
    def paravector_variable(cls, m: int) -> "CliffordPolynomial":
        return cls.variable(m, 0) + cls.vector_variable(m)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "CliffordPolynomial":
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        if ints := _int_forms(self, other):
            (da, ra), (db, rb) = ints
            den = lcm(da, db)
            sums = dict(_rescaled(ra, den // da))
            for exps, blades in _rescaled(rb, den // db).items():
                if exps in sums:
                    merged = dict(sums[exps])
                    for mask, n in blades.items():
                        merged[mask] = merged.get(mask, 0) + n
                    blades = merged
                sums[exps] = blades
            return CliffordPolynomial._from_sums(self.m, den, sums)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms[exps] + coeff if exps in terms else coeff
        return CliffordPolynomial._trusted(self.m, terms)

    def __sub__(self, other) -> "CliffordPolynomial":
        return self + (-other)

    def __neg__(self) -> "CliffordPolynomial":
        if self._int_form():
            return self.scale(-1)
        return CliffordPolynomial._trusted(self.m, {e: -c for e, c in self.terms.items()})

    def scale(self, s) -> "CliffordPolynomial":
        """Every coefficient times s from the right; s is a scalar or an element."""
        if type(s) in (int, Fraction) and (ints := self._int_form()):
            return CliffordPolynomial._from_sums(self.m, ints[0] * s.denominator,
                                                 _rescaled(ints[1], s.numerator))
        return CliffordPolynomial._trusted(self.m, {e: c * s for e, c in self.terms.items()})

    def __mul__(self, other) -> "CliffordPolynomial":
        if not isinstance(other, CliffordPolynomial):
            return self.scale(other) if isinstance(other, COEFF_OPERANDS) else NotImplemented
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        return _product(self, other)

    def __rmul__(self, other) -> "CliffordPolynomial":
        """Every coefficient times ``other`` from the left (an element or a scalar)."""
        if not isinstance(other, COEFF_OPERANDS):
            return NotImplemented
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
        if self.m != other.m:
            return False
        ints = _int_forms(self, other)
        return ints[0] == ints[1] if ints else self.terms == other.terms

    def is_zero(self) -> bool:
        return not (self._ints[1] if self._terms is None else self._terms)

    # -- calculus -------------------------------------------------------

    def diff(self, j: int) -> "CliffordPolynomial":
        # lowering exps[j] is one-to-one on the terms that have it, so no sums
        if ints := self._int_form():
            return CliffordPolynomial._from_sums(self.m, ints[0], {
                (*exps[:j], exps[j] - 1, *exps[j + 1:]): {mask: n * exps[j] for mask, n in blades.items()}
                for exps, blades in ints[1].items() if exps[j]})
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
        return nan_max(c.norm_inf() for c in self.terms.values())

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


def _int_forms(p: CliffordPolynomial, q: CliffordPolynomial) -> tuple | None:
    """Both integer forms, or None unless both operands have one."""
    a = p._int_form()
    b = a and q._int_form()
    return (a, b) if b else None


def _rows(p: CliffordPolynomial) -> dict[Exponents, dict[int, object]]:
    return {exps: coeff.coeffs for exps, coeff in p.terms.items()}


def _rescaled(rows: dict, f: int) -> dict:
    """Integer rows with every numerator times f (the same rows when f is 1)."""
    if f == 1:
        return rows
    return {exps: {mask: n * f for mask, n in blades.items()} for exps, blades in rows.items()}


def _product(p: CliffordPolynomial, q: CliffordPolynomial) -> CliffordPolynomial:
    """p * q, summing numerators (or raw scalars) per exponent and blade in
    the order of the term pairs."""
    table = BLADE_TABLE
    ints = _int_forms(p, q)
    (dp, rp), (dq, rq) = ints or ((None, _rows(p)), (None, _rows(q)))
    den = dp * dq if ints else None
    sums: dict[Exponents, dict[int, object]] = {}
    for ea, a in rp.items():
        for eb, b in rq.items():
            blades = sums.setdefault(tuple(map(add, ea, eb)), {})
            for ma, ca in a.items():
                row = table[ma]
                for mb, cb in b.items():
                    mask, negate = row[mb]
                    c = ca * cb
                    if negate:
                        c = -c
                    blades[mask] = blades[mask] + c if mask in blades else c
    return CliffordPolynomial._from_sums(p.m, den, sums)


def _first_order(p: CliffordPolynomial, with_x0: bool, flip: bool) -> CliffordPolynomial:
    """[d/dx0 p] +- sum_j e_j d/dxj p (minus when ``flip``) in one pass."""
    table = BLADE_TABLE
    den, rows = p._int_form() or (None, _rows(p))
    sums: dict[Exponents, dict[int, object]] = {}
    for exps, coeff in rows.items():
        for j in range(0 if with_x0 else 1, p.m + 1):
            n = exps[j]
            if not n:
                continue
            blades = sums.setdefault((*exps[:j], n - 1, *exps[j + 1:]), {})
            row = table[(1 << j) >> 1]          # e_j, or the scalar blade at j = 0
            sign_flip = flip and j > 0
            for mb, c in coeff.items():
                mask, negate = row[mb]
                c = c * n
                if negate != sign_flip:
                    c = -c
                blades[mask] = blades[mask] + c if mask in blades else c
    return CliffordPolynomial._from_sums(p.m, den, sums)


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
