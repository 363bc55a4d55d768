"""Clifford-coefficient polynomials in (x0, x1, ..., xm) and the first-order operators on them.

Variables are central scalars; only the coefficients multiply through the
algebra.  Operators act from the left, matching the right-module convention
of the function spaces: ``D p = d/dx0 p + sum_j e_j (d/dxj p)``.

A polynomial whose coefficients are all ``Fraction`` and whose exponents
all fit in ``WIDTH`` bits also has a unique integer form ``(den, key ->
int)``, gcd(den, numerators) = 1.  The key packs one monomial and blade into
one ``int``: the blade mask in the low m bits, then the exponent of x_j in
the ``WIDTH``-bit field at bit m + WIDTH j.  On it a product adds two keys
(less twice the blades' common bits, which turns their sum into their xor)
and takes the sign from ``clifford.BLADE_TABLE``; a derivative subtracts a
unit of one field; sums, rational scalings and ``==`` work on the flat dict;
and ``terms`` unpacks each key and builds each Fraction and element once, on
first read.  A product whose largest exponents could carry out of a field,
and data with any ``PiScalar``, float or complex coefficient, take the
scalar path over ``exponents -> blade -> value`` rows, chosen once per
operation, where each output element is built once through ``canon``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, or_
from typing import Sequence

from .clifford import BLADE_TABLE, COEFF_OPERANDS, CliffordElement, nan_max
from .scalars import canon

Exponents = tuple[int, ...]

# bits per exponent field of a packed key: one byte, which ``_pack`` and
# ``_exponents`` read through ``bytes``; FIELD is the largest exponent
WIDTH = 8
FIELD = (1 << WIDTH) - 1


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
                if any(type(e) is not int for e in exps):
                    raise ValueError("exponents must be int")
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
    def _from_ints(cls, m: int, den: int, flat: dict[int, int]) -> "CliffordPolynomial":
        """Wrap ``key -> numerator`` sums over ``den``, reduced to the integer form."""
        if 0 in flat.values():
            flat = {key: n for key, n in flat.items() if n}
        g = gcd(den, *flat.values())
        if g != 1:
            den //= g
            flat = {key: n // g for key, n in flat.items()}
        p = object.__new__(cls)
        p.m, p._terms, p._ints = m, None, (den, flat)
        return p

    @classmethod
    def _from_rows(cls, m: int, rows: dict[Exponents, dict[int, object]]) -> "CliffordPolynomial":
        """Wrap ``exponents -> blade -> scalar`` sums of the scalar path."""
        return cls._trusted(m, {exps: CliffordElement(m, blades) for exps, blades in rows.items()})

    @property
    def terms(self) -> dict[Exponents, CliffordElement]:
        """exponents -> coefficient; unpacked from the integer form on first read."""
        if self._terms is None:
            m, (den, flat) = self.m, self._ints
            rows: dict[int, dict[int, Fraction]] = {}
            values = {n: Fraction(n, den) for n in set(flat.values())}   # few distinct, as a rule
            for key, n in flat.items():
                rows.setdefault(key >> m, {})[key & ((1 << m) - 1)] = values[n]
            self._terms = {_exponents(m, e): CliffordElement._trusted(m, blades)
                           for e, blades in rows.items()}
        return self._terms

    def _int_form(self) -> tuple[int, dict[int, int]] | None:
        """``(den, key -> numerator)`` if every coefficient is a Fraction and
        every exponent fits in a field, else None.  den is the lcm of the
        denominators, so no prime divides it and every numerator."""
        if self._ints is None:
            coeffs = [c for coeff in self._terms.values() for c in coeff.coeffs.values()]
            self._ints = False
            if all(type(c) is Fraction for c in coeffs) and max(map(max, self._terms), default=0) <= FIELD:
                den = lcm(*(c.denominator for c in coeffs))
                self._ints = den, {_pack(self.m, exps) + mask: c.numerator * (den // c.denominator)
                                   for exps, coeff in self._terms.items() for mask, c in coeff.coeffs.items()}
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
            get = sums.get
            for key, n in _rescaled(rb, den // db).items():
                sums[key] = get(key, 0) + n
            return CliffordPolynomial._from_ints(self.m, den, sums)
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
            return CliffordPolynomial._from_ints(self.m, ints[0] * s.denominator,
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
            shift = self.m + WIDTH * j
            return CliffordPolynomial._from_ints(self.m, ints[0], {
                key - (1 << shift): n * e for key, n in ints[1].items() if (e := key >> shift & FIELD)})
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


def _pack(m: int, exps: Exponents) -> int:
    """The key of a monomial on the scalar blade; add a mask for its blade."""
    return int.from_bytes(bytes(exps), "little") << m


def _exponents(m: int, packed: int) -> Exponents:
    """The m+1 exponents of a key shifted right past its blade: its bytes."""
    return tuple(packed.to_bytes(m + 1, "little"))


def _no_carry(m: int, ra: dict[int, int], rb: dict[int, int]) -> bool:
    """No exponent of a key of ra plus one of rb can pass FIELD: the fieldwise
    or of a dict's keys bounds its largest exponents."""
    a, b = reduce(or_, ra, 0), reduce(or_, rb, 0)
    return all((a >> s & FIELD) + (b >> s & FIELD) <= FIELD for s in range(m, m + WIDTH * (m + 1), WIDTH))


def _rescaled(flat: dict[int, int], f: int) -> dict[int, int]:
    """Every numerator times f (the same dict when f is 1)."""
    return flat if f == 1 else {key: n * f for key, n in flat.items()}


def _product(p: CliffordPolynomial, q: CliffordPolynomial) -> CliffordPolynomial:
    """p * q: numerators summed per packed key when no field can carry, else
    raw scalars per exponent tuple and blade in the order of the term pairs."""
    m, table = p.m, BLADE_TABLE
    ints = _int_forms(p, q)
    if ints and _no_carry(m, ints[0][1], ints[1][1]):
        (dp, rp), (dq, rq) = ints
        low, by_blade = (1 << m) - 1, {}
        for kb, nb in rq.items():
            by_blade.setdefault(kb & low, []).append((kb, nb))
        sums: dict[int, int] = {}
        get = sums.get
        for ka, na in rp.items():
            ma = ka & low
            row = table[ma]
            for mb, entries in by_blade.items():
                s = -na if row[mb][1] else na
                base = ka - ((ma & mb) << 1)    # ka + kb - 2 (ma & mb) holds ma ^ mb
                for kb, nb in entries:
                    key = base + kb
                    sums[key] = get(key, 0) + s * nb
        return CliffordPolynomial._from_ints(m, dp * dq, sums)
    rows: dict[Exponents, dict[int, object]] = {}
    for ea, a in p.terms.items():
        for eb, b in q.terms.items():
            blades = rows.setdefault(tuple(map(add, ea, eb)), {})
            for ma, ca in a.coeffs.items():
                row = table[ma]
                for mb, cb in b.coeffs.items():
                    mask, negate = row[mb]
                    c = ca * cb
                    if negate:
                        c = -c
                    blades[mask] = blades[mask] + c if mask in blades else c
    return CliffordPolynomial._from_rows(m, rows)


def _first_order(p: CliffordPolynomial, with_x0: bool, flip: bool) -> CliffordPolynomial:
    """[d/dx0 p] +- sum_j e_j d/dxj p (minus when ``flip``) in one pass."""
    m, table = p.m, BLADE_TABLE
    js = range(0 if with_x0 else 1, m + 1)
    if ints := p._int_form():
        sums: dict[int, int] = {}
        get = sums.get
        for key, c in ints[1].items():
            mask = key & ((1 << m) - 1)
            for j in js:
                if n := key >> (m + WIDTH * j) & FIELD:
                    b = (1 << j) >> 1           # e_j, or the scalar blade at j = 0
                    key_j = key - (1 << (m + WIDTH * j)) + b - ((mask & b) << 1)
                    sums[key_j] = get(key_j, 0) + (-c * n if table[b][mask][1] != (flip and j > 0) else c * n)
        return CliffordPolynomial._from_ints(m, ints[0], sums)
    rows: dict[Exponents, dict[int, object]] = {}
    for exps, coeff in p.terms.items():
        for j in js:
            n = exps[j]
            if not n:
                continue
            blades = rows.setdefault((*exps[:j], n - 1, *exps[j + 1:]), {})
            row = table[(1 << j) >> 1]
            sign_flip = flip and j > 0
            for mb, c in coeff.coeffs.items():
                mask, negate = row[mb]
                c = c * n
                if negate != sign_flip:
                    c = -c
                blades[mask] = blades[mask] + c if mask in blades else c
    return CliffordPolynomial._from_rows(m, rows)


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
