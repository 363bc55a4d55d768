"""Clifford-coefficient polynomials in (x0, x1, ..., xm) and the first-order operators on them.

Variables are central scalars; only the coefficients multiply through the
algebra.  Operators act from the left, matching the right-module convention
of the function spaces: ``D p = d/dx0 p + sum_j e_j (d/dxj p)``.

A polynomial is one flat dict ``key -> value`` over one denominator ``den``.
The key packs one monomial and blade into one ``int``: the blade mask in the
low m bits, then the exponent of x_j in the field of ``width`` bits at bit
m + width j, where width is the smallest 8 * 2^k bits that hold every
exponent of the polynomial.  All-Fraction data keeps int numerators over one
reduced den, gcd(den, numerators) = 1; any other data (``PiScalar``, float,
complex or mixed) keeps canonical scalars over den = 1.  Each operation has
one body for both, on the values' own ``*`` and ``+``: a product adds two
keys (less twice the blades' common bits, which turns their sum into their
xor), after repacking its operands at double the width where a field could
carry; a derivative subtracts a unit of one field; and ``terms`` unpacks
each key and builds each element once, on first read.  A product or a
first-order operator takes the signs from ``clifford.BLADE_TABLE`` into one
row of key moves per blade of its left operand, so its inner loop only adds
keys and multiplies.  ``paravector_power`` builds each (x0 + x)^k once.
"""

from __future__ import annotations

import enum
import struct
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, or_
from typing import Sequence

from .clifford import BLADE_TABLE, COEFF_OPERANDS, CliffordElement, nan_max
from .scalars import canon, is_zero_scalar

Exponents = tuple[int, ...]

# bits per exponent field of a packed key at the narrowest, one byte, and the
# largest exponent that fits it; wider fields double it as the data needs
WIDTH = 8
FIELD = (1 << WIDTH) - 1

_POWERS: dict[int, dict[int, CliffordPolynomial]] = {}  # m -> {k: (x0 + x)^k}, see paravector_power


class OperatorTag(enum.Enum):
    D = "cauchy_riemann"              # d_x0 + d_x
    DBAR = "conjugate_cauchy_riemann"  # d_x0 - d_x
    DIRAC = "dirac"                   # d_x
    LAPLACIAN = "laplacian"           # sum_j d_xj^2, j = 0..m
    PARTIAL_X0 = "partial_x0"
    HYPERCOMPLEX = "hypercomplex_derivative"  # (d_x0 - d_x)/2


class CliffordPolynomial:
    """Sparse multivariate polynomial with CliffordElement coefficients."""

    __slots__ = ("m", "_width", "_ints", "_terms")

    def __init__(self, m: int, terms: dict[Exponents, CliffordElement] | None = None):
        self.m, self._terms = m, {}
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
        self._width = width = _fit(max(map(max, self._terms), default=0))
        self._ints = _as_ints({_pack(m, exps, width) + mask: c
                               for exps, coeff in self._terms.items() for mask, c in coeff.coeffs.items()})

    @classmethod
    def _packed(cls, m: int, width: int, den: int, flat: dict[int, object]) -> "CliffordPolynomial":
        """Wrap ``key -> value`` sums, keys ``width`` bits a field, in the one
        form, zeros dropped: int numerators over den reduced by their gcd with
        it; other values, over den 1, canonical, and ints again if all are
        Fractions; a width past the narrowest narrowed to what the data needs."""
        if _rational(flat):
            if 0 in flat.values():
                flat = {key: n for key, n in flat.items() if n}
            g = gcd(den, *flat.values())
            if g != 1:
                den //= g
                flat = {key: n // g for key, n in flat.items()}
        else:
            den, flat = _as_ints({key: c for key, v in flat.items() if not is_zero_scalar(c := canon(v))})
        if width > WIDTH and (fit := _fit(max(_fields(m, flat, width)))) < width:
            flat, width = _repacked(m, flat, width, fit), fit
        p = object.__new__(cls)
        p.m, p._width, p._ints, p._terms = m, width, (den, flat), None
        return p

    @property
    def terms(self) -> dict[Exponents, CliffordElement]:
        """exponents -> coefficient; unpacked from the keys on first read."""
        if self._terms is None:
            m, rows = self.m, {}
            for key, c in _scalars(*self._ints).items():
                rows.setdefault(key >> m, {})[key & ((1 << m) - 1)] = c
            self._terms = {_exponents(m, e, self._width): CliffordElement._trusted(m, blades)
                           for e, blades in rows.items()}
        return self._terms

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
        (da, ra), (db, rb), width = _aligned(self, other)
        den = lcm(da, db)
        sums = dict(_rescaled(ra, den // da))
        get = sums.get
        for key, n in _rescaled(rb, den // db).items():
            sums[key] = get(key, 0) + n
        return CliffordPolynomial._packed(self.m, width, den, sums)

    def __sub__(self, other) -> "CliffordPolynomial":
        return self + (-other)

    def __neg__(self) -> "CliffordPolynomial":
        return self.scale(-1)

    def scale(self, s) -> "CliffordPolynomial":
        """Every coefficient times s from the right; s is a scalar or an element."""
        if isinstance(s, CliffordElement):
            return _product(self, CliffordPolynomial.constant(self.m, s))
        den, flat = self._ints
        s = canon(s)
        if type(s) is Fraction and _rational(flat):
            den, s = den * s.denominator, s.numerator
        else:
            den, flat = 1, _scalars(den, flat)
        return CliffordPolynomial._packed(self.m, self._width, den, {key: c * s for key, c in flat.items()})

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
        if isinstance(other, CliffordElement):
            return _product(CliffordPolynomial.constant(self.m, other), self)
        return self.scale(other)        # scalars are central

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
        # each width is the data's own, so equal data has equal widths and keys
        a, b, _ = _aligned(self, other)
        return self._width == other._width and a == b

    def is_zero(self) -> bool:
        return not self._ints[1]

    # -- calculus -------------------------------------------------------

    def diff(self, j: int) -> "CliffordPolynomial":
        if not 0 <= j <= self.m:
            raise ValueError("variable index out of range")
        # lowering the exponent of x_j is one-to-one on the terms that have it, so no sums
        width, (den, flat) = self._width, self._ints
        shift, field = self.m + width * j, (1 << width) - 1
        return CliffordPolynomial._packed(self.m, width, den, {
            key - (1 << shift): c * e for key, c in flat.items() if (e := key >> shift & field)})

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


def _rational(flat: dict[int, object]) -> bool:
    """The values are int numerators: the first is, and no other kind mixes with them."""
    return type(next(iter(flat.values()), 0)) is int


def _scalars(den: int, flat: dict[int, object]) -> dict[int, object]:
    """The values as canonical scalars; a numerator over den becomes a Fraction
    once per distinct numerator (few distinct, as a rule)."""
    if not _rational(flat):
        return flat
    values = {n: Fraction(n, den) for n in set(flat.values())}
    return {key: values[n] for key, n in flat.items()}


def _as_ints(flat: dict[int, object]) -> tuple[int, dict[int, object]]:
    """Canonical non-zero scalars as int numerators over one reduced den if
    every one is a Fraction, else over den 1 as they are."""
    if not all(type(c) is Fraction for c in flat.values()):
        return 1, flat
    den = lcm(*(c.denominator for c in flat.values()))
    return den, {key: c.numerator * (den // c.denominator) for key, c in flat.items()}


def _fit(top: int) -> int:
    """The smallest 8 * 2^k bits that hold top."""
    width = WIDTH
    while top >> width:
        width <<= 1
    return width


def _fields(m: int, flat: dict[int, object], width: int) -> list[int]:
    """The fieldwise or of the keys, which has the bit length of the largest
    exponent of each variable."""
    ored, field = reduce(or_, flat, 0) >> m, (1 << width) - 1
    return [ored >> s & field for s in range(0, width * (m + 1), width)]


def _pack(m: int, exps: Exponents, width: int) -> int:
    """The key of a monomial on the scalar blade; add a mask for its blade."""
    size = width >> 3
    raw = bytes(exps) if size == 1 else b"".join(e.to_bytes(size, "little") for e in exps)
    return int.from_bytes(raw, "little") << m


def _exponents(m: int, packed: int, width: int) -> Exponents:
    """The m+1 exponents of a key shifted right past its blade: its fields."""
    size = width >> 3
    raw = packed.to_bytes((m + 1) * size, "little")
    return tuple(raw) if size == 1 else tuple(int.from_bytes(raw[i:i + size], "little")
                                              for i in range(0, len(raw), size))


def _compact(values: list[int]) -> bytes | tuple[int, ...]:
    """Non-negative ints (packed keys or key offsets) in an immutable form for
    a process-wide table: 8 bytes each when all fit 63 bits, else a tuple.
    ``_view`` reads them back."""
    if max(values, default=0) >> 63:
        return tuple(values)
    return struct.pack(f"{len(values)}q", *values)


def _view(compact: bytes | tuple[int, ...]) -> Sequence[int]:
    """The ints of a ``_compact`` form, as a read-only view of its bytes."""
    return memoryview(compact).cast("q") if type(compact) is bytes else compact


def _repacked(m: int, flat: dict[int, object], width: int, new: int) -> dict[int, object]:
    """The same terms on keys of ``new`` bits a field (the same dict if unchanged)."""
    if new == width:
        return flat
    low = (1 << m) - 1
    return {_pack(m, _exponents(m, key >> m, width), new) + (key & low): c for key, c in flat.items()}


def _aligned(p: CliffordPolynomial, q: CliffordPolynomial, width: int = WIDTH) -> tuple:
    """Both operands' ``(den, flat)`` and their common width, at least ``width``:
    ints if both are, else canonical scalars over 1."""
    width = max(p._width, q._width, width)
    a, b = p._ints, q._ints
    if _rational(a[1]) != _rational(b[1]):
        a, b = (1, _scalars(*a)), (1, _scalars(*b))
    return (a[0], _repacked(p.m, a[1], p._width, width)), (b[0], _repacked(q.m, b[1], q._width, width)), width


def _rescaled(flat: dict[int, object], f: int) -> dict[int, object]:
    """Every value times f (the same dict when f is 1)."""
    return flat if f == 1 else {key: n * f for key, n in flat.items()}


def _product(p: CliffordPolynomial, q: CliffordPolynomial) -> CliffordPolynomial:
    """p * q: values summed per packed key, at a width where no field can carry:
    a field of the product holds at most the sum of the operands' largest
    exponents in it.  Each blade of p gets one row of q's key moves and signed
    values; a row holds |q| entries and is dropped after its blade's last term
    of p, so at most (p's blades) x |q| entries are live, and one row at a
    time when p has one term per blade, as a constant element does."""
    m, table = p.m, BLADE_TABLE
    top = max(map(add, _fields(m, p._ints[1], p._width), _fields(m, q._ints[1], q._width)))
    (dp, rp), (dq, rq), width = _aligned(p, q, _fit(top))
    low, by_blade = (1 << m) - 1, {}
    for kb, nb in rq.items():
        by_blade.setdefault(kb & low, []).append((kb, nb))
    last, rows = {ka & low: ka for ka in rp}, {}
    sums: dict[int, object] = {}
    get = sums.get
    for ka, na in rp.items():
        ma = ka & low
        if (row := rows.get(ma)) is None:   # ka + kb - 2 (ma & mb) holds ma ^ mb
            signs = table[ma]
            row = rows[ma] = [(kb - ((ma & mb) << 1), -nb if signs[mb][1] else nb)
                              for mb, entries in by_blade.items() for kb, nb in entries]
        for d, nb in row:
            key = ka + d
            sums[key] = get(key, 0) + na * nb
        if last[ma] == ka:
            del rows[ma]
    return CliffordPolynomial._packed(m, width, dp * dq, sums)


def _first_order(p: CliffordPolynomial, with_x0: bool, flip: bool) -> CliffordPolynomial:
    """[d/dx0 p] +- sum_j e_j d/dxj p (minus when ``flip``) in one pass, with one
    row per blade of p of each j's field shift, key move and sign."""
    m, table, width, field = p.m, BLADE_TABLE, p._width, (1 << p._width) - 1
    # b is the blade of e_j, or the scalar blade at j = 0
    js = [(j, m + width * j, (1 << j) >> 1) for j in range(0 if with_x0 else 1, m + 1)]
    den, flat = p._ints
    rows: dict[int, list] = {}
    sums: dict[int, object] = {}
    get = sums.get
    for key, c in flat.items():
        mask = key & ((1 << m) - 1)
        if (row := rows.get(mask)) is None:
            row = rows[mask] = [(shift, b - ((mask & b) << 1) - (1 << shift), table[b][mask][1] != (flip and j > 0))
                                for j, shift, b in js]
        for shift, move, negate in row:
            if n := key >> shift & field:
                sums[key + move] = get(key + move, 0) + (-c * n if negate else c * n)
    return CliffordPolynomial._packed(m, width, den, sums)


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
    """(x0 + x)^k expanded into a genuine polynomial via x^2 = -|x|^2.  Each
    power is built once per process, as x^(k-1) * x, and then shared, since a
    polynomial is immutable; two threads racing on one k store equal values."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if (powers := _POWERS.get(m)) is None:
        powers = _POWERS.setdefault(m, {0: CliffordPolynomial.one(m), 1: CliffordPolynomial.paravector_variable(m)})
    for j in range(len(powers), k + 1):
        powers[j] = powers[j - 1] * powers[1]
    return powers[k]


def is_monogenic(p: CliffordPolynomial) -> bool:
    """True iff the left Cauchy-Riemann operator annihilates p exactly."""
    return apply_operator(OperatorTag.D, p).is_zero()
