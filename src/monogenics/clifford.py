"""Arithmetic in the real Clifford algebra with m generators and its complexification.

Basis blades are indexed by bitmasks: bit ``j`` set means the generator
``e_{j+1}`` is present, so ``0`` is the scalar blade and masks respect the
canonical ordering ``e_{j_1} .. e_{j_k}`` with ``j_1 < ... < j_k``.  The
product sign of two blades is the parity of the merge transpositions plus
one factor of -1 per contracted generator (``e_j * e_j = -1``).  The
products read ``BLADE_TABLE``, the Cayley table of the blades, whose
entries come from ``blade_product`` on first use, never at import.

Coefficients may be exact (``Fraction`` / ``PiScalar``) or numeric
(``float`` / ``complex``); the two families are not mixed implicitly.
A scalar operand of ``+`` or ``-``, on either side, is the scalar blade of
the element's algebra, so ``2 + e1`` and ``e1 - 2`` are elements; any other
operand is refused.  Elements are immutable: every operation returns a
fresh value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import PiScalar, canon, is_zero_scalar, scalar_conj, to_complex

# operands of + and - that stand for the scalar blade
_SCALARS = (int, Fraction, PiScalar, float, complex)


def nan_max(values: Iterable[float]) -> float:
    """Largest of non-negative residuals (0.0 for none), NaN if any is NaN:
    the built-in ``max`` drops a NaN that follows a finite value."""
    worst = 0.0
    for v in values:
        if v > worst or v != v:
            worst = v
    return worst


def reorder_sign(a: int, b: int) -> int:
    """Sign from sorting the concatenation of blades ``a`` and ``b``."""
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def blade_product(a: int, b: int) -> tuple[int, int]:
    """Product of two basis blades: resulting mask and sign."""
    sign = reorder_sign(a, b)
    if (a & b).bit_count() & 1:
        sign = -sign
    return a ^ b, sign


class _BladeRow(dict):
    """``row[b] == (a ^ b, negate)`` for one blade ``a``, filled in on first use."""

    __slots__ = ("a",)

    def __init__(self, a: int):
        super().__init__()
        self.a = a

    def __missing__(self, b: int) -> tuple[int, bool]:
        mask, sign = blade_product(self.a, b)
        entry = self[b] = (mask, sign < 0)
        return entry


class _BladeTable(dict):
    def __missing__(self, a: int) -> _BladeRow:
        row = self[a] = _BladeRow(a)
        return row


# Cayley table of the blades: ``BLADE_TABLE[a][b] == (a ^ b, negate)``, with
# ``negate`` True when e_a e_b = -e_(a^b).  The sign does not depend on m, so
# one table serves every algebra; it holds only the pairs products have used.
BLADE_TABLE = _BladeTable()


def blade_indices(mask: int) -> tuple[int, ...]:
    """1-based generator indices of a blade mask, ascending."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for j in indices:
        bit = 1 << (j - 1)
        if mask & bit:
            raise ValueError("repeated generator index")
        mask |= bit
    return mask


class CliffordElement:
    """Sparse element of the Clifford algebra with ``m`` generators."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: dict | None = None):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self.coeffs: dict[int, object] = {}
        if coeffs:
            top = 1 << m
            for mask, c in coeffs.items():
                if not 0 <= mask < top:
                    raise ValueError(f"blade {mask:#x} outside algebra with m={m}")
                c = canon(c)
                if not is_zero_scalar(c):
                    self.coeffs[mask] = c

    @classmethod
    def _trusted(cls, m: int, coeffs: dict[int, object]) -> "CliffordElement":
        """Wrap canonical non-zero coefficients the caller made itself."""
        e = object.__new__(cls)
        e.m, e.coeffs = m, coeffs
        return e

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "CliffordElement":
        return cls(m)

    @classmethod
    def scalar(cls, m: int, value) -> "CliffordElement":
        return cls(m, {0: value})

    @classmethod
    def one(cls, m: int) -> "CliffordElement":
        return cls.scalar(m, Fraction(1))

    @classmethod
    def generator(cls, m: int, j: int) -> "CliffordElement":
        """The basis vector e_j, 1-based."""
        if not 1 <= j <= m:
            raise ValueError(f"generator index {j} out of range")
        return cls(m, {1 << (j - 1): Fraction(1)})

    @classmethod
    def blade(cls, m: int, indices: Iterable[int], coeff=Fraction(1)) -> "CliffordElement":
        return cls(m, {mask_from_indices(indices): coeff})

    @classmethod
    def vector(cls, m: int, components: Sequence) -> "CliffordElement":
        if len(components) != m:
            raise ValueError("need m components")
        return cls(m, {1 << j: components[j] for j in range(m)})

    # -- linear structure ----------------------------------------------

    def _check(self, other: "CliffordElement") -> None:
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: m={self.m} vs m={other.m}")

    def __add__(self, other) -> "CliffordElement":
        if isinstance(other, CliffordElement):
            self._check(other)
        elif isinstance(other, _SCALARS):
            other = CliffordElement.scalar(self.m, other)
        else:
            return NotImplemented
        coeffs = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            coeffs[mask] = coeffs[mask] + c if mask in coeffs else c
        return CliffordElement(self.m, coeffs)

    def __radd__(self, other) -> "CliffordElement":
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return CliffordElement.scalar(self.m, other) + self

    def __sub__(self, other) -> "CliffordElement":
        return self + -other if isinstance(other, (CliffordElement, *_SCALARS)) else NotImplemented

    def __rsub__(self, other) -> "CliffordElement":
        return other + -self if isinstance(other, _SCALARS) else NotImplemented

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.m, {mask: -c for mask, c in self.coeffs.items()})

    def scale(self, s) -> "CliffordElement":
        return CliffordElement(self.m, {mask: c * s for mask, c in self.coeffs.items()})

    def __mul__(self, other) -> "CliffordElement":
        if isinstance(other, CliffordElement):
            return geometric_product(self, other)
        return self.scale(other) if isinstance(other, _SCALARS) else NotImplemented

    def __rmul__(self, other) -> "CliffordElement":
        # scalars are central, so left and right scalar action agree
        return self.scale(other) if isinstance(other, _SCALARS) else NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.m, frozenset(self.coeffs.items())))   # equal values hash equal

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- algebra structure ----------------------------------------------

    def grade(self, k: int) -> "CliffordElement":
        return CliffordElement(
            self.m, {mask: c for mask, c in self.coeffs.items() if mask.bit_count() == k}
        )

    def scalar_part(self):
        return self.coeffs.get(0, Fraction(0))

    def vector_components(self) -> list:
        return [self.coeffs.get(1 << j, Fraction(0)) for j in range(self.m)]

    def conjugate(self) -> "CliffordElement":
        """Clifford conjugation: anti-automorphism with e_j -> -e_j."""
        out = {}
        for mask, c in self.coeffs.items():
            k = mask.bit_count()
            out[mask] = -c if (k * (k + 1) // 2) & 1 else c
        return CliffordElement(self.m, out)

    def hermitian(self) -> "CliffordElement":
        """Hermitian conjugation on the complexified algebra."""
        return CliffordElement(
            self.m, {mask: scalar_conj(c) for mask, c in self.conjugate().coeffs.items()}
        )

    def map_scalars(self, fn) -> "CliffordElement":
        return CliffordElement(self.m, {mask: fn(c) for mask, c in self.coeffs.items()})

    def to_numeric(self) -> "CliffordElement":
        """Convert coefficients to complex floats (reals stay real floats)."""

        def conv(c):
            z = to_complex(c)
            return z.real if z.imag == 0.0 else z

        return self.map_scalars(conv)

    def norm_inf(self) -> float:
        """Largest coefficient magnitude, for numeric residuals; NaN if any is NaN."""
        return nan_max(abs(to_complex(c)) for c in self.coeffs.values())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for mask in sorted(self.coeffs, key=lambda t: (t.bit_count(), t)):
            c = self.coeffs[mask]
            label = "" if mask == 0 else "e" + "".join(str(j) for j in blade_indices(mask))
            parts.append(f"({c}){label}" if label else f"({c})")
        return " + ".join(parts)


# what polynomials multiply by coefficient-wise, from either side
COEFF_OPERANDS = (CliffordElement, *_SCALARS)


def geometric_product(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Bilinear associative product with e_j e_l + e_l e_j = -2 delta_jl."""
    a._check(b)
    coeffs: dict[int, object] = {}
    for ma, ca in a.coeffs.items():
        row = BLADE_TABLE[ma]
        for mb, cb in b.coeffs.items():
            mask, negate = row[mb]
            c = ca * cb
            if negate:
                c = -c
            coeffs[mask] = coeffs[mask] + c if mask in coeffs else c
    return CliffordElement(a.m, coeffs)


def axial_element(m: int, a, w: Sequence, b) -> CliffordElement:
    """The element a + w b, with w = sum_j w_j e_j given by its m components.

    a and b may be scalars or elements; w is a sequence or an array, and an
    element b multiplies it from the right.
    """
    return a + CliffordElement.vector(m, w) * b


def clifford_conjugate(a: CliffordElement) -> CliffordElement:
    return a.conjugate()


def hermitian_conjugate(a: CliffordElement) -> CliffordElement:
    return a.hermitian()


@dataclass(frozen=True)
class Paravector:
    """Point x0 + x1 e_1 + ... + xm e_m of (m+1)-dimensional space."""

    x0: object
    xv: tuple

    @property
    def m(self) -> int:
        return len(self.xv)

    def to_element(self) -> CliffordElement:
        coeffs = {0: self.x0}
        coeffs.update({1 << j: self.xv[j] for j in range(self.m)})
        return CliffordElement(self.m, coeffs)

    def conj(self) -> "Paravector":
        return Paravector(self.x0, tuple(-c for c in self.xv))

    def norm_sq(self):
        return self.x0 * self.x0 + sum(c * c for c in self.xv)
