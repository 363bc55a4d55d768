"""Fixed dimensional constants of the extension machinery, kept exact.

All values are rational multiples of half-integer powers of pi (``PiScalar``),
so identities in which they cancel can be verified by exact comparison.
For even m the ``gamma`` factor carries a unit complex phase i**(1-m) and
therefore lives in the complexified scalar field for every m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import PiScalar, double_factorial, gamma_half


def sphere_area(m: int) -> PiScalar:
    """Surface area of the unit sphere S^(m-1) in R^m: 2 pi^(m/2) / Gamma(m/2)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return PiScalar.pi_power(m, 2) / gamma_half(m)


@dataclass(frozen=True)
class CoreConstants:
    m: int
    sigma: PiScalar        # area of S^(m-1)
    sigma_next: PiScalar   # area of S^m
    lam: PiScalar          # 2^(m-1) Gamma((m+1)/2)^2
    gamma: PiScalar        # i^(1-m) * lam / (m-1)!


@functools.lru_cache(maxsize=None)
def constants(m: int) -> CoreConstants:
    """All fixed constants for dimension m, exact.

    Built once per m and shared: ``CoreConstants`` is frozen and its
    ``PiScalar`` values are never mutated.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    g2 = gamma_half(m + 1) * gamma_half(m + 1)
    lam = PiScalar.of(Fraction(2 ** (m - 1))) * g2
    gamma = PiScalar.i_power(1 - m) * lam * Fraction(1, math.factorial(m - 1))
    return CoreConstants(
        m=m,
        sigma=sphere_area(m),
        sigma_next=sphere_area(m + 1),
        lam=lam,
        gamma=gamma,
    )


def gamma_odd_closed_form(m: int) -> Fraction:
    """(-1)^((m-1)/2) (m-1)!!/(m-2)!!, the odd-m closed form of gamma."""
    if m % 2 == 0:
        raise ValueError("closed form only defined for odd m")
    sign = -1 if ((m - 1) // 2) % 2 else 1
    return Fraction(sign * double_factorial(m - 1), double_factorial(m - 2))
