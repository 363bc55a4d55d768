"""The numeric sphere rules on numpy alone: the Gauss-Gegenbauer rule behind
``ProductGaussRule`` against exact moments and an independent Legendre
witness, the Monte Carlo nodes against a plain normalization, and an import
guard that keeps scipy out of the library."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from monogenics.sphere import _MC_BLOCK, MonteCarloRule, _gauss_gegenbauer


def test_library_imports_no_scipy():
    code = ("import sys, monogenics, monogenics.cli\n"
            "from monogenics.sphere import MonteCarloRule, ProductGaussRule\n"
            "monogenics.cli.build_parser()\n"
            "ProductGaussRule(4, 24)\n"
            "MonteCarloRule(3, 1000, 0)\n"
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)])
@pytest.mark.parametrize("n", [1, 2, 3, 24, 48, 707])
def test_gauss_gegenbauer_rule(n, alpha):
    t, w = _gauss_gegenbauer(n, float(alpha))
    assert t.shape == w.shape == (n,)
    assert np.all(np.diff(t) > 0) and np.array_equal(t, -t[::-1])
    assert np.all(w > 0) and np.array_equal(w, w[::-1])
    # mu0 = int (1-t^2)^alpha dt = B(1/2, alpha+1); the even moments are
    # B(j+1/2, alpha+1) = mu0 prod_(i<j) (i+1/2)/(i+alpha+3/2), the ratio exact
    mu0 = math.gamma(0.5) * math.gamma(alpha + 1) / math.gamma(alpha + 1.5)
    assert abs(w.sum() / mu0 - 1) < 1e-14
    ratio = Fraction(1)
    for j in range(min(2 * n - 1, 118) // 2 + 1):
        moment = float((w * t ** (2 * j)).sum())
        assert abs(moment / (mu0 * float(ratio)) - 1) < 1e-13, j
        ratio *= (j + Fraction(1, 2)) / (j + alpha + Fraction(3, 2))
    if alpha == 0 and n <= 48:
        # leggauss's own weights are off by ~1e-13 at n = 24, hence the bound
        x, wl = np.polynomial.legendre.leggauss(n)
        assert np.abs(t - x).max() <= 4e-16
        assert np.max(np.abs(w - wl) / wl) <= 1e-11


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", [2, _MC_BLOCK - 1, _MC_BLOCK + 1, 3 * _MC_BLOCK + 5])
def test_monte_carlo_nodes_are_the_normalized_draw(m, n):
    seed = 100 * m + n % 97
    v = np.random.default_rng(seed).standard_normal((n, m))
    assert np.array_equal(MonteCarloRule(m, n, seed).nodes, v / np.linalg.norm(v, axis=1)[:, None])
