"""The numeric sphere rules on numpy alone: the Gauss-Gegenbauer rule behind
``ProductGaussRule`` against exact moments and an independent Legendre
witness, the Monte Carlo nodes against a plain normalization and the memory
they are built in, and an import guard that keeps scipy out of the library."""

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


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("n", [2, _MC_BLOCK - 1, _MC_BLOCK + 1, 3 * _MC_BLOCK + 5, 4 * _MC_BLOCK + 1])
def test_monte_carlo_nodes_are_the_normalized_draw(m, n):
    seed = 100 * m + n % 97
    v = np.random.default_rng(seed).standard_normal((n, m))
    assert np.array_equal(MonteCarloRule(m, n, seed).nodes, v / np.linalg.norm(v, axis=1)[:, None])


def test_monte_carlo_nodes_at_m8_are_the_normalized_draw_within_an_ulp_of_the_norm():
    # np.linalg.norm sums eight squares pairwise, the rule row by row: the two
    # norms may round apart by an ulp, which moves a node of modulus <= 1 by
    # at most 1.5 eps (3.3e-16) once both quotients are rounded
    m, n, seed = 8, 50_001, 8
    v = np.random.default_rng(seed).standard_normal((n, m))
    gap = np.abs(MonteCarloRule(m, n, seed).nodes - v / np.linalg.norm(v, axis=1)[:, None])
    assert gap.max() <= 1.5 * np.finfo(float).eps


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB")
def test_monte_carlo_rule_builds_and_integrates_in_bounded_memory():
    # building the rule holds the (m, n) store and one chunk of the draw,
    # never the whole row-major draw beside it, and a monomial is reduced one
    # block at a time.  A process starts with the peak RSS of the one that
    # launched it, so the measuring process is launched by a bare interpreter,
    # not by this test process, whose peak would hide the growth.
    code = ("import resource\n"
            "from monogenics.sphere import MonteCarloRule\n"
            "def peak():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
            "start = peak()\n"
            "rule = MonteCarloRule(4, 10**6, 0)\n"
            "built = peak()\n"
            "rule.integrate_monomial((2, 2, 0, 0))\n"
            "print(built - start, peak() - built, rule.nodes.nbytes)")
    launch = "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"
    out = subprocess.run([sys.executable, "-c", launch, code], capture_output=True, text=True, check=True)
    build, monomial, nbytes = map(int, out.stdout.split())
    assert build <= 1.5 * nbytes, (build, nbytes)
    assert monomial <= 2 * 2**20, monomial
