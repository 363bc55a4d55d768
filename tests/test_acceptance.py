"""Acceptance battery: the eleven checks this package commits to (see the
README), one test per criterion at its pinned tolerance, with a pass/fail
line per criterion in the terminal summary.

Criterion 5's numeric half is pinned to truncation order 20 with tolerance
1e-8, a combination that is provably unattainable: the series tail at
|x|/|x0| = 0.4 is about 4.5e-8 even at the easiest instance (computed in
exact arithmetic).  It runs exactly as pinned and is marked xfail(strict);
the companion diagnostic shows the same identities passing 1e-8 once the
truncation order carries a certified tail bound.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import record

from monogenics.clifford import CliffordElement, Paravector
from monogenics.constants import constants
from monogenics.cst import (
    axial_cst,
    axial_cst_radon_route,
    fueter_cst_routes,
    unitarity_check,
)
from monogenics.extensions import (
    appell_Q,
    appell_sum,
    gck_bessel_form,
    gck_extension,
)
from monogenics.fueter import laplacian_power_route, fueter_on_power
from monogenics.gausspoly import hermite_function
from monogenics.kernels import verify_monomial_identities
from monogenics.laurent import LaurentPoly
from monogenics.poly import OperatorTag, apply_operator, is_monogenic
from monogenics.radon import cauchy_plane_wave_check, dual_radon
from monogenics.sphere import MonteCarloRule, ProductGaussRule, funk_hecke_constants
from monogenics.suites import run_suite
from monogenics import serialize as ser
from monogenics.extensions import slice_extension


def test_criterion_1_algebra_soundness():
    rng = random.Random(424242)
    t0 = time.perf_counter()
    checks = 0
    rounds = 10_000 // 3 + 1
    for _ in range(rounds):
        m = rng.randint(1, 5)
        elts = []
        for _ in range(3):
            coeffs = {rng.randrange(1 << m): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(4)}
            elts.append(CliffordElement(m, coeffs))
        a, b, c = elts
        assert (a * b) * c == a * (b * c)
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()
        assert a * (b + c) == a * b + a * c
        checks += 3
    elapsed = time.perf_counter() - t0
    assert checks >= 10_000
    assert elapsed < 10.0
    record(f"criterion  1 PASS  algebra soundness: {checks} exact checks in {elapsed:.2f}s")


def test_criterion_2_gck_correctness():
    t0 = time.perf_counter()
    for m in range(2, 6):
        for k in range(0, 9):
            f0 = LaurentPoly.monomial(k)
            series = gck_extension(f0, m)
            assert apply_operator(OperatorTag.D, series.to_polynomial()).is_zero()
            assert series.restrict() == f0
            assert gck_bessel_form(f0, m) == series
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    record(f"criterion  2 PASS  axial extension exact on powers, Bessel form agrees "
           f"({elapsed:.2f}s)")


def test_criterion_3_appell_suite():
    for m in range(2, 6):
        for k in range(0, 9):
            q = appell_Q(m, k)
            assert is_monogenic(q)
            if k:
                assert apply_operator(OperatorTag.HYPERCOMPLEX, q) == \
                    appell_Q(m, k - 1).scale(Fraction(k))
            assert q.evaluate(Fraction(1), [Fraction(0)] * m) == CliffordElement.one(m)
    record("criterion  3 PASS  Appell family: monogenic, derivative property, value one at 1")


def test_criterion_4_fueter_diagram():
    rng = random.Random(4)
    for m in (3, 5):
        for _ in range(3):
            f0 = LaurentPoly({n: Fraction(rng.randint(-7, 7)) for n in range(9)})
            lhs = laplacian_power_route(m, f0)
            rhs = gck_extension(f0.derivative(m - 1), m).to_polynomial().scale(
                constants(m).gamma)
            assert lhs == rhs  # residual exactly zero
    for m in (2, 4):
        for k in range(0, 7):
            got = fueter_on_power(m, m - 1 + k).output
            want = appell_sum(m, k).scale(
                constants(m).gamma * Fraction(math.factorial(m - 1 + k), math.factorial(k)))
            assert got == want
    record("criterion  4 PASS  diagram: odd-m pointwise route exact; even-m monomial "
           "actions exact")


def _monomial_numeric_worst(order: int, ratio: float = 0.4) -> float:
    worst = 0.0
    for m, k in [(2, 1), (3, 1), (3, 2)]:
        for rep in verify_monomial_identities(m, k, order=order, ratio=ratio):
            if rep.exact:
                assert rep.residual == 0.0
            else:
                worst = max(worst, rep.residual)
    return worst


def test_criterion_5_exact_representations():
    for m, k in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]:
        exact = [rep for rep in verify_monomial_identities(m, k, order=24) if rep.exact]
        # both polynomial identities are exact comparisons, and neither failed
        assert [rep.identity for rep in exact] == ["pos_order_restriction", "pos_order_derivative"]
        assert all(rep.residual == 0.0 for rep in exact)
    record("criterion  5 PASS  polynomial monomial representations exact")


@pytest.mark.xfail(
    strict=True,
    reason="at truncation order 20 and |x|/|x0| = 0.4 the series tail is provably "
    "about 4.5e-8 at the easiest instance (exact-arithmetic computation), so the "
    "pinned 1e-8 cannot be met; see the certified-order diagnostic below",
)
def test_criterion_5_numeric_as_pinned():
    worst = _monomial_numeric_worst(order=20)
    record(f"criterion  5 FAIL  negative-order representations at pinned order 20: "
           f"residual {worst:.2e} > 1e-8 (known unattainable; identity itself verified)")
    assert worst < 1e-8


def test_criterion_5_numeric_certified_order_diagnostic():
    # diagnostic companion, not the pinned criterion: the same identities meet
    # 1e-8 once the truncation order carries a certified tail bound
    from monogenics.suites import _monomial_truncation_order

    worst = 0.0
    for m, k in [(2, 1), (3, 1), (3, 2)]:
        order = _monomial_truncation_order(m, k, 0.4)
        for rep in verify_monomial_identities(m, k, order=order):
            if not rep.exact:
                worst = max(worst, rep.residual)
    assert worst < 1e-8
    record(f"criterion  5 NOTE  same identities at certified order: residual {worst:.2e} < 1e-8")


def test_criterion_6_negative_power_cross_check():
    form = laplacian_power_route(3, LaurentPoly.monomial(-1))
    rng = random.Random(6)
    worst = 0.0
    for _ in range(20):
        x0 = rng.choice([-1, 1]) * rng.uniform(0.5, 1.5)
        xv = [rng.uniform(-0.4, 0.4) for _ in range(3)]
        n4 = (x0 * x0 + sum(c * c for c in xv)) ** 2
        want = Paravector(x0, tuple(xv)).conj().to_element().scale(-4.0 / n4)
        worst = max(worst, (form.evaluate(x0, xv).to_numeric() - want).norm_inf())
    assert worst < 1e-8
    record(f"criterion  6 PASS  pointwise route on 1/x matches -4 conj(x)/|x|^4 "
           f"(worst {worst:.2e})")


def test_criterion_7_radon_bridge():
    for m in range(2, 5):
        for k in range(0, 7):
            got = dual_radon(slice_extension(LaurentPoly.monomial(k), m).to_polynomial())
            assert got == appell_Q(m, k)
    worst = 0.0
    for m, level, pt in [
        (2, 28, (1.0, 0.15, 0.1)),
        (3, 22, (1.0, 0.2, 0.1, 0.0)),
        (3, 22, (-1.0, 0.2, 0.1, 0.0)),
        (2, 28, (-1.0, 0.1, 0.1)),
    ]:
        worst = max(worst, cauchy_plane_wave_check(m, pt, ProductGaussRule(m, level)))
    assert worst < 1e-6
    record(f"criterion  7 PASS  sphere-average bridge exact on powers; kernel plane waves "
           f"{worst:.2e} < 1e-6 incl. negative axis")


def test_criterion_8_funk_hecke_monte_carlo():
    worst_ratio = 0.0
    for m in range(2, 5):
        mc = MonteCarloRule(m, 1_000_000, seed=800 + m)
        for j in range(0, 7):
            c0, c1 = funk_hecke_constants(m, j)
            if j % 2 == 0:
                est, se = mc.integrate_monomial((j, *(0,) * (m - 1)))
                want = float(c0)
            else:
                est, se = mc.integrate_monomial((j + 1, *(0,) * (m - 1)))
                want = float(c1)
            if se == 0.0:
                assert abs(est - want) < 1e-10
            else:
                worst_ratio = max(worst_ratio, abs(est - want) / (5 * se))
    assert worst_ratio <= 1.0
    record(f"criterion  8 PASS  bracket moments vs 1e6-sample Monte Carlo: worst "
           f"{worst_ratio:.2f} of the 5-sigma budget")


def test_criterion_9_cst_diagram():
    t0 = time.perf_counter()
    fams = [hermite_function(n) for n in range(4)]
    points = [(0.7, 0.5), (0.3, 0.8), (-0.6, 0.4)]
    worst = 0.0
    for m in (2, 3):
        rule = ProductGaussRule(m, 24)
        for f in fams:
            for x0, r in points:
                xv = [r / math.sqrt(m)] * m
                ua = axial_cst(f, m, x0, xv)
                worst = max(worst, (ua - axial_cst_radon_route(f, m, x0, xv, rule)).norm_inf())
                routes = fueter_cst_routes(f, m, x0, xv, rule)
                a = routes["heat_then_derivative"]
                worst = max(worst, (a - routes["derivative_then_heat"]).norm_inf())
                worst = max(worst, (a - routes["radon_of_slice"]).norm_inf())
    elapsed = time.perf_counter() - t0
    assert worst < 1e-7
    assert elapsed < 60.0
    record(f"criterion  9 PASS  transform diagram: all route agreements {worst:.2e} < 1e-7 "
           f"({elapsed:.1f}s)")


def test_criterion_10_unitarity():
    fams = [hermite_function(n) for n in range(4)]
    worst = 0.0
    for m in (2, 3):
        for i in range(4):
            for j in range(4):
                res = unitarity_check(fams[i], fams[j], m)
                want = 1.0 if i == j else 0.0
                worst = max(worst, abs(res.rhs - want), abs(res.lhs - want))
                assert res.residual <= res.residual_coarse + 1e-12
    assert worst < 1e-5
    record(f"criterion 10 PASS  inner-product identity on the Hermite Gram matrix: "
           f"worst {worst:.2e} < 1e-5, refining")


def test_criterion_11_end_to_end_verify_all():
    t0 = time.perf_counter()
    params = {"m": 3, "max_degree": 6, "seed": 42, "count": 2000, "mc_samples": 200000}
    rep1 = run_suite("all", dict(params))
    rep2 = run_suite("all", dict(params))
    elapsed = time.perf_counter() - t0
    assert rep1.passed
    assert ser.dumps(rep1.to_json()) == ser.dumps(rep2.to_json())
    assert elapsed < 300.0
    record(f"criterion 11 PASS  full verification deterministic and green in {elapsed:.1f}s "
           f"(two runs)")
