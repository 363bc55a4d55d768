"""Verification suites: each runs a battery of identity checks at desk scale
and returns a report whose canonical JSON is byte-stable across runs.

Each case is one call of ``_Suite.case`` with its data (id, identity,
declared operations, points) and one comparison, which looks the library up
through module globals at call time.  ``_Suite.case`` judges every case: an
exact case counts its failed comparisons and passes iff that count is zero; a
numeric case keeps its worst residual and passes iff that sits inside its
declared tolerance.  A case that compared nothing, or whose residual is NaN,
fails.  Numeric tolerances are either fixed by the identity being checked or
derived from a certified truncation bound, never tuned after the fact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable

from .clifford import (CliffordElement, Paravector, axial_element, clifford_conjugate,
                       hermitian_conjugate, nan_max)
from .constants import constants, gamma_odd_closed_form, sphere_area
from .extensions import (appell_Q, appell_sum, gck_bessel_form, gck_extension, intrinsic_split,
                         slice_extension)
from .fueter import (fueter_kernel_range, fueter_on_laurent, fueter_on_power,
                     laplacian_power_route, radial_route_components)
from .kernels import (_max_residual, cauchy_kernel, kelvin_inversion, monogenic_monomial, monomial_constant,
                      verify_monomial_identities)
from .laurent import LaurentPoly
from .poly import CliffordPolynomial, OperatorTag, apply_operator, is_monogenic, paravector_power
from .radon import cauchy_plane_wave_check, dual_radon, monomial_plane_wave_check, plane_wave_gck_check
from .scalars import PiScalar

OP_REGISTRY: dict[str, list[str]] = {
    "clifford_core": ["geometric_product", "clifford_conjugate", "hermitian_conjugate", "constants"],
    "poly_engine": ["apply_operator", "paravector_power", "is_monogenic"],
    "extension_maps": ["slice_extension", "intrinsic_split", "gck_extension",
                       "gck_bessel_form", "appell_Q"],
    "kernels_monomials": ["cauchy_kernel", "kelvin_inversion", "monogenic_monomial",
                          "verify_monomial_identities"],
    "fueter_map": ["fueter_on_power", "laplacian_power_route", "radial_route_components", "fueter_on_laurent"],
    "radon_sphere": ["funk_hecke_constants", "monomial_sphere_integral", "dual_radon",
                     "plane_wave_gck_check", "cauchy_plane_wave_check"],
    "cst": ["heat_semigroup", "classical_cst", "slice_cst", "axial_cst", "fueter_cst",
            "unitarity_gram"],
    "cli": ["run_suite", "export_payload"],
}

_SEED = ("seed", 42, None)
# Every verify suite by name, with each verify parameter it reads as (the
# keyword of the suite function, its default, the largest value `verify all`
# passes or None).  A suite runs as ``suite_<name>``, looked up at call time,
# so a wrapped or substituted suite function is the one called.
SUITES: dict[str, dict[str, tuple[str, int, int | None]]] = {
    "algebra": {"m": ("m_max", 5, None), "count": ("count", 2000, None), "seed": _SEED},
    "gck": {"m": ("m_max", 5, 5), "max_degree": ("degree", 8, None)},
    "fueter": {"m": ("m_max", 6, None), "max_degree": ("degree", 8, None), "seed": _SEED},
    "monomials": {"m": ("m_max", 5, 5)},
    "radon": {"m": ("m_max", 4, 4), "max_degree": ("degree", 6, 6),
              "mc_samples": ("mc_n", 200_000, None), "seed": _SEED},
    "cst": {},
}
SUITE_NAMES = (*SUITES, "all")


@dataclass
class CaseResult:
    case_id: str
    identity: str
    params: dict
    exact: bool
    residual: float
    tol: float
    passed: bool
    ops: list[str] = field(default_factory=list)
    elapsed_ms: float = 0.0
    checked: int = 0

    def to_json(self) -> dict:
        out = {"id": self.case_id, "identity": self.identity, "params": self.params,
               "exact": self.exact, "residual": self.residual, "tol": self.tol,
               "pass": self.passed, "ops": sorted(self.ops)}
        if not self.checked:
            out["checked"] = 0  # compared nothing, so it failed
        return out


@dataclass
class VerificationReport:
    suite: str
    params: dict
    cases: list[CaseResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def covered_ops(self) -> set[str]:
        return {op for c in self.cases if c.checked for op in c.ops}

    def to_json(self, timing: bool = False) -> dict:
        out = {"suite": self.suite, "params": self.params,
               "cases": [c.to_json() for c in self.cases], "pass": self.passed}
        if timing:
            out["timing_ms"] = {c.case_id: round(c.elapsed_ms, 1) for c in self.cases}
        return out

    def table(self) -> str:
        rows = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.cases:
            kind = "exact" if c.exact else f"tol={c.tol:.1e}"
            rows.append(
                f"  [{'ok' if c.passed else 'XX'}] {c.case_id:36s} residual={c.residual:.3e} ({kind})"
                + ("" if c.checked else " compared nothing")
            )
        return "\n".join(rows)


class _Suite:
    def __init__(self, name: str, params: dict):
        self.report = VerificationReport(name, params, [])

    def case(self, case_id: str, identity: str, ops: list[str], points: Iterable[tuple],
             compare: Callable[..., object], *, tol: float | None = None,
             params: dict | None = None) -> None:
        """Run one case and append its result: at each of ``points``, which
        may be lazy, ``compare(*point)`` returns a check value or a tuple of
        them.  Without ``tol`` the case is exact: each value is a bool and the
        residual counts the ``False`` ones.  With ``tol`` each is a residual
        and the case keeps the largest, NaN included.  It passes iff it checked
        something and its residual is at most ``tol`` (zero when exact).  Its
        time is that of this call, lazy points included, and nothing before."""
        start, exact = time.perf_counter(), tol is None
        result = CaseResult(case_id, identity, params or {}, exact, 0.0,
                            0.0 if exact else float(tol), False, ops)
        for point in points:
            values = compare(*point)
            for value in values if isinstance(values, tuple) else (values,):
                if isinstance(value, bool) != exact:
                    raise TypeError(f"case {case_id!r} checks "
                                    f"{'a bool' if exact else 'a residual'}, got {value!r}")
                result.checked += 1
                if exact:
                    result.residual += not value
                else:
                    result.residual = nan_max((result.residual, float(value)))
        result.passed = result.checked > 0 and result.residual <= result.tol
        result.elapsed_ms = (time.perf_counter() - start) * 1e3
        self.report.cases.append(result)


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_element(rng: random.Random, m: int, complex_coeffs: bool = False) -> CliffordElement:
    coeffs = {}
    for _ in range(4):
        mask = rng.randrange(1 << m)
        coeffs[mask] = (PiScalar.of(_rand_fraction(rng)) + PiScalar.imaginary(_rand_fraction(rng))
                        if complex_coeffs else _rand_fraction(rng))
    return CliffordElement(m, coeffs)


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def suite_algebra(m_max: int, count: int, seed: int) -> VerificationReport:
    s = _Suite("algebra", {"m_max": m_max, "count": count, "seed": seed})
    rng = random.Random(seed)
    few = max(200, count // 10)

    def random_dims(n):  # n values of m, each drawn just before its own point
        return (rng.randint(1, m_max) for _ in range(n))

    s.case("assoc_distrib_conj_random",
           "(ab)c = a(bc); a(b+c) = ab+ac; conj(ab) = conj(b)conj(a)",
           ["geometric_product", "clifford_conjugate"],
           (tuple(_rand_element(rng, m) for _ in range(3)) for m in random_dims(count)),
           lambda a, b, c: ((a * b) * c == a * (b * c), a * (b + c) == a * b + a * c,
                            clifford_conjugate(a * b) == clifford_conjugate(b) * clifford_conjugate(a)),
           params={"count": count})

    def vector(m):
        return CliffordElement.vector(m, [Fraction(rng.randint(-5, 5)) for _ in range(m)])

    def norm_anticommutator(x, u, v):
        lhs = x.to_element() * clifford_conjugate(x.to_element())
        inner = sum(a * b for a, b in zip(u.vector_components(), v.vector_components()))
        return (lhs == CliffordElement.scalar(u.m, x.norm_sq()),
                u * v + v * u == CliffordElement.scalar(u.m, -2 * inner))
    s.case("paravector_norm_anticommutator", "x conj(x) = |x|^2; uv+vu = -2<u,v>",
           ["geometric_product", "clifford_conjugate"],
           ((Paravector(_rand_fraction(rng), tuple(_rand_fraction(rng) for _ in range(m))),
             vector(m), vector(m)) for m in random_dims(few)), norm_anticommutator)

    s.case("hermitian_involution", "(a^)^ = a; (ab)^ = b^ a^", ["hermitian_conjugate"],
           ((_rand_element(rng, m, True), _rand_element(rng, m, True)) for m in random_dims(few)),
           lambda a, b: (hermitian_conjugate(hermitian_conjugate(a)) == a,
                         hermitian_conjugate(a * b) == hermitian_conjugate(b) * hermitian_conjugate(a)))

    def float_gap(a, b):
        exact_prod = (a * b).to_numeric()
        return (exact_prod - a.to_numeric() * b.to_numeric()).norm_inf() / max(exact_prod.norm_inf(), 1.0)
    s.case("float_backend_agreement", "exact and float products agree to relative 1e-12",
           ["geometric_product"],
           ((_rand_element(rng, m), _rand_element(rng, m)) for m in random_dims(few)), float_gap, tol=1e-12)

    def closed_forms(m):
        c = constants(m)
        odd = c.gamma == PiScalar.of(gamma_odd_closed_form(m))
        return odd if m != 3 else (odd, c.gamma == PiScalar.of(-2) and c.lam == PiScalar.of(4)
                                   and c.sigma_next == PiScalar.pi_power(4, 2))
    s.case("constants_closed_forms", "gamma odd closed form; gamma_3=-2, lam_3=4, sigma_4=2pi^2",
           ["constants"], [(1,), (3,), (5,)], closed_forms)
    return s.report


def suite_gck(m_max: int, degree: int) -> VerificationReport:
    s = _Suite("gck", {"m_max": m_max, "degree": degree})
    rng = random.Random(7)
    dims = range(2, m_max + 1)

    def gck_facts(m, k):
        g = gck_extension(LaurentPoly.monomial(k), m)
        return (is_monogenic(g.to_polynomial()), g.restrict() == LaurentPoly.monomial(k),
                gck_bessel_form(LaurentPoly.monomial(k), m) == g)
    s.case("gck_monogenic_restrict_bessel",
           "D GCK[x0^k] = 0; GCK restricts to x0^k; Bessel series matches recursion",
           ["gck_extension", "gck_bessel_form", "apply_operator", "is_monogenic"],
           product(dims, range(degree + 1)), gck_facts)

    s.case("slice_powers", "S[x0^k] equals the expanded paravector power",
           ["slice_extension", "paravector_power"], product(dims, range(min(degree, 6) + 1)),
           lambda m, k: slice_extension(LaurentPoly.monomial(k), m).to_polynomial()
           == paravector_power(m, k))

    def split_gaps(m, x0, xv):
        f0 = LaurentPoly({3: Fraction(1), 1: Fraction(-2), 0: Fraction(1)})
        pair = intrinsic_split(f0)
        r1, r2 = pair.cr_residuals()
        r = math.sqrt(sum(c * c for c in xv))
        recon = axial_element(m, pair.alpha.evaluate(x0, r), [c / r for c in xv],
                              pair.beta.evaluate(x0, r))
        return (0.0 if r1.is_zero() and r2.is_zero() and pair.parity_ok() else 1.0,
                (slice_extension(f0, m).evaluate(x0, xv).to_numeric() - recon).norm_inf())
    s.case("intrinsic_split_consistency",
           "alpha/beta satisfy parity and Cauchy-Riemann; S[f0] = alpha + w beta",
           ["intrinsic_split", "slice_extension"],
           ((m, rng.uniform(-1.5, 1.5), [rng.uniform(-0.8, 0.8) for _ in range(m)])
            for m in (2, 3) for _ in range(5)), split_gaps, tol=1e-10)

    def appell_facts(m, k):
        q = appell_Q(m, k)
        facts = (is_monogenic(q), q.evaluate(Fraction(1), [Fraction(0)] * m) == CliffordElement.one(m),
                 appell_sum(m, k) == q)
        if k:
            facts += (apply_operator(OperatorTag.HYPERCOMPLEX, q) == appell_Q(m, k - 1).scale(k),)
        return facts
    s.case("appell_family",
           "Q_k monogenic; hypercomplex derivative lowers degree with factor k; Q_k(1)=1; "
           "explicit coefficient sum matches",
           ["appell_Q", "apply_operator", "is_monogenic"],
           product(range(2, min(m_max, 5) + 1), range(degree + 1)), appell_facts)

    # truncated series at |x| / |x0| = 0.44: Cauchy-Riemann defect decays like (1/2)^N
    def tail_ratio(order):
        series = gck_extension(LaurentPoly.monomial(-1), 3, order)
        return series.truncation_residual(1.0, (0.25, 0.3, 0.2)) / (80.0 * 0.5**order)
    s.case("gck_negative_tail", "truncation defect of GCK[x0^-1] bounded by C (1/2)^N",
           ["gck_extension"], [(16,), (24,)], tail_ratio, tol=1.0)
    return s.report


def suite_fueter(m_max: int, degree: int, seed: int) -> VerificationReport:
    s = _Suite("fueter", {"m_max": m_max, "degree": degree, "seed": seed})
    rng = random.Random(seed)

    s.case("odd_diagram", "Delta^((m-1)/2) S[f0] = gamma GCK[f0^(m-1)] exactly (odd m)",
           ["laplacian_power_route", "gck_extension"],
           ((m, LaurentPoly({n: Fraction(rng.randint(-6, 6)) for n in range(degree + 1)}))
            for m in (3, 5) for _ in range(4)),
           lambda m, f0: laplacian_power_route(m, f0)
           == gck_extension(f0.derivative(m - 1), m).to_polynomial().scale(constants(m).gamma))

    def branch_facts(m, ell):
        res = fueter_on_power(m, ell)
        branch_ok = (res.branch == "kernel") == (ell in fueter_kernel_range(m))
        return (branch_ok, is_monogenic(res.output)) if res.branch == "monomial" else branch_ok
    s.case("kernel_branch", "the map kills x^l exactly iff 0 <= l <= m-2; outputs are monogenic",
           ["fueter_on_power", "is_monogenic"], product(range(1, m_max + 1), range(degree + 1)),
           branch_facts)

    s.case("monomial_branch",
           "map of x^(m-1+k) is gamma (m-1+k)!/k! Q_k, against the explicit sum",
           ["fueter_on_power"], product((2, 3, 4, 5), range(min(degree, 6) + 1)),
           lambda m, k: fueter_on_power(m, m - 1 + k).output == appell_sum(m, k).scale(
               constants(m).gamma * Fraction(math.factorial(m - 1 + k), math.factorial(k))))

    def negative_gap(m, k):
        res = fueter_on_power(m, -k, order=48)
        return _max_residual(res.closed, res.output, 1, _half_axis_points(m))
    s.case("negative_branch", "series route matches closed monomial form on both half-axes",
           ["fueter_on_power", "monogenic_monomial"], product((2, 3, 4), (1, 2, 3)), negative_gap,
           tol=1e-8)

    def components_match(m, k):
        route = radial_route_components(m, intrinsic_split(LaurentPoly.monomial(k))).to_polynomial()
        return route == (fueter_on_power(m, k).output if k >= m - 1 else CliffordPolynomial.zero(m))
    s.case("pointwise_components",
           "(m-1)!! radial-derivative components reproduce the map on powers",
           ["radial_route_components", "intrinsic_split"], product((3, 5), range(1, 5)),
           components_match)

    def laurent_terms(m):
        f0 = LaurentPoly({2: Fraction(3), -1: Fraction(1)})
        combined = fueter_on_laurent(m, f0, order=30)
        neg = fueter_on_power(m, -1, order=30).output
        direct = neg + gck_extension(LaurentPoly.monomial(2).derivative(2), m, 30).scale(
            constants(m).gamma * 3)
        return combined == direct, combined.restrict() == f0.derivative(2).scale(constants(m).gamma)
    s.case("laurent_linearity",
           "the map is termwise on Laurent data; restriction is gamma f0^(m-1)",
           ["fueter_on_laurent"], [(3,)], laurent_terms)
    return s.report


def _half_axis_points(m: int) -> list[tuple[float, tuple]]:
    """x0 = +1 and -1 with |x| = 0.4, where the negative-power series converge."""
    xv = (0.4 / math.sqrt(m),) * m
    return [(1.0, xv), (-1.0, xv)]


def _monomial_truncation_order(m: int, k: int, ratio: float, target: float = 1e-9) -> int:
    """Smallest truncation order whose certified series tail, scaled by the
    proportionality constant of the identity, sits under target.  Raises
    ValueError when no order below 200 does."""
    q = k + m - 1
    const = abs(float(monomial_constant(m, k)))
    ts = [1.0]      # the term sequence t_0, t_1, ..., extended as the orders need it
    for order in range(12, 200, 6):
        for j in range(len(ts), order + 60):
            ts.append(ts[j - 1] * (q + j - 1) / (j if j % 2 == 0 else m + j - 1) * ratio)
        # explicit continuation t_(order+1) .. t_(order+59) plus a geometric cap
        tail = 0.0
        for t in ts[order + 1:]:
            tail += t
        nxt = min((q + order + 59) / (order + 60) * ratio, 0.95)
        tail += t * nxt / (1 - nxt)
        if const * tail < target:
            return order
    raise ValueError(f"no truncation order below 200 certifies {target:g} "
                     f"at m={m}, k={k}, ratio={ratio}")


def suite_monomials(m_max: int) -> VerificationReport:
    k_max, ratio = 4, 0.4
    s = _Suite("monomials", {"m_max": m_max, "k_max": k_max, "ratio": ratio})
    # both order cases read this one list, built once per (m, k)
    reports = [rep for m in range(2, m_max + 1) for k in range(1, k_max + 1)
               for rep in verify_monomial_identities(
                   m, k, order=_monomial_truncation_order(m, k, ratio), ratio=ratio)]
    s.case("pos_order_exact", "polynomial monomial representations hold exactly",
           ["verify_monomial_identities", "monogenic_monomial"],
           [(rep,) for rep in reports if rep.exact], lambda rep: rep.residual == 0.0)
    s.case("neg_order_numeric",
           "negative-order representations hold on both half-axes at certified truncation",
           ["verify_monomial_identities", "monogenic_monomial", "cauchy_kernel"],
           [(rep,) for rep in reports if not rep.exact], lambda rep: rep.residual, tol=1e-8,
           params={"ratio": ratio, "order": "certified per (m,k)"})

    # kernel facts: restriction, planar case, numeric monogenicity
    def restriction_gap(m, x0):
        val = cauchy_kernel(m).evaluate(x0, [0.0] * m).to_numeric()
        sgn = 1.0 if x0 > 0 else (-1.0) ** (m + 1)
        return abs(complex(val.scalar_part()) - sgn * x0 ** (-m) / float(sphere_area(m + 1)))
    s.case("kernel_restriction", "E(x0, 0) = sgn(x0)^(m+1) x0^(-m) / sigma_(m+1)",
           ["cauchy_kernel"], product((2, 3, 4), (0.8, -0.8)), restriction_gap, tol=1e-12)

    s.case("kernel_fd_monogenic", "central finite differences annihilate E and P^(-2)",
           ["cauchy_kernel", "monogenic_monomial"], [(2,), (3,)],
           lambda m: (_fd_cr_residual(cauchy_kernel(m), m, (1.0, [0.3, -0.2, 0.1][:m])),
                      _fd_cr_residual(monogenic_monomial(m, -2), m, (0.9, [0.2, 0.25, -0.1][:m]))),
           tol=1e-6)

    def kelvin_gaps(m):
        q23 = gck_extension(LaurentPoly.monomial(2), m)
        wrapped = kelvin_inversion(kelvin_inversion(q23, m), m)
        gaps = [(q23.evaluate(x0, list(xv)).to_numeric() - wrapped.evaluate(x0, xv).to_numeric()).norm_inf()
                for x0, xv in [(1.0, (0.2, -0.3, 0.4)), (-0.7, (0.1, 0.2, 0.2))]]
        one = kelvin_inversion(gck_extension(LaurentPoly.one(), m), m)
        x0, xv = 1.1, (0.3, 0.1, -0.2)
        lhs = one.evaluate(x0, xv).to_numeric()
        rhs = cauchy_kernel(m).evaluate(x0, list(xv)).to_numeric().scale(float(sphere_area(m + 1)))
        return (*gaps, (lhs - rhs).norm_inf())
    s.case("kelvin_involution", "I[I[f]] = f pointwise; I[1] = sigma_(m+1) E",
           ["kelvin_inversion"], [(3,)], kelvin_gaps, tol=1e-10)
    return s.report


def _fd_cr_residual(form, m: int, point, h: float = 1e-5) -> float:
    """Central finite-difference Cauchy-Riemann residual of an evaluable."""
    x0, xv = point

    def val(y0, yv):
        return form.evaluate(y0, list(yv)).to_numeric()

    acc = val(x0 + h, xv) - val(x0 - h, xv)
    for j in range(m):
        up, dn = list(xv), list(xv)
        up[j] += h
        dn[j] -= h
        diff = val(x0, up) - val(x0, dn)
        acc = acc + CliffordElement.generator(m, j + 1).to_numeric() * diff
    return acc.scale(1.0 / (2 * h)).norm_inf()


def _se_ratio(gap: float, se: float) -> float:
    """Monte Carlo gap in units of five standard errors; an estimate without
    spread (a constant integrand) owes only roundoff, so it is held to 1e-10."""
    return gap / 1e-10 if se == 0.0 else gap / (5 * se)


def suite_radon(m_max: int, degree: int, mc_n: int, seed: int) -> VerificationReport:
    from .sphere import ExactMonomialRule, MonteCarloRule, ProductGaussRule, funk_hecke_constants

    s = _Suite("radon", {"m_max": m_max, "degree": degree, "mc_n": mc_n, "seed": seed})
    dims, rng = range(2, m_max + 1), random.Random(seed)

    def bridge_facts(m, k):
        lhs = dual_radon(slice_extension(LaurentPoly.monomial(k), m).to_polynomial())
        return lhs == appell_Q(m, k), is_monogenic(lhs)
    s.case("radon_bridge", "R*[S[x0^k]] = GCK[x0^k] exactly (pi cancels) and is monogenic",
           ["dual_radon"], product(dims, range(degree + 1)), bridge_facts)

    def plane_wave_exact(m):
        rep = plane_wave_gck_check(LaurentPoly({3: Fraction(2), 1: Fraction(-1)}), m, ExactMonomialRule(m))
        return rep.exact and rep.residual == 0.0
    s.case("plane_wave_exact", "plane-wave average of the slice extension is the axial extension",
           ["plane_wave_gck_check"], [(m,) for m in dims], plane_wave_exact)

    def mc_rules(stride: int):  # one Monte Carlo rule per m, seeded seed + stride * m, built lazily
        for m in dims:
            yield m, MonteCarloRule(m, mc_n, seed + stride * m)

    def moment_gap(m, mc, j):
        c0, c1 = funk_hecke_constants(m, j)
        power, want = (j, c0) if j % 2 == 0 else (j + 1, c1)
        est, se = mc.integrate_monomial((power, *(0,) * (m - 1)))
        return _se_ratio(abs(est - float(want)), se)
    s.case("funk_hecke_vs_mc", "exact bracket moments match Monte Carlo within 5 standard errors",
           ["funk_hecke_constants"], ((m, mc, j) for m, mc in mc_rules(1) for j in range(7)),
           moment_gap, tol=1.0, params={"samples": mc_n})

    def random_exponents(m):
        exps = [0] * m
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(m)] += 1
        return tuple(exps)

    def rule_gap(m, mc, exps):
        want = ExactMonomialRule(m).integrate_monomial(exps).to_complex().real
        est, se = mc.integrate_monomial(exps)
        return _se_ratio(abs(est - float(want)), se)
    s.case("exact_rule_vs_mc", "monomial rule agrees with Monte Carlo on random sphere polynomials",
           ["monomial_sphere_integral"],
           ((m, mc, random_exponents(m)) for m, mc in mc_rules(10) for _ in range(4)), rule_gap, tol=1.0)

    def plane_wave_points():
        for m, level in ((1, 8), (2, 28), (3, 24)):
            rule = ProductGaussRule(m, level)
            for x0, r in ((1.0, 0.2), (-1.0, 0.15)):
                yield m, (x0, *(r / math.sqrt(m),) * m), rule
    s.case("cauchy_plane_wave", "plane-wave quadrature reproduces the kernel and P^(-2), "
           "including negative x0", ["cauchy_plane_wave_check"], plane_wave_points(),
           lambda m, pt, rule: (cauchy_plane_wave_check(m, pt, rule),
                                monomial_plane_wave_check(m, 2, pt, rule)), tol=1e-6)
    return s.report


def suite_cst() -> VerificationReport:
    import numpy as np

    from .cst import (CHECK_POINTS, _legendre_grid, axial_cst, axial_cst_radon_route,
                      classical_cst, fueter_cst_routes, heat_semigroup, slice_cst,
                      slice_cst_fourier, unitarity_gram)
    from .gausspoly import hermite_function
    from .sphere import ProductGaussRule

    m_list, n_hermite, tol = (2, 3), 4, 1e-7
    s = _Suite("cst", {"m": list(m_list), "hermite": n_hermite, "tol": tol})
    fams = [hermite_function(n) for n in range(n_hermite)]
    y, w = _legendre_grid(260, -14.0, 14.0)

    def convolution_gap(f, x0):
        conv = np.sum(w * np.exp(-((x0 - y) ** 2) / 2)
                      * f.evaluate(y.astype(complex)).real) / math.sqrt(2 * math.pi)
        return abs(conv - complex(heat_semigroup(f).evaluate(x0)).real)
    s.case("heat_is_convolution", "closed-form heat flow equals the Gaussian convolution",
           ["heat_semigroup"], product(fams, (0.0, 0.8, -1.2)), convolution_gap, tol=1e-10)

    def heat_commutes(f, k):
        lhs = heat_semigroup(f.derivatives(k)[-1])
        rhs = heat_semigroup(f).derivatives(k)[-1]
        return lhs is not rhs and lhs == rhs   # two chains, never one object read twice
    s.case("heat_derivative_commute", "heat flow and d_x0 commute exactly in the algebra",
           ["heat_semigroup"], product(fams, range(1, 6)), heat_commutes)

    f = fams[min(2, len(fams) - 1)]
    s.case("classical_restriction", "holomorphic transform restricted to the line is the heat flow",
           ["classical_cst"], [(0.0,), (0.9,)],
           lambda x0: abs(complex(heat_semigroup(f).evaluate(x0)) - classical_cst(f, complex(x0))),
           tol=1e-13)

    def slice_gaps(f, x0, r):
        sv, sv2 = slice_cst(f, x0, r), slice_cst_fourier(f, x0, r)
        return abs(sv.alpha - sv2.alpha), abs(sv.beta - sv2.beta), abs(slice_cst(f, x0, 0.0).beta)
    s.case("slice_two_routes", "entire-extension split equals the Fourier integral form; "
           "odd part vanishes on the axis", ["slice_cst"],
           [(f, x0, r) for f in fams[:3] for x0, r in CHECK_POINTS[:2]], slice_gaps, tol=1e-8)

    # the axial and slice-to-axial cases share their points and one product rule per m
    rules = {m: ProductGaussRule(m, 24) for m in m_list}
    grid = [(f, m, x0, [r / math.sqrt(m)] * m) for m in m_list for f in fams for x0, r in CHECK_POINTS]
    s.case("axial_two_routes", "axial transform equals the dual Radon of the slice transform",
           ["axial_cst"], grid,
           lambda f, m, x0, xv: (axial_cst(f, m, x0, xv)
                                 - axial_cst_radon_route(f, m, x0, xv, rules[m])).norm_inf(),
           tol=tol)

    def route_gaps(f, m, x0, xv):
        a, *others = fueter_cst_routes(f, m, x0, xv, rules[m]).values()
        return tuple((a - b).norm_inf() for b in others)
    s.case("fueter_three_routes", "slice-to-axial transform agrees along all three compositions",
           ["fueter_cst"], grid, route_gaps, tol=tol)

    def gram_entries():
        for m in m_list:
            for i, row in enumerate(unitarity_gram(fams, fams, m)):
                for j, res in enumerate(row):
                    yield res, 1.0 if i == j else 0.0
    s.case("unitarity_gram", "line inner products equal the weighted slice inner products "
           "on the Hermite Gram matrix, improving under refinement",
           ["unitarity_gram"], gram_entries(),
           lambda res, want: (abs(res.rhs - want), abs(res.lhs - want),
                              0.0 if res.converging else 1.0), tol=1e-5)
    return s.report


def export_payload(kind: str, m: int, k: int = 0, power: int = 0) -> dict:
    """Canonical JSON payload for one exportable object."""
    from . import serialize as ser

    if kind == "Qpoly":
        return {"kind": "Qpoly", "m": m, "k": k, "object": ser.poly_json(appell_Q(m, k))}
    if kind == "monomialP":
        mono = monogenic_monomial(m, power)
        body = ser.poly_json(mono.to_polynomial()) if power >= 0 else ser.closed_form_json(mono)
        return {"kind": "monomialP", "m": m, "order": power, "object": body}
    if kind == "cauchyE":
        return {"kind": "cauchyE", "m": m, "object": ser.closed_form_json(cauchy_kernel(m))}
    if kind == "fueter_power":
        res = fueter_on_power(m, power)
        out: dict = {"kind": "fueter_power", "m": m, "power": power, "branch_tag": res.branch}
        if res.branch in ("kernel", "monomial"):
            out["object"] = ser.poly_json(res.output)
            out["cauchy_riemann_exact"] = is_monogenic(res.output) or res.output.is_zero()
        else:
            out["object"] = ser.series_json(res.output)
            out["closed_form"] = ser.closed_form_json(res.closed)
            out["closed_form_residual"] = _max_residual(res.closed, res.output, 1,
                                                        _half_axis_points(m))
        return out
    raise ValueError(f"unknown export kind {kind!r}")


def _run_table_suite(name: str, params: dict, capped: bool) -> VerificationReport:
    kwargs = {}
    for key, (keyword, default, cap) in SUITES[name].items():
        value = default if params.get(key) is None else int(params[key])
        kwargs[keyword] = min(value, cap) if capped and cap is not None else value
    return globals()[f"suite_{name}"](**kwargs)


def run_suite(name: str, params: dict | None = None) -> VerificationReport:
    """Entry point used by the command line: dispatch one suite (or all).

    A parameter that is omitted or None takes the suite's default from
    ``SUITES``; any other value, 0 included, is used as given, except that
    ``all`` holds each suite to its cap."""
    params = params or {}
    if name in SUITES:
        return _run_table_suite(name, params, capped=False)
    if name != "all":
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    reports = [_run_table_suite(suite, params, capped=True) for suite in SUITES]
    seed = params.get("seed")
    s = _Suite("all", {"m": params.get("m"), "max_degree": params.get("max_degree"),
                       "seed": _SEED[1] if seed is None else int(seed)})
    s.report.cases = [dataclasses.replace(case, case_id=f"{rep.suite}.{case.case_id}")
                      for rep in reports for case in rep.cases]
    # exercise the export path too, round-tripping one canonical object
    s.case("export_roundtrip", "canonical export payload survives a JSON round trip",
           ["export_payload"], ((export_payload(kind, m, k),) for kind, m, k in [("Qpoly", 3, 2)]),
           lambda payload: json.loads(json.dumps(payload)) == payload,
           params={"kind": "Qpoly", "m": 3, "k": 2})
    registry = [op for ops in OP_REGISTRY.values() for op in ops]
    covered = s.report.covered_ops() | {"run_suite"}
    s.case("coverage", "each operation of every module is exercised at least once",
           ["run_suite"], [(op,) for op in registry], lambda op: op in covered,
           params={"missing": sorted(op for op in registry if op not in covered)})
    return s.report
