"""Seeded inputs, identity items and correctness gates of the workloads.

``build(workload, seed)`` makes every input from the seed alone and returns
the items of one batch.  An item runs one identity instance through the
library and returns its checks as ``(name, passed)`` pairs; the benchmark
times each item and counts every check, so no case is ever dropped.

The library is reached only through attributes of the ``monogenics`` package
looked up at call time, so a tracer installed after ``build`` still sees
every call.  An item may also keep the bytes of a report it wrote
(``Item.output``), which the benchmark requires to repeat exactly.
"""

from __future__ import annotations

import json
import math
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("exact_bridge", "numeric_routes")

# The library's own declared tolerances (suites.suite_cst, suite_radon).
CST_TOL = 1e-7
PLANE_WAVE_TOL = 1e-6
MC_STANDARD_ERRORS = 5.0
UNITARITY_TOL = 1e-5

# exact_bridge sizes: (m, largest degree) for the bridge; (m, largest k) for Appell
BRIDGE_SIZES = ((4, 8), (5, 6), (6, 5))
APPELL_SIZES = ((5, 8), (6, 7))
# the command line, the suites and the canonical report: one small exact suite
CLI_SUITE = "monomials"

# numeric_routes sizes
GAUSS_LEVEL = 24
HERMITE = 4                             # Hermite functions 0..3
# (m, points, Hermite functions): every rung with all four functions, or at
# m=4, where one route check takes about a second, the middle rung with two
CST_POINTS = ((2, 3, HERMITE), (3, 3, HERMITE), (4, 1, 2))
UNITARITY_M = (2, 3)
PLANE_WAVE_M = 3
PLANE_WAVE_DEGREES = range(1, 7)
MC_M = (3, 4)
MC_SAMPLES = 10**6
MC_DEGREE = 4

# Points lie in the box |x0| in [0.3, 1], r in [0.3, 0.8] where the certified
# tolerances hold.  The truncation order of the axial route, and with it the
# work, grows with r and |x0|, so (|x0|, r) follow a fixed ladder across the
# box, corners included; the seed draws the sign of x0 and the direction of x.
LADDER = ((0.3, 0.8), (0.65, 0.55), (1.0, 0.3))
# The Cauchy plane wave at level 24 meets its 1e-6 only for |x0|/r >= ~0.5:
# at the corner (0.3, 0.8) some directions give 2.6e-6.  Its points keep to
# that part of the box.
CAUCHY_LADDER = ((0.4, 0.8), (0.65, 0.55), (1.0, 0.3))

Check = tuple[str, bool]


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], list[Check]]
    output: Callable[[], bytes] | None = None  # bytes written by the last run


def build(workload: str, seed: int) -> list[Item]:
    """The items of one batch of ``workload``, with inputs made from ``seed``."""
    if workload == "exact_bridge":
        return _exact_bridge(seed)
    if workload == "numeric_routes":
        return _numeric_routes(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# -- exact_bridge -----------------------------------------------------------


def _exact_bridge(seed: int) -> list[Item]:
    import monogenics as mg

    rng = random.Random(seed)
    items = []
    for m, top in BRIDGE_SIZES:
        for d in range(top + 1):
            # leading and constant term both seeded non-zero integers, so every
            # seed gives the same work: the degree-d image plus the constant path
            terms = {d: _nonzero_int(rng)}
            if d:
                terms[0] = _nonzero_int(rng)
            items.append(Item(f"bridge.m{m}.d{d}", _bridge(mg, m, mg.LaurentPoly(terms))))
    for m, top in APPELL_SIZES:
        for k in range(top + 1):
            items.append(Item(f"appell.m{m}.k{k}", _appell(mg, m, k)))
    items.append(_cli_verify(CLI_SUITE, seed))
    return items


def _cli_verify(suite: str, seed: int) -> Item:
    """``monogenics verify <suite>`` through the command line's entry point."""
    last: list[bytes] = [b""]

    def run():
        from monogenics import cli

        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / f"report_{suite}.json"
            code = cli.main(["verify", suite, "--seed", str(seed), "--out", str(out)])
            last[0] = out.read_bytes() if out.exists() else b""
        checks = [("exit_code", code == 0), ("report_written", bool(last[0]))]
        if last[0]:
            report = json.loads(last[0])
            checks += [(f"case.{c['id']}", bool(c["pass"])) for c in report["cases"]]
        return checks
    return Item(f"cli.verify.{suite}", run, lambda: last[0])


def _nonzero_int(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))


def _bridge(mg, m: int, f0) -> Callable[[], list[Check]]:
    def run():
        lhs = mg.dual_radon(mg.slice_extension(f0, m).to_polynomial())
        rhs = mg.gck_extension(f0, m).to_polynomial()
        return [("equal", lhs == rhs), ("exact", is_exact_poly(mg, lhs) and is_exact_poly(mg, rhs))]
    return run


def _appell(mg, m: int, k: int) -> Callable[[], list[Check]]:
    def run():
        s = mg.appell_sum(m, k)
        q = mg.appell_Q(m, k)
        return [("equal", s == q), ("monogenic", mg.is_monogenic(s)),
                ("exact", is_exact_poly(mg, s) and is_exact_poly(mg, q))]
    return run


def is_exact_poly(mg, p) -> bool:
    """Every coefficient is a Fraction or a PiScalar with Fraction parts."""
    for element in p.terms.values():
        for c in element.coeffs.values():
            if isinstance(c, mg.PiScalar):
                if not all(isinstance(x, Fraction) for _, re, im in c.terms() for x in (re, im)):
                    return False
            elif not isinstance(c, Fraction):
                return False
    return True


# -- numeric_routes ---------------------------------------------------------


def _numeric_routes(seed: int) -> list[Item]:
    import monogenics as mg

    rng = random.Random(seed)
    fams = [mg.hermite_function(n) for n in range(HERMITE)]
    gauss = {m: mg.ProductGaussRule(m, GAUSS_LEVEL) for m, _, _ in CST_POINTS}
    items = []
    for m, count, hermite in CST_POINTS:
        for p in range(count):
            x0, xv = _point(rng, m, LADDER[p] if count > 1 else LADDER[1])
            for n, f in enumerate(fams[:hermite]):
                items.append(Item(f"cst.m{m}.p{p}.h{n}", _cst_routes(mg, f, m, x0, xv, gauss[m])))
    for m in UNITARITY_M:
        items.append(Item(f"unitarity.m{m}", _unitarity(mg, fams, m)))
    rule = gauss[PLANE_WAVE_M]
    for d in PLANE_WAVE_DEGREES:
        f0 = _dense_poly(mg, rng, d)
        x0, xv = _point(rng, PLANE_WAVE_M, LADDER[d % len(LADDER)])
        items.append(Item(f"plane_wave.gauss.m{PLANE_WAVE_M}.d{d}",
                          _plane_wave(mg, f0, PLANE_WAVE_M, rule, (x0, tuple(xv)))))
    for p, rung in enumerate(CAUCHY_LADDER):
        x0, xv = _point(rng, PLANE_WAVE_M, rung)
        items.append(Item(f"cauchy.m{PLANE_WAVE_M}.p{p}",
                          _cauchy(mg, PLANE_WAVE_M, (x0, *xv), rule)))
    for m in MC_M:
        mc = mg.MonteCarloRule(m, MC_SAMPLES, rng.randrange(2**31))
        f0 = _dense_poly(mg, rng, MC_DEGREE)
        x0, xv = _point(rng, m, LADDER[1])
        items.append(Item(f"plane_wave.mc.m{m}", _plane_wave(mg, f0, m, mc, (x0, tuple(xv)))))
    return items


def _point(rng: random.Random, m: int, rung: tuple[float, float]) -> tuple[float, list[float]]:
    """A point at (|x0|, r) = rung with seeded sign of x0 and direction of x."""
    x0_abs, r = rung
    v = [rng.gauss(0.0, 1.0) for _ in range(m)]
    norm = math.sqrt(sum(c * c for c in v))
    return rng.choice((-1.0, 1.0)) * x0_abs, [r * c / norm for c in v]


def _dense_poly(mg, rng: random.Random, degree: int):
    return mg.LaurentPoly({k: _nonzero_int(rng) for k in range(degree + 1)})


def _cst_routes(mg, f, m, x0, xv, rule) -> Callable[[], list[Check]]:
    def run():
        axial = mg.axial_cst(f, m, x0, xv)
        radon = mg.axial_cst_radon_route(f, m, x0, xv, rule)
        routes = mg.fueter_cst_routes(f, m, x0, xv, rule)
        first = routes["heat_then_derivative"]
        return [
            ("axial_vs_radon", (axial - radon).norm_inf() < CST_TOL),
            ("heat_vs_derivative", (first - routes["derivative_then_heat"]).norm_inf() < CST_TOL),
            ("heat_vs_radon", (first - routes["radon_of_slice"]).norm_inf() < CST_TOL),
        ]
    return run


def _unitarity(mg, fams, m) -> Callable[[], list[Check]]:
    """The whole Gram matrix of the Hermite family is one item."""
    def run():
        checks = []
        for i, f in enumerate(fams):
            for j, g in enumerate(fams):
                res = mg.unitarity_check(f, g, m)
                want = 1.0 if i == j else 0.0
                checks += [(f"residual.{i}{j}", res.residual <= UNITARITY_TOL),
                           (f"converging.{i}{j}", res.converging),
                           (f"gram.{i}{j}", abs(res.rhs - want) <= UNITARITY_TOL)]
        return checks
    return run


def _plane_wave(mg, f0, m, rule, point) -> Callable[[], list[Check]]:
    def run():
        rep = mg.plane_wave_gck_check(f0, m, rule, point)
        if rep.stderr is None:
            return [("residual", rep.residual <= PLANE_WAVE_TOL)]
        return [("standard_errors", 0.0 < rep.stderr
                 and rep.residual <= MC_STANDARD_ERRORS * rep.stderr)]
    return run


def _cauchy(mg, m, point, rule) -> Callable[[], list[Check]]:
    def run():
        return [("residual", mg.cauchy_plane_wave_check(m, point, rule) <= PLANE_WAVE_TOL)]
    return run
