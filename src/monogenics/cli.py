"""Command line orchestration: run verification suites, export canonical
objects, and spot-check single identities.

All outputs are versioned JSON with sorted keys; identical invocations
produce byte-identical files (timing is opt-in and kept out of the
canonical payload).  Exit code 0 means every case passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import NoReturn

from . import serialize as ser
from .laurent import LaurentPoly
from .radon import cauchy_plane_wave_check, plane_wave_gck_check
from .sphere import ExactMonomialRule, MonteCarloRule, ProductGaussRule
from .suites import SUITE_NAMES, export_payload, run_suite
from .cst import fueter_cst_routes, unitarity_check
from .gausspoly import hermite_function

OUT_ENV = "MONOGENICS_OUT"
MC_SAMPLES_MAX = 5_000_000


def _usage_error(message: str) -> NoReturn:
    """Reject out-of-range or malformed input: one line on stderr, exit code 2."""
    print(f"monogenics: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _out_path(arg: str | None, default_name: str) -> Path:
    if arg:
        return Path(arg)
    base = os.environ.get(OUT_ENV, ".")
    return Path(base) / default_name


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(ser.dumps(payload), encoding="utf-8")


def _cmd_verify(args) -> int:
    if args.m and not 1 <= args.m <= 6:
        _usage_error("desk-scale bound: --m must stay within 1..6")
    if args.max_degree and not 0 <= args.max_degree <= 10:
        _usage_error("desk-scale bound: --max-degree must stay within 0..10")
    if args.mc_samples > MC_SAMPLES_MAX:
        _usage_error("desk-scale bound: --mc-samples capped at 5e6")
    params = {
        "m": args.m,
        "max_degree": args.max_degree,
        "seed": args.seed,
        "count": args.count,
        "mc_samples": args.mc_samples,
    }
    report = run_suite(args.suite, params)
    print(report.table())
    payload = report.to_json(timing=args.timing)
    _write(_out_path(args.out, f"report_{args.suite}.json"), payload)
    return 0 if report.passed else 1


def _cmd_export(args) -> int:
    payload = export_payload(args.kind, args.m, k=args.k, power=args.power)
    _write(_out_path(args.out, f"{args.kind}_m{args.m}.json"), payload)
    return 0


def _cmd_fueter(args) -> int:
    payload = export_payload("fueter_power", args.m, power=args.power)
    if args.laurent:
        from .fueter import fueter_on_laurent

        doc = json.loads(Path(args.laurent).read_text(encoding="utf-8"))
        f0 = LaurentPoly({int(t["n"]): _parse_frac(t["re"]) for t in doc["terms"]})
        series = fueter_on_laurent(args.m, f0, order=args.order)
        payload["laurent_image"] = ser.series_json(series)
    print(ser.dumps(payload), end="")
    _write(_out_path(args.out, f"fueter_m{args.m}_l{args.power}.json"), payload)
    return 0


def _parse_frac(s: str):
    from fractions import Fraction

    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or "1"))


def _parse_rule(rule_arg: str, m: int):
    if rule_arg == "exact":
        return ExactMonomialRule(m)
    if match := re.fullmatch(r"gauss:([1-9][0-9]{0,17})", rule_arg):
        return ProductGaussRule(m, int(match[1]))
    if match := re.fullmatch(r"mc:([0-9]{1,18}):([0-9]{1,18})", rule_arg):
        n, seed = int(match[1]), int(match[2])
        if not 2 <= n <= MC_SAMPLES_MAX:
            _usage_error(f"desk-scale bound: mc:N needs N within 2..{MC_SAMPLES_MAX}")
        return MonteCarloRule(m, n, seed)
    _usage_error(f"unknown or malformed rule {rule_arg!r} "
                 "(use exact | gauss:L with L >= 1 | mc:N:SEED)")


def _cmd_radon_check(args) -> int:
    rule = _parse_rule(args.rule, args.m)
    cases = []
    for k in range(args.degree + 1):
        rep = plane_wave_gck_check(LaurentPoly.monomial(k), args.m, rule)
        cases.append(rep.to_json())
    if not isinstance(rule, MonteCarloRule):
        quad = rule if isinstance(rule, ProductGaussRule) else ProductGaussRule(args.m, 24)
        pt = (1.0, *(0.2 / math.sqrt(args.m),) * args.m)
        cases.append({"check": "cauchy_plane_wave", "m": args.m,
                      "residual": cauchy_plane_wave_check(args.m, pt, quad)})
    payload = {"command": "radon-check", "m": args.m, "degree": args.degree,
               "rule": args.rule, "cases": cases}
    print(ser.dumps(payload), end="")
    _write(_out_path(args.out, f"radon_m{args.m}.json"), payload)
    ok = all(c.get("exact", False) or c["residual"] < args.tol for c in cases)
    return 0 if ok else 1


def _cmd_cst_check(args) -> int:
    fam_kind, _, fam_n = args.family.partition(":")
    if fam_kind != "hermite":
        raise SystemExit("only the hermite:K family is available")
    fams = [hermite_function(n) for n in range(int(fam_n or "4"))]
    cases = []
    ok = True
    if args.which == "unitarity":
        from .cst import DEFAULT_QUAD_LEVELS

        for i, f in enumerate(fams):
            for j, g in enumerate(fams):
                res = unitarity_check(f, g, args.m, DEFAULT_QUAD_LEVELS)
                passed = res.residual < args.tol and res.converging
                ok &= passed
                cases.append({"i": i, "j": j, **res.to_json(), "pass": passed})
    else:
        points = [(0.7, 0.5), (0.3, 0.8), (-0.6, 0.4)]
        rule = ProductGaussRule(args.m, 24)
        for n, f in enumerate(fams):
            for x0, r in points:
                xv = [r / math.sqrt(args.m)] * args.m
                routes = fueter_cst_routes(f, args.m, x0, xv, rule)
                vals = list(routes.values())
                if args.which == "ua-routes":
                    from .cst import axial_cst, axial_cst_radon_route

                    d = (axial_cst(f, args.m, x0, xv)
                         - axial_cst_radon_route(f, args.m, x0, xv, rule)).norm_inf()
                else:
                    d = max((vals[0] - vals[1]).norm_inf(), (vals[0] - vals[2]).norm_inf())
                passed = d < args.tol
                ok &= passed
                cases.append({"n": n, "x0": x0, "r": r, "residual": d, "pass": passed})
    payload = {"command": "cst-check", "which": args.which, "m": args.m,
               "family": args.family, "tol": args.tol, "cases": cases, "pass": ok}
    print(ser.dumps(payload), end="")
    _write(_out_path(args.out, f"cst_{args.which}_m{args.m}.json"), payload)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="monogenics",
                                description="desk-scale verification of the monogenic "
                                            "extension calculus")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITE_NAMES)
    v.add_argument("--m", type=int, default=0, help="largest algebra dimension")
    v.add_argument("--max-degree", type=int, default=0)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--count", type=int, default=2000, help="randomized algebra checks")
    v.add_argument("--mc-samples", type=int, default=200_000)
    v.add_argument("--timing", action="store_true", help="add timing to the JSON report")
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    e = sub.add_parser("export", help="write one canonical object")
    e.add_argument("--kind", required=True,
                   choices=["Qpoly", "monomialP", "cauchyE", "fueter_power"])
    e.add_argument("--m", type=int, required=True)
    e.add_argument("--k", type=int, default=0)
    e.add_argument("--power", type=int, default=0)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=_cmd_export)

    f = sub.add_parser("fueter", help="apply the slice-to-axial map to one power")
    f.add_argument("--m", type=int, required=True)
    f.add_argument("--power", type=int, required=True)
    f.add_argument("--laurent", default=None, help="JSON file with Laurent terms")
    f.add_argument("--order", type=int, default=None)
    f.add_argument("--out", default=None)
    f.set_defaults(fn=_cmd_fueter)

    r = sub.add_parser("radon-check", help="plane-wave decompositions under a chosen rule")
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--degree", type=int, default=4)
    r.add_argument("--rule", default="exact")
    r.add_argument("--tol", type=float, default=1e-6)
    r.add_argument("--out", default=None)
    r.set_defaults(fn=_cmd_radon_check)

    c = sub.add_parser("cst-check", help="coherent state transform identities")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--which", choices=["unitarity", "ua-routes", "fueter-routes"],
                   required=True)
    c.add_argument("--family", default="hermite:4")
    c.add_argument("--tol", type=float, default=1e-7)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=_cmd_cst_check)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
