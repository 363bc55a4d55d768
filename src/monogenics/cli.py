"""Command line orchestration: run verification suites, export canonical
objects, and spot-check single identities.

All outputs are versioned JSON with sorted keys; identical invocations
produce byte-identical files (timing is opt-in and kept out of the
canonical payload).  Exit code 0 means every case passed; input outside
``BOUNDS`` or otherwise malformed exits with code 2 and one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

from . import serialize as ser
from .clifford import nan_max
from .laurent import LaurentPoly
from .radon import cauchy_plane_wave_check, plane_wave_gck_check
from .suites import SUITE_NAMES, _se_ratio, export_payload, run_suite
from .scalars import PiScalar

OUT_ENV = "MONOGENICS_OUT"
MC_SAMPLES_MAX = 5_000_000
GAUSS_NODES_MAX = 1_000_000
# the loosest --tol: the checks hold to 1e-6 or better, no default exceeds 1e-5
TOL_MAX = 1e-2
# Desk-scale bounds of the integer inputs, (lo, hi) inclusive.  The upper
# ends keep the largest accepted run of each verb well under a minute (2-CPU
# x86-64 host, CPython 3.11): export --kind Qpoly --m 6 --k 24 takes
# 2.8-3.3 s and 333 MB (2.9-3.6 s with nested integer rows in place of packed
# keys, 4.2-5.7 s and 370 MB through json's indented encoder), export --kind
# monomialP --m 6 --power 20 1.2-1.3 s, verify radon --m 6 --max-degree 10
# 0.98-1.01 s and 63 MB with its dual-Radon tables kept for the process
# (1.12-1.13 s and 60 MB when built per call, 2.3-3.0 s with nested rows;
# wall time of the process), verify algebra --m 6
# --count 20000 17.8-19.4 s, and verify all with every bound at its maximum
# 26 s and 309 MB.  The largest Monte Carlo run,
# radon-check --m 6 --degree 10 --rule mc:5000000:7, takes 1.8-2.0 s and 268 MB,
# 240 MB of it the nodes of sphere.MonteCarloRule (2.3-2.8 s, 268 MB, in the
# same sitting while each block formed the rows of w beta; 3.4-4.0 s and 495 MB
# while the rule held its whole draw); the largest Gauss run, radon-check --m 3 --degree
# 10 --rule gauss:707 (999,698 nodes), takes 0.5-0.8 s and 104 MB, cst-check --m 5
# --which fueter-routes or ua-routes --family hermite:8 (663,552 nodes) 0.5-1.0 s and
# 103 MB (0.8-2.4 s, 1.1-2.2 s, 108-116 MB when both nodes of a pair were split).
BOUNDS = {
    "--m": (1, 6),
    "--max-degree": (0, 10),
    "--degree": (0, 10),
    "--count": (1, 20_000),
    "--mc-samples": (2, MC_SAMPLES_MAX),
    "--k": (0, 24),
    "--power": (-20, 20),
    "--order": (0, 400),
    "--laurent n": (-20, 20),
    "hermite:K": (1, 8),
    # numpy's generators take no negative seed; 18 digits, as mc:N:SEED
    "--seed": (0, 10**18 - 1),
}


def _usage_error(message: str) -> NoReturn:
    """Reject out-of-range or malformed input: one line on stderr, exit code 2."""
    print(f"monogenics: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _bounded(flag: str):
    """The argparse type of an integer flag: an int within ``BOUNDS[flag]``."""
    lo, hi = BOUNDS[flag]

    def parse(text) -> int:
        value = int(text)   # a ValueError is argparse's "invalid int value"
        if not lo <= value <= hi:
            _usage_error(f"desk-scale bound: {flag} must stay within {lo}..{hi}")
        return value
    parse.__name__ = "int"
    return parse


def _hermite_family(text: str) -> tuple[str, int]:
    """The argparse type of ``--family hermite[:K]``: the text as given and K (4 if omitted)."""
    match = re.fullmatch(r"hermite(?::([0-9]{1,3}))?", text)
    if not match:
        _usage_error(f"unknown or malformed family {text!r} (use hermite:K)")
    return text, _bounded("hermite:K")(match[1] or "4")


def _out_path(arg: str | None, default_name: str) -> Path:
    if arg:
        return Path(arg)
    base = os.environ.get(OUT_ENV, ".")
    return Path(base) / default_name


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(ser.dumps(payload), encoding="utf-8")


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, vars(args))   # an omitted flag is None: the suite's default
    print(report.table())
    payload = report.to_json(timing=args.timing)
    _write(_out_path(args.out, f"report_{args.suite}.json"), payload)
    return 0 if report.passed else 1


def _cmd_export(args) -> int:
    payload = export_payload(args.kind, args.m, k=args.k, power=args.power)
    _write(_out_path(args.out, f"{args.kind}_m{args.m}.json"), payload)
    return 0


def _cmd_fueter(args) -> int:
    if args.order is not None and args.laurent is None:
        _usage_error("--order sets the truncation of --laurent data and needs --laurent")
    payload = export_payload("fueter_power", args.m, power=args.power)
    if args.laurent:
        from .fueter import fueter_on_laurent

        try:
            series = fueter_on_laurent(args.m, _read_laurent(args.laurent), order=args.order)
        except ValueError as exc:   # raised here only by gck_extension's order check
            _usage_error(f"--order {args.order} is below the degree of the --laurent data "
                         f"differentiated {args.m - 1} times ({exc})")
        payload["laurent_image"] = ser.series_json(series)
    _write(_out_path(args.out, f"fueter_m{args.m}_l{args.power}.json"), payload)
    return 0


def _read_laurent(path: str) -> LaurentPoly:
    """Laurent data ``{"terms": [{"n": N, "re": "p/q", "im": "p/q"}, ...]}``.

    Each term needs an integer power n within its bound, given once, and
    "re", "im" or both; the coefficient is the exact re + i im.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _usage_error(f"cannot read --laurent file: {exc}")
    terms = doc.get("terms") if isinstance(doc, dict) else None
    if not isinstance(terms, list):
        _usage_error('--laurent file needs a list under "terms"')
    coeffs: dict[int, object] = {}
    for t in terms:
        if not (isinstance(t, dict) and type(t.get("n")) is int and set(t) <= {"n", "re", "im"}
                and len(t) > 1):
            _usage_error(f'malformed --laurent term {t!r} (use {{"n": int, "re": "p/q", "im": "p/q"}})')
        _bounded("--laurent n")(t["n"])
        if t["n"] in coeffs:
            _usage_error(f"--laurent file repeats the power n={t['n']}")
        coeffs[t["n"]] = PiScalar({0: (_parse_frac(t.get("re", "0")), _parse_frac(t.get("im", "0")))})
    return LaurentPoly(coeffs)


def _parse_frac(s) -> Fraction:
    match = re.fullmatch(r"([+-]?[0-9]{1,1000})(?:/([0-9]{1,1000}))?", s) if isinstance(s, str) else None
    if not match or int(match[2] or "1") == 0:
        _usage_error(f"malformed fraction {s!r} in --laurent file (use p/q with q != 0)")
    return Fraction(int(match[1]), int(match[2] or "1"))


def _gauss_rule(m: int, level: int):
    """The product Gauss rule, refused before any node is built if it
    would have more than GAUSS_NODES_MAX nodes."""
    from .sphere import ProductGaussRule, product_rule_size

    nodes = product_rule_size(m, level)
    if nodes > GAUSS_NODES_MAX:
        _usage_error(f"desk-scale bound: gauss:{level} needs {nodes} nodes at m={m}, "
                     f"more than {GAUSS_NODES_MAX}")
    return ProductGaussRule(m, level)


def _parse_rule(rule_arg: str, m: int):
    from .sphere import ExactMonomialRule, MonteCarloRule

    if rule_arg == "exact":
        return ExactMonomialRule(m)
    if match := re.fullmatch(r"gauss:([1-9][0-9]{0,17})", rule_arg):
        return _gauss_rule(m, int(match[1]))
    if match := re.fullmatch(r"mc:([0-9]{1,18}):([0-9]{1,18})", rule_arg):
        n, seed = int(match[1]), int(match[2])
        if not 2 <= n <= MC_SAMPLES_MAX:
            _usage_error(f"desk-scale bound: mc:N needs N within 2..{MC_SAMPLES_MAX}")
        return MonteCarloRule(m, n, seed)
    _usage_error(f"unknown or malformed rule {rule_arg!r} "
                 "(use exact | gauss:L with L >= 1 | mc:N:SEED)")


def _tolerance(args, default: float) -> tuple[float, bool]:
    """The --tol to check against, and whether it is the verb's default."""
    if args.tol is None:
        return default, True
    if not 0 < args.tol <= TOL_MAX:
        _usage_error(f"--tol must lie in (0, {TOL_MAX:g}], got {args.tol!r}")
    return args.tol, False


def _cmd_radon_check(args) -> int:
    tol, tol_default = _tolerance(args, 1e-6)
    rule = _parse_rule(args.rule, args.m)
    # the Cauchy plane wave runs on the chosen product rule, or on level 24
    # beside the exact rule; a Monte Carlo estimate cannot meet its tolerance
    quad = (rule if rule.kind == "gauss"
            else _gauss_rule(args.m, 24) if rule.kind == "exact" else None)
    cases = []
    for k in range(args.degree + 1):
        rep = plane_wave_gck_check(LaurentPoly.monomial(k), args.m, rule)
        cases.append(rep.to_json())
    if quad is not None:
        pt = (1.0, *(0.2 / math.sqrt(args.m),) * args.m)
        cases.append({"check": "cauchy_plane_wave", "m": args.m,
                      "residual": cauchy_plane_wave_check(args.m, pt, quad)})
    payload = {"command": "radon-check", "m": args.m, "degree": args.degree,
               "rule": args.rule, "tol": tol, "tol_default": tol_default, "cases": cases}
    print(ser.dumps(payload), end="")
    _write(_out_path(args.out, f"radon_m{args.m}.json"), payload)
    # the suites' rule: Monte Carlo within 5 standard errors, else tol (0 if exact)
    ok = all(_se_ratio(c["residual"], c["stderr"]) <= 1 if "stderr" in c
             else c["residual"] <= (0.0 if c.get("exact") else tol) for c in cases)
    return 0 if ok else 1


def _cmd_cst_check(args) -> int:
    from .cst import CHECK_POINTS, axial_cst, axial_cst_radon_route, fueter_cst_routes, unitarity_gram
    from .gausspoly import hermite_function

    tol, tol_default = _tolerance(args, 1e-7)
    family, count = args.family
    fams = [hermite_function(n) for n in range(count)]
    cases = []
    ok = True
    if args.which == "unitarity":
        for i, row in enumerate(unitarity_gram(fams, fams, args.m)):
            for j, res in enumerate(row):
                passed = res.residual <= tol and res.converging
                ok &= passed
                cases.append({"i": i, "j": j, **res.to_json(), "pass": passed})
    else:
        rule = _gauss_rule(args.m, 24)
        for n, f in enumerate(fams):
            for x0, r in CHECK_POINTS:
                xv = [r / math.sqrt(args.m)] * args.m
                if args.which == "ua-routes":
                    d = (axial_cst(f, args.m, x0, xv)
                         - axial_cst_radon_route(f, args.m, x0, xv, rule)).norm_inf()
                else:
                    a, *others = fueter_cst_routes(f, args.m, x0, xv, rule).values()
                    d = nan_max((a - b).norm_inf() for b in others)
                passed = d <= tol
                ok &= passed
                cases.append({"n": n, "x0": x0, "r": r, "residual": d, "pass": passed})
    payload = {"command": "cst-check", "which": args.which, "m": args.m,
               "family": family, "tol": tol, "tol_default": tol_default,
               "cases": cases, "pass": ok}
    print(ser.dumps(payload), end="")
    _write(_out_path(args.out, f"cst_{args.which}_m{args.m}.json"), payload)
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:   # argparse's refusals are usage errors too
        _usage_error(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="monogenics",
                description="desk-scale verification of the monogenic extension calculus")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITE_NAMES)
    v.add_argument("--m", type=_bounded("--m"), help="largest algebra dimension")
    v.add_argument("--max-degree", type=_bounded("--max-degree"))
    v.add_argument("--seed", type=_bounded("--seed"))
    v.add_argument("--count", type=_bounded("--count"), help="randomized algebra checks")
    v.add_argument("--mc-samples", type=_bounded("--mc-samples"))
    v.add_argument("--timing", action="store_true", help="add timing to the JSON report")
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    e = sub.add_parser("export", help="write one canonical object")
    e.add_argument("--kind", required=True,
                   choices=["Qpoly", "monomialP", "cauchyE", "fueter_power"])
    e.add_argument("--m", type=_bounded("--m"), required=True)
    e.add_argument("--k", type=_bounded("--k"), default=0)
    e.add_argument("--power", type=_bounded("--power"), default=0)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=_cmd_export)

    f = sub.add_parser("fueter", help="apply the slice-to-axial map to one power")
    f.add_argument("--m", type=_bounded("--m"), required=True)
    f.add_argument("--power", type=_bounded("--power"), required=True)
    f.add_argument("--laurent", default=None, help="JSON file with Laurent terms")
    f.add_argument("--order", type=_bounded("--order"), help="series truncation; needs --laurent")
    f.add_argument("--out", default=None)
    f.set_defaults(fn=_cmd_fueter)

    r = sub.add_parser("radon-check", help="plane-wave decompositions under a chosen rule")
    r.add_argument("--m", type=_bounded("--m"), required=True)
    r.add_argument("--degree", type=_bounded("--degree"), default=4)
    r.add_argument("--rule", default="exact")
    r.add_argument("--tol", type=float, default=None,
                   help="default 1e-6; exact rows need 0, Monte Carlo rows 5 standard errors")
    r.add_argument("--out", default=None)
    r.set_defaults(fn=_cmd_radon_check)

    c = sub.add_parser("cst-check", help="coherent state transform identities")
    c.add_argument("--m", type=_bounded("--m"), required=True)
    c.add_argument("--which", choices=["unitarity", "ua-routes", "fueter-routes"],
                   required=True)
    c.add_argument("--family", type=_hermite_family, default="hermite:4")
    c.add_argument("--tol", type=float, default=None, help="default 1e-7")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=_cmd_cst_check)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
