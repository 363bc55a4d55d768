"""Canonical JSON forms for the exported objects.

All emitters sort keys and terms, and rationals are printed as "p/q" with a
positive denominator, so identical objects serialize to identical bytes.
``dumps`` writes the bytes of ``json.dumps(payload, sort_keys=True,
indent=2)`` with its own emitter, in about half the time of json's
pure-Python indented encoder.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .axial import AxialClosedForm, RhoExpr
from .clifford import CliffordElement, blade_indices
from .extensions import AxialSeries
from .laurent import LaurentPoly
from .poly import CliffordPolynomial
from .scalars import PiScalar

SCHEMA_VERSION = 1


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def scalar_json(s) -> dict:
    if isinstance(s, int):
        s = Fraction(s)
    if isinstance(s, Fraction):
        return {"re": frac_str(s), "im": "0/1"}
    if isinstance(s, PiScalar):
        terms = s.terms()
        if len(terms) == 1:
            p, re, im = terms[0]
            out = {"re": frac_str(re), "im": frac_str(im)}
            if p:
                out["pi"] = p  # exponent of sqrt(pi)
            return out
        return {
            "pi_terms": [
                {"re": frac_str(re), "im": frac_str(im), "pi": p} for p, re, im in terms
            ]
        }
    raise TypeError(f"only exact scalars serialize canonically, got {type(s).__name__}")


def element_json(el: CliffordElement) -> dict:
    terms = []
    for mask in sorted(el.coeffs, key=lambda t: (t.bit_count(), t)):
        entry = {"blade": list(blade_indices(mask))}
        entry.update(scalar_json(el.coeffs[mask]))
        terms.append(entry)
    return {"m": el.m, "terms": terms}


def poly_json(p: CliffordPolynomial) -> dict:
    terms = [
        {"exps": list(exps), "coeff": element_json(p.terms[exps])}
        for exps in sorted(p.terms)
    ]
    return {"m": p.m, "terms": terms}


def laurent_json(f: LaurentPoly) -> dict:
    terms = []
    for n in sorted(f.terms):
        entry = {"n": n}
        c = f.terms[n]
        if isinstance(c, CliffordElement):
            entry["element"] = element_json(c)
        else:
            entry.update(scalar_json(c))
        terms.append(entry)
    return {"terms": terms}


def series_json(s: AxialSeries) -> dict:
    return {
        "m": s.m,
        "order": s.order,
        "exact": s.exact,
        "coeffs": [laurent_json(f) for f in s.coeffs],
    }


def rho_json(r: RhoExpr) -> list:
    out = []
    for (p, q, e) in sorted(r.terms):
        entry = {"p": p, "q": q, "e": e}
        entry.update(scalar_json(r.terms[(p, q, e)]))
        out.append(entry)
    return out


def closed_form_json(f: AxialClosedForm) -> dict:
    return {
        "m": f.m,
        "A": rho_json(f.A),
        "B": rho_json(f.B),
        "sign_power": f.sign_power,
        "singular_origin": f.singular_origin,
    }


def dumps(obj: dict) -> str:
    payload = {"schema": SCHEMA_VERSION}
    payload.update(obj)
    out: list[str] = []
    _emit(payload, "\n", out)
    return "".join(out) + "\n"


def _emit(o, newline: str, out: list[str]) -> None:
    """Append ``o`` as ``json.dumps(o, sort_keys=True, indent=2)`` writes it
    (str keys only), nested under ``newline``, a line break and the indent
    of its line; str and int members, most leaves, are written inline."""
    inner = newline + "  "
    if isinstance(o, dict):
        sep = "{" + inner
        for k in sorted(o):
            v = o[k]
            if type(v) is str:
                out.append(sep + _quote(k) + ": " + _quote(v))
            elif type(v) is int:
                out.append(sep + _quote(k) + ": " + int.__repr__(v))
            else:
                out.append(sep + _quote(k) + ": ")
                _emit(v, inner, out)
            sep = "," + inner
        out.append(newline + "}" if o else "{}")
    elif isinstance(o, (list, tuple)):
        sep = "[" + inner
        for v in o:
            if type(v) is int:
                out.append(sep + int.__repr__(v))
            else:
                out.append(sep)
                _emit(v, inner, out)
            sep = "," + inner
        out.append(newline + "]" if o else "[]")
    else:
        out.append(json.dumps(o))   # a scalar, NaN and Infinity included, as json writes it
