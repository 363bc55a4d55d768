"""Exact comparisons in every check report: ``exact`` is the kind of
comparison, and an exact comparison's residual counts its failed equalities,
so a broken exact identity never drops into a float tolerance."""

import json
from fractions import Fraction

import pytest

from monogenics import kernels, radon, suites
from monogenics.cli import main
from monogenics.laurent import LaurentPoly
from monogenics.poly import CliffordPolynomial
from monogenics.sphere import ExactMonomialRule

# exact offsets of 1e-12 and 1e-30; the second vanishes from a float gap
# wherever it is added to a constant term of 1
OFFSETS = [Fraction(1, 10**12), Fraction(1, 10**30)]


def _plus(poly: CliffordPolynomial, eps: Fraction) -> CliffordPolynomial:
    return poly + CliffordPolynomial.one(poly.m).scale(eps)


def _offset_appell(monkeypatch, eps):
    appell_Q = kernels.appell_Q
    monkeypatch.setattr(kernels, "appell_Q", lambda m, k: _plus(appell_Q(m, k), eps))


def _offset_dual_radon(monkeypatch, eps):
    dual_radon = radon.dual_radon
    monkeypatch.setattr(radon, "dual_radon", lambda f: _plus(dual_radon(f), eps))


@pytest.mark.parametrize("eps", OFFSETS, ids=["1e-12", "1e-30"])
def test_offset_appell_family_fails_the_monomial_suite(monkeypatch, eps):
    _offset_appell(monkeypatch, eps)
    report = suites.suite_monomials(5)
    by_id = {c.case_id: c for c in report.cases}
    assert not report.passed and not by_id["pos_order_exact"].passed
    # the failing exact identities stay exact and never reach the numeric case
    assert by_id["pos_order_exact"].checked == 32
    assert by_id["neg_order_numeric"].checked == 32


def test_failing_exact_identity_reports_its_kind_and_one_failure(monkeypatch):
    _offset_appell(monkeypatch, OFFSETS[1])
    by_name = {r.identity: r for r in kernels.verify_monomial_identities(3, 2, order=34)}
    assert (by_name["pos_order_restriction"].exact, by_name["pos_order_restriction"].residual) \
        == (True, 1.0)
    # the derivative form does not go through appell_Q and still holds
    assert (by_name["pos_order_derivative"].exact, by_name["pos_order_derivative"].residual) \
        == (True, 0.0)
    assert not by_name["neg_order_restriction"].exact


@pytest.mark.parametrize("eps", OFFSETS, ids=["1e-12", "1e-30"])
def test_offset_dual_radon_fails_the_exact_plane_wave_check(monkeypatch, eps):
    _offset_dual_radon(monkeypatch, eps)
    rep = radon.plane_wave_gck_check(LaurentPoly.monomial(0), 3, ExactMonomialRule(3))
    assert (rep.exact, rep.residual) == (True, 1.0)


@pytest.mark.parametrize("eps", OFFSETS, ids=["1e-12", "1e-30"])
def test_offset_dual_radon_fails_radon_check(tmp_path, monkeypatch, eps):
    _offset_dual_radon(monkeypatch, eps)
    out = tmp_path / "r.json"
    assert main(["radon-check", "--m", "3", "--degree", "2", "--rule", "exact",
                 "--out", str(out)]) == 1
    rows = [c for c in json.loads(out.read_text())["cases"] if c["check"] == "gck_plane_wave"]
    assert len(rows) == 3 and all(c["exact"] is True and c["residual"] == 1.0 for c in rows)


def test_radon_check_holds_a_spreadless_monte_carlo_row_to_roundoff(tmp_path, monkeypatch):
    # a constant integrand has no spread, so its gap is owed only to roundoff,
    # as in the suites: 1e-9 fails although it sits below the 1e-6 tolerance
    from dataclasses import replace

    from monogenics import cli

    check = cli.plane_wave_gck_check

    def off(f0, m, rule):
        rep = check(f0, m, rule)
        return replace(rep, residual=1e-9) if rep.stderr == 0.0 else rep

    monkeypatch.setattr(cli, "plane_wave_gck_check", off)
    assert main(["radon-check", "--m", "2", "--degree", "0", "--rule", "mc:2000:3",
                 "--out", str(tmp_path / "r.json")]) == 1
