"""The case recorder that judges every suite case, and NaN-safe residuals."""

import json
import math
import sys
import types
from itertools import product

import pytest

import monogenics
from monogenics import cst, kernels, radon, suites
from monogenics.cli import main
from monogenics.clifford import CliffordElement
from monogenics.laurent import LaurentPoly
from monogenics.poly import CliffordPolynomial
from monogenics.sphere import ProductGaussRule
from monogenics.suites import _monomial_truncation_order, _Suite

NAN = float("nan")


def _one_case(tol=None, values=()):
    s = _Suite("t", {})
    s.case("c", "identity", ["op"], [(v,) for v in values], lambda v: v, tol=tol)
    case, = s.report.cases
    return case


@pytest.mark.parametrize("tol", [None, 1e-8])
def test_empty_case_fails_and_says_it_compared_nothing(tol):
    case = _one_case(tol)
    assert not case.passed and case.residual == 0.0
    assert case.to_json()["checked"] == 0
    report = suites.VerificationReport("t", {}, [case])
    assert not report.passed and "compared nothing" in report.table()


def test_case_that_checked_something_omits_the_count():
    assert "checked" not in _one_case(None, [True]).to_json()
    assert "checked" not in _one_case(1e-8, [0.0]).to_json()


def test_nan_after_finite_residuals_fails():
    case = _one_case(1e-8, [1e-12, 0.0, NAN, 1e-13])
    assert math.isnan(case.residual) and not case.passed
    assert _one_case(1e-8, [NAN]).passed is False


def test_numeric_case_keeps_the_largest_residual():
    case = _one_case(1e-8, [3e-9, 5e-9, 1e-9])
    assert case.residual == 5e-9 and case.passed and case.checked == 3
    assert not _one_case(1e-8, [3e-9, 2e-8]).passed


def test_exact_residual_counts_the_false_checks():
    case = _one_case(None, [True, False, True, False, False])
    assert case.residual == 3.0 and case.exact and case.tol == 0.0
    assert not case.passed and case.checked == 5
    assert _one_case(None, [True, True]).passed


@pytest.mark.parametrize("tol, value", [(None, 0.0), (None, 1), (1e-8, True), (1e-8, False)])
def test_check_refuses_the_wrong_kind_of_value(tol, value):
    # a residual in an exact case, or a bool in a numeric one, would be judged
    # backwards (0.0 reads as a failure, True as a residual of 1)
    want = "a bool" if tol is None else "a residual"
    with pytest.raises(TypeError, match=f"case 'c' checks {want}, got {value!r}"):
        _one_case(tol, [value])


def test_cases_keep_their_call_order_and_verdicts():
    s = _Suite("t", {})
    s.case("first", "", [], [(0.5,)], lambda r: r, tol=1.0)
    s.case("second", "", [], [(True, True)], lambda *oks: oks)
    s.case("third", "", [], [(False,)], lambda ok: ok)
    assert [c.case_id for c in s.report.cases] == ["first", "second", "third"]
    assert [c.passed for c in s.report.cases] == [True, True, False]
    assert [c.checked for c in s.report.cases] == [1, 2, 1]


def test_timing_charges_each_case_only_for_its_own_calls(monkeypatch):
    # a clock that moves only by the work done: set-up before the first case
    # and work between cases (such as suite_monomials' shared list of
    # reports) must not be charged to the case after them; lazy points are
    clock = [0.0]
    monkeypatch.setattr(suites, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))

    def work(seconds):
        clock[0] += seconds
        return True

    s = _Suite("t", {})
    work(5.0)
    s.case("first", "", [], [(1.0,)], work)
    work(7.0)
    s.case("second", "", [], [(2.0,)], work)
    work(11.0)
    s.case("lazy", "", [], ((0.5,) for _ in range(2) if work(3.0)), work)
    assert [c.elapsed_ms for c in s.report.cases] == [1000.0, 2000.0, 7000.0]


def test_verify_radon_m1_fails_on_its_empty_cases(tmp_path):
    out = tmp_path / "radon_m1.json"
    assert main(["verify", "radon", "--m", "1", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    empty = {"radon_bridge", "plane_wave_exact", "funk_hecke_vs_mc", "exact_rule_vs_mc"}
    for case in doc["cases"]:
        if case["id"] in empty:
            assert case["pass"] is False and case["checked"] == 0
        else:
            assert case["pass"] is True and "checked" not in case
    assert {c["id"] for c in doc["cases"]} >= empty and doc["pass"] is False


def test_norm_inf_keeps_a_nan_coefficient():
    assert math.isnan(CliffordElement(2, {0: 1.0, 1: NAN}).norm_inf())
    assert math.isnan(CliffordElement(2, {1: NAN, 0: 1.0}).norm_inf())
    poly = CliffordPolynomial(2, {(0, 0, 0): CliffordElement(2, {0: 2.0}),
                                  (1, 0, 0): CliffordElement(2, {0: 1.0, 3: NAN})})
    assert math.isnan(poly.norm_inf())
    assert CliffordElement(2, {0: 1.0, 1: -3.0}).norm_inf() == 3.0


def _nan_e1(elem: CliffordElement) -> CliffordElement:
    return elem + CliffordElement(elem.m, {1: NAN})


def test_suite_cst_fails_when_a_route_turns_nan(monkeypatch):
    route = cst.axial_cst_radon_route
    monkeypatch.setattr(cst, "axial_cst_radon_route", lambda *a: _nan_e1(route(*a)))
    report = suites.suite_cst()
    by_id = {c.case_id: c for c in report.cases}
    assert math.isnan(by_id["axial_two_routes"].residual)
    assert not by_id["axial_two_routes"].passed and not report.passed
    assert by_id["fueter_three_routes"].passed


@pytest.mark.parametrize("which", ["ua-routes", "fueter-routes"])
def test_cst_check_fails_when_a_route_turns_nan(tmp_path, monkeypatch, which):
    if which == "ua-routes":
        route = cst.axial_cst_radon_route
        monkeypatch.setattr(cst, "axial_cst_radon_route", lambda *a: _nan_e1(route(*a)))
    else:
        routes = cst.fueter_cst_routes

        def last_route_nan(*a):
            out = dict(routes(*a))
            last = list(out)[-1]
            out[last] = _nan_e1(out[last])
            return out

        monkeypatch.setattr(cst, "fueter_cst_routes", last_route_nan)
    out = tmp_path / "c.json"
    rc = main(["cst-check", "--m", "2", "--which", which, "--family", "hermite:1",
               "--out", str(out)])
    assert rc == 1
    doc = json.loads(out.read_text())
    assert doc["pass"] is False and all(not c["pass"] for c in doc["cases"])
    assert all(math.isnan(c["residual"]) for c in doc["cases"])


def test_monomial_residual_keeps_a_nan_point():
    class Values:
        def __init__(self, *coeffs):
            self.left = iter(coeffs)

        def evaluate(self, x0, xv):
            return CliffordElement(2, {0: next(self.left)})

    points = [(1.0, [0.1, 0.1]), (1.0, [0.2, 0.1])]
    gap = kernels._max_residual(Values(1.0, NAN), Values(0.5, 0.0), 1, points)
    assert math.isnan(gap)


def test_plane_wave_residual_keeps_a_nan_point(monkeypatch):
    mean, calls = radon._slice_plane_wave, []

    def nan_on_second_point(*a):
        lhs, se = mean(*a)
        calls.append(a)
        return (_nan_e1(lhs) if len(calls) == 2 else lhs), se

    monkeypatch.setattr(radon, "_slice_plane_wave", nan_on_second_point)
    rep = radon.plane_wave_gck_check(LaurentPoly.monomial(2), 2, ProductGaussRule(2, 8))
    assert len(calls) == 3 and math.isnan(rep.residual)


def test_truncation_order_refuses_to_certify_what_it_cannot():
    with pytest.raises(ValueError, match="no truncation order"):
        _monomial_truncation_order(2, 1, 0.9)
    with pytest.raises(ValueError):
        _monomial_truncation_order(5, 4, 0.8)
    orders = {_monomial_truncation_order(m, k, 0.4) for m in range(2, 7) for k in range(1, 5)}
    assert min(orders) >= 30 and max(orders) <= 48


def per_order_truncation(m, k, ratio, target=1e-9):
    """The truncation order as a loop that runs the term sequence from t_0
    again for each candidate order; None where no order below 200 does."""
    q = k + m - 1
    const = abs(float(kernels.monomial_constant(m, k)))
    order = 12
    while order < 200:
        t, tail = 1.0, 0.0
        for j in range(1, order + 60):
            t = t * (q + j - 1) / (j if j % 2 == 0 else m + j - 1) * ratio
            if j > order:
                tail += t
        nxt = min((q + order + 59) / (order + 60) * ratio, 0.95)
        tail += t * nxt / (1 - nxt)
        if const * tail < target:
            return order
        order += 6
    return None


@pytest.mark.parametrize("ratio", [0.3, 0.4, 0.5])
def test_truncation_order_matches_the_per_order_loop(ratio):
    for m, k, target in product(range(2, 7), range(1, 7), (1e-6, 1e-9, 1e-12)):
        want = per_order_truncation(m, k, ratio, target)
        if want is None:
            with pytest.raises(ValueError, match="no truncation order"):
                _monomial_truncation_order(m, k, ratio, target)
        else:
            assert _monomial_truncation_order(m, k, ratio, target) == want, (m, k, target)


def test_algebra_suite_calls_the_registry_conjugations(monkeypatch):
    # the coverage case counts these ops, so the suite must really call them
    calls = {"clifford_conjugate": 0, "hermitian_conjugate": 0}
    for name in calls:
        fn = getattr(suites, name)

        def counted(a, name=name, fn=fn):
            calls[name] += 1
            return fn(a)

        monkeypatch.setattr(suites, name, counted)
    assert suites.suite_algebra(3, 20, 42).passed
    assert all(calls.values()), calls


@pytest.mark.parametrize("suite", [*suites.SUITES, "all"])
def test_each_case_calls_every_op_it_declares(monkeypatch, suite):
    # Every OP_REGISTRY function is wrapped in every module that binds it, and
    # each call is credited to the case running at the time.  Work a suite does
    # outside its cases, such as the one list of monomial reports that both
    # order cases read, is credited to each case after it.  For "all" only its
    # own two cases run.
    monogenics.axial_cst  # binds the numeric layer's names in the package before wrapping
    ops = {op for names in suites.OP_REGISTRY.values() for op in names}
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "monogenics"]
    originals = {op: fn for mod in modules for op, fn in vars(mod).items()
                 if op in ops and getattr(fn, "__module__", None) == mod.__name__}
    assert originals.keys() == ops
    outside: set = set()
    running = [outside]

    def counted(op, fn):
        def wrapper(*args, **kwargs):
            running[-1].add(op)
            return fn(*args, **kwargs)
        return wrapper

    for op, fn in originals.items():
        wrapped = counted(op, fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, wrapped)
    called = {}
    case = suites._Suite.case

    def credited_case(self, case_id, *args, **kwargs):
        running.append(set(outside))
        try:
            case(self, case_id, *args, **kwargs)
        finally:
            called[case_id] = running.pop()

    monkeypatch.setattr(suites._Suite, "case", credited_case)
    if suite == "all":
        monkeypatch.setattr(suites, "_run_table_suite",
                            lambda name, params, capped: suites.VerificationReport(name, {}, []))
    report = suites.run_suite(suite)
    assert [c.case_id for c in report.cases] == list(called)
    uncalled = [(c.case_id, op) for c in report.cases for op in c.ops if op not in called[c.case_id]]
    assert not uncalled
