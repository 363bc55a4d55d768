import dataclasses
import json
import math
import pathlib
from fractions import Fraction

import pytest

from monogenics import serialize as ser
from monogenics.clifford import CliffordElement
from monogenics.cli import main
from monogenics.extensions import appell_Q
from monogenics.scalars import PiScalar
from monogenics.suites import OP_REGISTRY, export_payload, run_suite

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_element_json_schema():
    m = 3
    el = CliffordElement(m, {0: Fraction(1, 2), 0b011: Fraction(-3)})
    doc = ser.element_json(el)
    assert doc["m"] == 3
    assert doc["terms"] == [
        {"blade": [], "re": "1/2", "im": "0/1"},
        {"blade": [1, 2], "re": "-3/1", "im": "0/1"},
    ]


def test_scalar_json_with_pi_and_imaginary():
    s = PiScalar.imaginary(Fraction(2, 3)) * PiScalar.pi_power(2)
    doc = ser.scalar_json(s)
    assert doc == {"re": "0/1", "im": "2/3", "pi": 2}
    multi = PiScalar.of(1) + PiScalar.pi_power(1)
    assert "pi_terms" in ser.scalar_json(multi)
    with pytest.raises(TypeError):
        ser.scalar_json(0.5)


def test_poly_json_roundtrip_content():
    doc = ser.poly_json(appell_Q(3, 1))
    coeffs = {tuple(t["exps"]): t["coeff"] for t in doc["terms"]}
    assert coeffs[(1, 0, 0, 0)]["terms"] == [{"blade": [], "re": "1/1", "im": "0/1"}]
    assert coeffs[(0, 1, 0, 0)]["terms"] == [{"blade": [1], "re": "1/3", "im": "0/1"}]


@pytest.mark.parametrize("name,args", [
    ("qpoly_m3_k2.json", ("Qpoly", 3, {"k": 2})),
    ("cauchyE_m1.json", ("cauchyE", 1, {})),
    ("fueter_m3_l2.json", ("fueter_power", 3, {"power": 2})),
    ("monomialP_m2_o1.json", ("monomialP", 2, {"power": 1})),
    ("fueter_m2_l4.json", ("fueter_power", 2, {"power": 4})),
])
def test_golden_exports(name, args):
    kind, m, kw = args
    got = ser.dumps(export_payload(kind, m, **kw))
    assert got == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv", [
    ("verify_monomials.json", []),
    ("verify_monomials_m6.json", ["--m", "6"]),
])
def test_verify_monomials_report_is_pinned(tmp_path, name, argv):
    # the negative-order residuals are float sums of the exact series at
    # float points, so equal bytes pin the float evaluation bit for bit
    out = tmp_path / name
    assert main(["verify", "monomials", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("suite", ["gck", "fueter"])
def test_verify_exact_suite_report_is_pinned(tmp_path, suite):
    # the negative-order residuals of both suites are float sums of exact series
    name = f"verify_{suite}.json"
    out = tmp_path / name
    assert main(["verify", suite, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_fueter_export_constant_example():
    payload = export_payload("fueter_power", 3, power=2)
    assert payload["branch_tag"] == "monomial"
    term, = payload["object"]["terms"]
    assert term["coeff"]["terms"] == [{"blade": [], "re": "-4/1", "im": "0/1"}]


def test_export_byte_stability():
    a = ser.dumps(export_payload("Qpoly", 4, 3))
    b = ser.dumps(export_payload("Qpoly", 4, 3))
    assert a == b


def test_cli_verify_algebra(tmp_path):
    out = tmp_path / "algebra.json"
    rc = main(["verify", "algebra", "--count", "300", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1 and doc["pass"] is True
    assert all("residual" in c for c in doc["cases"])


def test_cli_verify_gck_degree_zero(tmp_path):
    out = tmp_path / "gck.json"
    rc = main(["verify", "gck", "--m", "4", "--max-degree", "0", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["params"]["degree"] == 0


def test_cli_report_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "fueter", "--seed", "9", "--out", str(out1)]) == 0
    assert main(["verify", "fueter", "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_fueter_writes_only_the_file(tmp_path, capsys):
    # as export does: the payload goes to --out, nothing to stdout
    out = tmp_path / "f.json"
    assert main(["fueter", "--m", "3", "--power", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (GOLDEN / "fueter_m3_l2.json").read_bytes()


def test_cli_fueter_kernel_branch(tmp_path, capsys):
    rc = main(["fueter", "--m", "2", "--power", "0", "--out", str(tmp_path / "f.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "f.json").read_text())
    assert doc["branch_tag"] == "kernel"
    assert doc["object"]["terms"] == []
    rc = main(["fueter", "--m", "2", "--power", "1", "--out", str(tmp_path / "f1.json")])
    doc1 = json.loads((tmp_path / "f1.json").read_text())
    assert doc1["branch_tag"] == "monomial"


def test_cli_fueter_negative_power_reports_residual(tmp_path, capsys):
    rc = main(["fueter", "--m", "3", "--power", "-1", "--out", str(tmp_path / "fn.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "fn.json").read_text())
    assert doc["branch_tag"] == "negative"
    assert doc["closed_form_residual"] < 1e-8


def test_cli_fueter_laurent_file(tmp_path, capsys):
    src = tmp_path / "data.json"
    src.write_text(json.dumps({"terms": [{"n": 2, "re": "3/1"}, {"n": -1, "re": "1/1"}]}))
    rc = main(["fueter", "--m", "3", "--power", "2", "--laurent", str(src),
               "--order", "24", "--out", str(tmp_path / "out.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["laurent_image"]["m"] == 3
    # restriction of the image is gamma * f0'' = -2 * (6 + 2 x0^-3)
    coeff0 = doc["laurent_image"]["coeffs"][0]["terms"]
    by_n = {t["n"]: t["re"] for t in coeff0}
    assert by_n[0] == "-12/1"
    assert by_n[-3] == "-4/1"


def test_cli_radon_check(tmp_path, capsys):
    rc = main(["radon-check", "--m", "3", "--degree", "4", "--rule", "exact",
               "--out", str(tmp_path / "r.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    # an exact row compared over Q: its residual counts the failed equalities
    assert all(c["residual"] == 0.0 if c.get("exact") else c["residual"] < 1e-6
               for c in doc["cases"])
    assert sum(bool(c.get("exact")) for c in doc["cases"]) == 5
    assert doc["tol"] == 1e-6 and doc["tol_default"] is True
    rc = main(["radon-check", "--m", "2", "--degree", "3", "--rule", "mc:20000:5",
               "--tol", "0.005", "--out", str(tmp_path / "rmc.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "rmc.json").read_text())
    assert doc["tol"] == 0.005 and doc["tol_default"] is False
    # a given tolerance is recorded as given even when it equals the default
    main(["radon-check", "--m", "2", "--degree", "1", "--tol", "1e-6",
          "--out", str(tmp_path / "r6.json")])
    doc = json.loads((tmp_path / "r6.json").read_text())
    assert doc["tol"] == 1e-6 and doc["tol_default"] is False


def test_cli_radon_check_judges_monte_carlo_by_its_spread(tmp_path, monkeypatch):
    # the README example: its residuals are far above the 1e-6 product-rule
    # tolerance but within five of their standard errors
    out = tmp_path / "rmc.json"
    rc = main(["radon-check", "--m", "2", "--degree", "3", "--rule", "mc:200000:7",
               "--out", str(out)])
    assert rc == 0
    cases = json.loads(out.read_text())["cases"]
    assert any(c["stderr"] > 0 and c["residual"] > 1e-6 for c in cases)
    assert not any(c["exact"] for c in cases)
    assert all(c["residual"] <= 5 * c["stderr"] or c["residual"] < 1e-6 for c in cases)
    # a residual forced to k standard errors passes at k = 4 and fails at 6
    from monogenics import cli, radon

    for k, want in ((4, 0), (6, 1)):
        def forced(f0, m, rule, k=k):
            rep = radon.plane_wave_gck_check(f0, m, rule)
            return dataclasses.replace(rep, residual=k * rep.stderr) if rep.stderr else rep

        monkeypatch.setattr(cli, "plane_wave_gck_check", forced)
        assert main(["radon-check", "--m", "2", "--degree", "3", "--rule", "mc:2000:7",
                     "--out", str(tmp_path / f"forced{k}.json")]) == want, k


@pytest.mark.parametrize("rule", [
    "mc:1:1", "mc:0:1", "mc:5000001:1", "mc:x:1", "mc:10", "mc:10:1:2", "mc:-5:1",
    "mc:10:-1", "gauss:", "gauss:x", "gauss:0", "gauss:-3", "gauss:4:1", "nonsense",
])
def test_cli_radon_check_rejects_bad_rules(tmp_path, capsys, rule):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["radon-check", "--m", "2", "--degree", "1", "--rule", rule, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("monogenics: error:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["cst-check", "--m", "2", "--which", "unitarity", "--family", "hermite:x"],
    ["cst-check", "--m", "2", "--which", "unitarity", "--family", "legendre:2"],
    ["cst-check", "--m", "2", "--which", "unitarity", "--family", "hermite:0"],
    ["cst-check", "--m", "2", "--which", "ua-routes", "--family", "hermite:9"],
    ["cst-check", "--m", "0", "--which", "unitarity", "--family", "hermite:1"],
    ["cst-check", "--m", "7", "--which", "unitarity", "--family", "hermite:1"],
    ["radon-check", "--m", "0"],
    ["radon-check", "--m", "7", "--degree", "0", "--rule", "mc:2:1"],
    ["radon-check", "--m", "2", "--degree", "-1"],
    ["radon-check", "--m", "2", "--degree", "11"],
])
def test_cli_checks_reject_bad_input(tmp_path, capsys, argv):
    # each argv stays cheap even if it were accepted: no large rule is built
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("monogenics: error:")
    assert not out.exists()


def test_cli_radon_check_accepts_the_sample_bounds(tmp_path, monkeypatch):
    # the smallest sample count runs and writes valid JSON
    out = tmp_path / "r.json"
    main(["radon-check", "--m", "2", "--degree", "1", "--rule", "mc:2:1", "--out", str(out)])
    doc = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert all(math.isfinite(c["stderr"]) for c in doc["cases"])
    # the largest is accepted without drawing five million samples here
    from monogenics import cli, sphere

    made = []
    monkeypatch.setattr(sphere, "MonteCarloRule", lambda m, n, seed: made.append((m, n, seed)))
    cli._parse_rule("mc:5000000:3", 2)
    assert made == [(2, 5_000_000, 3)]


def test_cli_cst_check(tmp_path, capsys):
    rc = main(["cst-check", "--m", "2", "--which", "unitarity", "--family", "hermite:2",
               "--tol", "1e-5", "--out", str(tmp_path / "c.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "c.json").read_text())
    assert doc["tol"] == 1e-5 and doc["tol_default"] is False
    rc = main(["cst-check", "--m", "2", "--which", "ua-routes", "--family", "hermite:2",
               "--tol", "1e-7", "--out", str(tmp_path / "c2.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "c2.json").read_text())
    assert doc["tol"] == 1e-7 and doc["tol_default"] is False
    rc = main(["cst-check", "--m", "2", "--which", "ua-routes", "--family", "hermite:2",
               "--out", str(tmp_path / "c3.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "c3.json").read_text())
    assert doc["tol"] == 1e-7 and doc["tol_default"] is True


def test_cli_export_writes_golden_equivalent(tmp_path):
    out = tmp_path / "q.json"
    rc = main(["export", "--kind", "Qpoly", "--m", "3", "--k", "2", "--out", str(out)])
    assert rc == 0
    assert out.read_text(encoding="utf-8") == (GOLDEN / "qpoly_m3_k2.json").read_text(encoding="utf-8")


def test_registry_covered_by_all_suite():
    report = run_suite("all", {"count": 200, "mc_samples": 20000})
    assert report.passed
    covered = report.covered_ops() | {"run_suite"}
    for module, ops in OP_REGISTRY.items():
        for op in ops:
            assert op in covered, f"{module}.{op} not exercised"


def test_coverage_counts_only_cases_that_compared_something():
    # at m = 1 the loops of radon_bridge and plane_wave_exact start at m = 2,
    # so dual_radon is never called although both cases name it
    report = run_suite("all", {"m": 1, "count": 20, "mc_samples": 2000})
    coverage = {c.case_id: c for c in report.cases}["coverage"]
    assert not coverage.passed and "dual_radon" in coverage.params["missing"]
    assert "dual_radon" not in report.covered_ops()


def test_cli_verify_timing_only_adds_a_timing_map(tmp_path):
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    assert main(["verify", "monomials", "--out", str(plain)]) == 0
    assert main(["verify", "monomials", "--timing", "--out", str(timed)]) == 0
    doc, doc_timed = json.loads(plain.read_text()), json.loads(timed.read_text())
    timing = doc_timed.pop("timing_ms")
    assert doc_timed == doc
    assert sorted(timing) == sorted(c["id"] for c in doc["cases"])
    assert all(isinstance(ms, float) and ms >= 0.0 for ms in timing.values())


def test_registry_names_public_functions():
    import monogenics

    for module, ops in OP_REGISTRY.items():
        for op in ops:
            assert callable(getattr(monogenics, op, None)), f"{module}.{op} is not a function"


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_cli_rejects_out_of_bounds_params(monkeypatch):
    # the work is replaced, so a bound let through fails fast instead of running
    from monogenics import cli

    monkeypatch.setattr(cli, "export_payload", _reach)
    monkeypatch.setattr(cli, "run_suite", _reach)
    for argv in (["verify", "algebra", "--m", "9"],
                 ["verify", "gck", "--max-degree", "40"],
                 ["verify", "radon", "--mc-samples", "100000000"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_cli_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def _assert_usage_error(capsys, argv, out):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("monogenics: error:")
    assert not out.exists()
    return err


@pytest.mark.parametrize("argv", [
    ["export", "--kind", "cauchyE", "--m", "0"],
    ["export", "--kind", "cauchyE", "--m", "7"],
    ["export", "--kind", "cauchyE", "--m", "2", "--k", "-1"],
    ["export", "--kind", "cauchyE", "--m", "2", "--k", "25"],
    ["export", "--kind", "cauchyE", "--m", "2", "--power", "-21"],
    ["export", "--kind", "cauchyE", "--m", "2", "--power", "21"],
    ["fueter", "--m", "0", "--power", "1"],
    ["fueter", "--m", "7", "--power", "1"],
    ["fueter", "--m", "1", "--power", "-21"],
    ["fueter", "--m", "1", "--power", "21"],
    ["fueter", "--m", "2", "--power", "2", "--order", "-1"],
    ["fueter", "--m", "2", "--power", "2", "--order", "401"],
    ["verify", "monomials", "--count", "0"],
    ["verify", "monomials", "--count", "20001"],
    ["verify", "monomials", "--mc-samples", "1"],
    ["verify", "algebra", "--m", "0"],
    ["verify", "algebra", "--seed", "-1"],
    ["verify", "radon", "--seed", "-50"],
])
def test_cli_bounds_reject_out_of_range_integers(tmp_path, capsys, argv):
    # each argv stays cheap even if it were accepted: the rejected value is
    # ignored by the kind or suite it names, or the object is small
    _assert_usage_error(capsys, argv, tmp_path / "out.json")


class _Reached(Exception):
    pass


def _reach(*args, **kwargs):
    raise _Reached(args, kwargs)


@pytest.mark.parametrize("argv", [
    ["export", "--kind", "Qpoly", "--m", "6", "--k", "24"],
    ["export", "--kind", "monomialP", "--m", "6", "--power", "20"],
    ["export", "--kind", "fueter_power", "--m", "1", "--power", "-20"],
    # the --laurent file is never read: the work is replaced before it
    ["fueter", "--m", "6", "--power", "20", "--order", "400", "--laurent", "terms.json"],
    ["fueter", "--m", "6", "--power", "-20", "--order", "0", "--laurent", "terms.json"],
    ["verify", "algebra", "--m", "6", "--count", "20000", "--mc-samples", "2"],
    ["verify", "radon", "--seed", "0"],
    ["verify", "radon", "--seed", "999999999999999999"],
])
def test_cli_bounds_accept_their_largest_values(tmp_path, monkeypatch, argv):
    # the work itself is replaced, so only the bounds are exercised here
    from monogenics import cli

    monkeypatch.setattr(cli, "export_payload", _reach)
    monkeypatch.setattr(cli, "run_suite", _reach)
    with pytest.raises(_Reached):
        main([*argv, "--out", str(tmp_path / "out.json")])


# one valid argv per verb that stays cheap whatever one more flag does
_VERB_ARGV = {
    "verify": ["verify", "monomials"],
    "export": ["export", "--kind", "cauchyE", "--m", "2"],
    "fueter": ["fueter", "--m", "2", "--power", "1"],
    "radon-check": ["radon-check", "--m", "2", "--degree", "1", "--rule", "mc:2:1"],
    "cst-check": ["cst-check", "--m", "2", "--which", "unitarity", "--family", "hermite:1"],
}
# flags whose integer sits inside a string, and how it is written there
_SPELLED = {"--family": ("hermite:K", "hermite:{}")}


def _out_of_range_cases():
    """lo - 1 and hi + 1 for every flag of every verb that cli.BOUNDS bounds."""
    import argparse

    from monogenics import cli

    verbs = next(a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    cases, keys = [], {"--laurent n"}   # read from the --laurent file, tested there
    for verb, parser in verbs.items():
        for action in parser._actions:
            for flag in action.option_strings:
                key, spelling = _SPELLED.get(flag, (flag, "{}"))
                if key not in cli.BOUNDS:
                    continue
                keys.add(key)
                lo, hi = cli.BOUNDS[key]
                cases += [pytest.param([*_VERB_ARGV[verb], flag, spelling.format(v)], key,
                                       id=f"{verb} {flag} {spelling.format(v)}")
                          for v in (lo - 1, hi + 1)]
    assert keys == set(cli.BOUNDS), "a bound that no flag reads"
    return cases


@pytest.mark.parametrize("argv, key", _out_of_range_cases())
def test_cli_bounds_reject_every_flag_one_step_outside(tmp_path, capsys, monkeypatch, argv, key):
    # the work is replaced, so a value let through fails fast instead of running
    from monogenics import cli

    monkeypatch.setattr(cli, "export_payload", _reach)
    monkeypatch.setattr(cli, "run_suite", _reach)
    err = _assert_usage_error(capsys, argv, tmp_path / "out.json")
    assert f"{key} must stay within" in err


@pytest.mark.parametrize("argv", [
    ["fueter", "--m", "3", "--power", "-2", "--order", "0"],
    ["fueter", "--m", "3", "--power", "-2", "--order", "5"],
    ["fueter", "--m", "6", "--power", "20", "--order", "400"],
])
def test_cli_fueter_refuses_order_without_laurent(tmp_path, capsys, argv):
    # --order truncates the --laurent image; alone it used to be dropped unread
    err = _assert_usage_error(capsys, argv, tmp_path / "out.json")
    assert "--order" in err and "--laurent" in err


def _record_suites(monkeypatch) -> dict:
    """Substitute every suite function by one that records its keywords and
    returns an empty report carrying them as its params."""
    from monogenics import suites

    calls = {}
    for name in suites.SUITES:
        def record(name=name, **kwargs):
            calls[name] = kwargs
            return suites.VerificationReport(name, kwargs, [])
        monkeypatch.setattr(suites, f"suite_{name}", record)
    return calls


@pytest.mark.parametrize("suite", ["algebra", "gck", "fueter", "monomials", "radon", "cst"])
def test_verify_defaults_come_from_the_suite_table(tmp_path, monkeypatch, suite):
    from monogenics import suites

    table = suites.SUITES[suite]
    calls = _record_suites(monkeypatch)
    omitted, explicit = tmp_path / "omitted.json", tmp_path / "explicit.json"
    main(["verify", suite, "--out", str(omitted)])
    assert calls.pop(suite) == {keyword: default for keyword, default, _ in table.values()}
    flags = [arg for key, (_, default, _) in table.items()
             for arg in (f"--{key.replace('_', '-')}", str(default))]
    main(["verify", suite, *flags, "--out", str(explicit)])
    assert omitted.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("suite", ["algebra", "gck", "fueter", "monomials", "radon", "cst"])
def test_suite_functions_take_the_table_keywords_without_defaults(suite):
    import inspect

    from monogenics import suites

    params = inspect.signature(getattr(suites, f"suite_{suite}")).parameters
    assert list(params) == [keyword for keyword, _, _ in suites.SUITES[suite].values()]
    assert all(p.default is inspect.Parameter.empty for p in params.values())


def test_verify_all_holds_each_suite_to_its_cap(monkeypatch):
    calls = _record_suites(monkeypatch)
    run_suite("all", {"m": 6, "max_degree": 10})
    assert calls == {
        "algebra": {"m_max": 6, "count": 2000, "seed": 42},
        "gck": {"m_max": 5, "degree": 10},
        "fueter": {"m_max": 6, "degree": 10, "seed": 42},
        "monomials": {"m_max": 5},
        "radon": {"m_max": 4, "degree": 6, "mc_n": 200_000, "seed": 42},
        "cst": {},
    }


# the last three are finite and positive but let any residual pass
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-3", "-0.0",
                                 "1e300", "0.05", "0.010000001"])
@pytest.mark.parametrize("argv", [
    ["radon-check", "--m", "2", "--degree", "1"],
    ["cst-check", "--m", "2", "--which", "unitarity", "--family", "hermite:1"],
])
def test_cli_checks_refuse_meaningless_tolerances(tmp_path, capsys, argv, tol):
    _assert_usage_error(capsys, [*argv, f"--tol={tol}"], tmp_path / "out.json")


@pytest.mark.parametrize("argv", [
    ["radon-check", "--m", "2", "--degree", "1"],
    ["cst-check", "--m", "2", "--which", "unitarity", "--family", "hermite:1"],
])
def test_cli_checks_accept_tolerances_up_to_1e_2(tmp_path, argv):
    out = tmp_path / "loose.json"
    assert main([*argv, "--tol", "1e-2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tol"] == 1e-2 and doc["tol_default"] is False


def test_cli_gauss_rule_size_is_capped_before_building(tmp_path, capsys, monkeypatch):
    from monogenics import cli, sphere

    made = []
    monkeypatch.setattr(sphere, "ProductGaussRule", lambda m, level: made.append((m, level)))
    # 2 * 100^5 = 2e10 nodes at m = 6 and 2e12 at m = 2, terabytes if built
    for m, rule in ((6, "gauss:100"), (2, "gauss:999999999999"), (3, "gauss:708"),
                    (6, "gauss:14")):
        _assert_usage_error(capsys, ["radon-check", "--m", str(m), "--rule", rule],
                            tmp_path / "r.json")
    assert made == []
    # the largest levels within the cap of 10^6 nodes are accepted
    for m, level in ((2, 500_000), (3, 707), (6, 13)):
        cli._parse_rule(f"gauss:{level}", m)
    assert made == [(2, 500_000), (3, 707), (6, 13)]


def test_cli_builtin_gauss_rules_are_capped_before_building(tmp_path, capsys, monkeypatch):
    # the level-24 rule of the Cauchy case and of the CST routes has
    # 48 * 24^4 = 15,925,248 nodes at m = 6, gigabytes if built
    from monogenics import cli, sphere

    made = []
    monkeypatch.setattr(sphere, "ProductGaussRule", lambda m, level: made.append((m, level)))
    for argv in (["radon-check", "--m", "6", "--rule", "exact"],
                 ["cst-check", "--m", "6", "--which", "fueter-routes", "--family", "hermite:1"],
                 ["cst-check", "--m", "6", "--which", "ua-routes", "--family", "hermite:1"]):
        _assert_usage_error(capsys, argv, tmp_path / "out.json")
    assert made == []
    # at m = 5 the same rule has 663,552 nodes and is built
    cli._gauss_rule(5, 24)
    assert made == [(5, 24)]


def test_cli_fueter_laurent_honours_imaginary_parts(tmp_path, capsys):
    from monogenics.fueter import fueter_on_laurent
    from monogenics.laurent import LaurentPoly

    src = tmp_path / "data.json"
    src.write_text(json.dumps({"terms": [{"n": 3, "re": "1/2", "im": "-2/3"},
                                         {"n": -1, "im": "1"}, {"n": 0, "re": "5"}]}))
    rc = main(["fueter", "--m", "4", "--power", "2", "--laurent", str(src),
               "--order", "12", "--out", str(tmp_path / "out.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    i = PiScalar.imaginary(1)
    data = LaurentPoly({3: Fraction(1, 2) - Fraction(2, 3) * i, -1: i, 0: Fraction(5)})
    image = fueter_on_laurent(4, data, order=12)
    assert doc["laurent_image"] == ser.series_json(image)
    # linearity: the image of re + i im is image(re) + i image(im)
    re_part = fueter_on_laurent(4, LaurentPoly({3: Fraction(1, 2), 0: Fraction(5)}), order=12)
    im_part = fueter_on_laurent(4, LaurentPoly({3: Fraction(-2, 3), -1: Fraction(1)}), order=12)
    assert image == re_part + im_part.scale(i)


@pytest.mark.parametrize("content", [
    '{"term": []}',
    '{"terms": {"n": 2, "re": "1"}}',
    '[{"n": 2, "re": "1"}]',
    '{"terms": [{"n": 2, "re": "x"}]}',
    '{"terms": [{"n": 2, "re": "3/0"}]}',
    '{"terms": [{"n": 2, "re": "%s"}]}' % ("9" * 5000),
    '{"terms": [{"n": 2, "im": "1/-2"}]}',
    '{"terms": [{"n": 2, "re": 3}]}',
    '{"terms": [{"n": "2", "re": "1"}]}',
    '{"terms": [{"n": 2.5, "re": "1"}]}',
    '{"terms": [{"n": true, "re": "1"}]}',
    '{"terms": [{"n": 2}]}',
    '{"terms": [{"re": "1"}]}',
    '{"terms": [{"n": 2, "re": "1", "pi": 1}]}',
    '{"terms": [{"n": 2, "re": "1"}, {"n": 2, "im": "1"}]}',
    '{"terms": [{"n": 21, "re": "1"}]}',
    '{"terms": [',
    "",
])
def test_cli_fueter_rejects_malformed_laurent_files(tmp_path, capsys, content):
    src = tmp_path / "data.json"
    src.write_text(content)
    _assert_usage_error(capsys, ["fueter", "--m", "3", "--power", "2", "--laurent", str(src)],
                        tmp_path / "out.json")


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--m", "x"],
    ["verify", "algebra", "--count", "1.5"],
    ["verify", "bogus"],
    ["export", "--kind", "bogus", "--m", "2"],
    ["export", "--kind", "Qpoly"],
    ["radon-check", "--degree", "1"],
    ["cst-check", "--m", "2"],
    ["fueter", "--m", "2", "--power", "1", "--unknown"],
    [],
])
def test_cli_parser_errors_are_one_line(tmp_path, capsys, argv):
    # argparse's own refusals: a bad type or choice, a missing or unknown flag
    _assert_usage_error(capsys, argv, tmp_path / "out.json")


@pytest.mark.parametrize("m, order", [(3, 0), (2, 1), (1, 2)])
def test_cli_fueter_refuses_an_order_below_the_data_degree(tmp_path, capsys, m, order):
    # the map extends d^(m-1) of x^3, of degree 4 - m, which needs that order
    src = tmp_path / "data.json"
    src.write_text(json.dumps({"terms": [{"n": 3, "re": "1"}, {"n": 0, "im": "2"}]}))
    _assert_usage_error(capsys, ["fueter", "--m", str(m), "--power", "2", "--laurent", str(src),
                                 "--order", str(order)], tmp_path / "out.json")
    out = tmp_path / "ok.json"
    assert main(["fueter", "--m", str(m), "--power", "2", "--laurent", str(src),
                 "--order", str(order + 1), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["laurent_image"]


def test_cli_fueter_rejects_a_missing_laurent_file(tmp_path, capsys):
    _assert_usage_error(capsys, ["fueter", "--m", "3", "--power", "2", "--laurent",
                                 str(tmp_path / "absent.json")], tmp_path / "out.json")
