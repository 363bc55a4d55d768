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
])
def test_golden_exports(name, args):
    kind, m, kw = args
    got = ser.dumps(export_payload(kind, m, **kw))
    assert got == (GOLDEN / name).read_text(encoding="utf-8")


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


def test_cli_report_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "fueter", "--seed", "9", "--out", str(out1)]) == 0
    assert main(["verify", "fueter", "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
    rc = main(["fueter", "--m", "3", "--power", "-1", "--order", "40",
               "--out", str(tmp_path / "fn.json")])
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
    assert all(c.get("exact", False) or c["residual"] < 1e-6 for c in doc["cases"])
    rc = main(["radon-check", "--m", "2", "--degree", "3", "--rule", "mc:20000:5",
               "--tol", "0.05", "--out", str(tmp_path / "rmc.json")])
    assert rc == 0


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


def test_cli_radon_check_accepts_the_sample_bounds(tmp_path, monkeypatch):
    # the smallest sample count runs and writes valid JSON
    out = tmp_path / "r.json"
    main(["radon-check", "--m", "2", "--degree", "1", "--rule", "mc:2:1", "--out", str(out)])
    doc = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert all(math.isfinite(c["stderr"]) for c in doc["cases"])
    # the largest is accepted without drawing five million samples here
    from monogenics import cli

    made = []
    monkeypatch.setattr(cli, "MonteCarloRule", lambda m, n, seed: made.append((m, n, seed)))
    cli._parse_rule("mc:5000000:3", 2)
    assert made == [(2, 5_000_000, 3)]


def test_cli_cst_check(tmp_path, capsys):
    rc = main(["cst-check", "--m", "2", "--which", "unitarity", "--family", "hermite:2",
               "--tol", "1e-5", "--out", str(tmp_path / "c.json")])
    assert rc == 0
    rc = main(["cst-check", "--m", "2", "--which", "ua-routes", "--family", "hermite:2",
               "--tol", "1e-7", "--out", str(tmp_path / "c2.json")])
    assert rc == 0


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


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_cli_rejects_out_of_bounds_params():
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
