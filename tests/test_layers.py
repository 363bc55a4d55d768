"""The split between the exact core and the numeric layer: exact verbs load
no numpy, the numeric layer loads whole on the first use of one of its
names, the package exports the same names as before the split, Gauss-rule
reports do not depend on the BLAS thread count, and the canonical JSON
emitter writes the bytes of ``json.dumps(..., sort_keys=True, indent=2)``."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import monogenics
from monogenics import serialize as ser
from monogenics.cli import main

NUMERIC_MODULES = ("monogenics.sphere", "monogenics.gausspoly", "monogenics.cst")

# every name the package exported before the numeric layer loaded lazily
EXPORTED = {
    "AxialClosedForm", "AxialSeries", "CliffordElement", "CliffordPolynomial", "CoreConstants",
    "DomainError", "ExactMonomialRule", "FueterResult", "GaussPoly", "IntrinsicPair",
    "LaurentPoly", "MonteCarloRule", "NodeRule", "OP_REGISTRY", "OperatorTag", "Paravector",
    "PiScalar", "ProductGaussRule", "Radical", "RhoExpr", "SliceFunction", "SliceValue",
    "TruncationError", "appell_Q", "appell_sum", "apply_operator", "axial", "axial_cst",
    "axial_cst_radon_route", "cauchy_kernel", "cauchy_plane_wave_check", "classical_cst",
    "clifford", "clifford_conjugate", "constants", "cst", "dual_radon", "export_payload",
    "extensions", "fueter", "fueter_cst", "fueter_cst_routes", "fueter_on_laurent",
    "fueter_on_power", "funk_hecke_constants", "gausspoly", "gck_bessel_form", "gck_extension",
    "geometric_product", "heat_semigroup", "hermite_function", "hermitian_conjugate",
    "intrinsic_split", "is_monogenic", "kelvin_inversion", "kernels", "laplacian_power_route",
    "laurent", "monogenic_monomial", "monomial_plane_wave_check", "monomial_sphere_integral",
    "paravector_power", "plane_wave_gck_check", "poly", "radial_route_components", "radon",
    "run_suite", "scalars", "slice_cst", "slice_cst_fourier", "slice_extension", "sphere",
    "sphere_area", "suites", "unitarity_check", "unitarity_gram", "verify_monomial_identities",
}


def _fresh(code: str, env: dict | None = None) -> str:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env, timeout=300)
    return out.stdout


def test_exact_verbs_load_no_numpy(tmp_path):
    code = f"""
import sys
import monogenics
from monogenics import cli
out = {str(tmp_path)!r}
for suite in ("algebra", "gck", "fueter", "monomials"):
    assert cli.main(["verify", suite, "--out", f"{{out}}/{{suite}}.json"]) == 0
assert cli.main(["export", "--kind", "Qpoly", "--m", "4", "--k", "6", "--out", f"{{out}}/q.json"]) == 0
print(sorted(k for k in sys.modules
             if k.split(".")[0] == "numpy" or k in {NUMERIC_MODULES!r}))
"""
    assert _fresh(code).splitlines()[-1] == "[]"   # after the suites' tables


@pytest.mark.parametrize("name", ["NodeRule", "GaussPoly", "unitarity_gram", "sphere"])
def test_one_numeric_name_loads_the_whole_layer(name):
    code = f"""
import sys
import monogenics
getattr(monogenics, {name!r})
numeric = set(monogenics.__all__) - set(monogenics.__dict__)
loaded = [k for k in {NUMERIC_MODULES + ("numpy.polynomial.legendre",)!r} if k in sys.modules]
print(sorted(numeric), len(loaded))
"""
    assert _fresh(code).split() == ["[]", "4"]


def test_package_exports_the_same_names():
    assert set(monogenics.__all__) == EXPORTED
    assert EXPORTED <= set(dir(monogenics))
    namespace: dict = {}
    exec("from monogenics import *", namespace)
    assert EXPORTED <= namespace.keys()
    assert namespace["ProductGaussRule"] is monogenics.sphere.ProductGaussRule
    assert namespace["constants"] is monogenics.constants   # the function, not its module
    with pytest.raises(AttributeError):
        monogenics.no_such_name


@pytest.mark.parametrize("argv", [
    ["radon-check", "--m", "4", "--degree", "6", "--rule", "gauss:24"],
    ["cst-check", "--m", "4", "--which", "fueter-routes", "--family", "hermite:4"],
])
def test_gauss_reports_do_not_depend_on_blas_threads(tmp_path, argv):
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}.json"
        _fresh(f"from monogenics.cli import main; main({argv + ['--out', str(out)]!r})", env)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def _json_reference(payload: dict) -> str:
    return json.dumps({"schema": ser.SCHEMA_VERSION, **payload}, sort_keys=True, indent=2) + "\n"


CLI_RUNS = [
    ["verify", "algebra", "--m", "2", "--count", "5"],
    ["verify", "gck", "--m", "2", "--max-degree", "2", "--timing"],
    ["verify", "fueter", "--m", "3", "--max-degree", "2"],
    ["verify", "monomials", "--m", "2"],
    ["verify", "radon", "--m", "2", "--max-degree", "2", "--mc-samples", "1000"],
    ["verify", "radon", "--m", "1"],
    ["verify", "cst"],
    ["export", "--kind", "Qpoly", "--m", "3", "--k", "3"],
    ["export", "--kind", "monomialP", "--m", "3", "--power", "2"],
    ["export", "--kind", "monomialP", "--m", "4", "--power", "-2"],
    ["export", "--kind", "cauchyE", "--m", "2"],
    ["export", "--kind", "fueter_power", "--m", "3", "--power", "-1"],
    ["fueter", "--m", "3", "--power", "4"],
    ["radon-check", "--m", "2", "--degree", "3", "--rule", "exact"],
    ["radon-check", "--m", "3", "--degree", "2", "--rule", "gauss:8"],
    ["radon-check", "--m", "2", "--degree", "2", "--rule", "mc:1000:1"],
    ["cst-check", "--m", "2", "--which", "unitarity", "--family", "hermite:2"],
    ["cst-check", "--m", "2", "--which", "ua-routes", "--family", "hermite:2"],
]


@pytest.mark.parametrize("argv", CLI_RUNS, ids=lambda a: "-".join(a[:2] + a[-1:]))
def test_emitter_writes_the_json_bytes_of_every_cli_payload(tmp_path, monkeypatch, argv):
    dumps, seen = ser.dumps, []

    def checked(payload):
        text = dumps(payload)
        seen.append(text == _json_reference(payload))
        return text

    monkeypatch.setattr(ser, "dumps", checked)
    main(argv + ["--out", str(tmp_path / "out.json")])
    assert seen and all(seen)


json_leaves = (st.none() | st.booleans() | st.integers() | st.text()
               | st.floats(allow_nan=True, allow_infinity=True))
json_values = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), json_values, max_size=5))
def test_emitter_writes_the_json_bytes_of_generated_payloads(payload):
    assert ser.dumps(payload) == _json_reference(payload)
