"""Tests of the benchmark itself: the tracer, the workloads and the contract.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import monogenics
import run
import workloads
from tracer import LAYERS, Tracer

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent

REPEATED_COUNTS = ("sphere.moment_calls", "clifford.products", "scalars.pi_ops",
                   "radon.node_evals")


def _bindings() -> dict:
    """Every attribute of the package, its layer modules and their classes."""
    import importlib

    out = {}
    holders = [monogenics] + [importlib.import_module(f"monogenics.{n}") for n in LAYERS]
    for holder in holders:
        for name, value in vars(holder).items():
            out[(holder.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("monogenics"):
                for attr, member in vars(value).items():
                    out[(value.__qualname__, attr)] = member
    return out


def test_tracer_sees_dual_radon_through_plane_wave_gck_check():
    f0 = monogenics.LaurentPoly({3: Fraction(2), 1: Fraction(-1)})
    with Tracer() as tracer:
        rep = monogenics.plane_wave_gck_check(f0, 3, monogenics.ExactMonomialRule(3))
    assert rep.exact
    assert tracer.stats["radon.plane_wave_gck_check"].calls == 1
    assert tracer.stats["radon.dual_radon"].calls == 1
    metrics = tracer.report()
    assert metrics["sphere.moment_calls"] > 0
    assert 0 < metrics["sphere.moment_nonzero_ratio"] < 1
    assert metrics["scalars.pi_ops"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"radon.plane_wave_gck_check", "extensions.gck_extension"} <= names
    # the dual Radon call stays inside the radon layer: no span, but counted
    assert "radon.dual_radon" not in names


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = Tracer().install()
    from monogenics import radon, suites
    assert suites.dual_radon is not before[("monogenics.suites", "dual_radon")]
    assert suites.dual_radon is radon.dual_radon is monogenics.dual_radon
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_exceptions_are_counted_once_per_layer():
    rule = monogenics.ExactMonomialRule(2)
    with Tracer() as tracer, pytest.raises(ValueError):
        rule.integrate_monomial((1,))  # leaves two wrapped sphere frames
    assert tracer.stats["sphere.monomial_sphere_integral"].raised == 1
    assert tracer.report()["sphere.raised"] == 1


def test_wrapping_changes_no_verdict_and_no_canonical_bytes(tmp_path):
    from monogenics import cli

    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.main(["verify", "all", "--seed", "7", "--out", str(plain)]) == 0
    with Tracer() as tracer:
        assert cli.main(["verify", "all", "--seed", "7", "--out", str(traced)]) == 0
    assert plain.read_bytes() == traced.read_bytes()
    metrics = tracer.report()
    assert all(tracer.stats[f"suites.suite_{s}"].calls == 1
               for s in ("algebra", "gck", "fueter", "monomials", "radon", "cst"))
    assert metrics["suites.monomials_s"] > 0
    assert metrics["serialize.bytes"] == len(traced.read_bytes())
    assert metrics["cli.calls"] >= 1


_COUNT_SCRIPT = """
import json, sys
from tracer import Tracer
import workloads
keep = ("bridge.m4.d", "appell.m5.k", "plane_wave.", "cauchy.", "cli.")
items = [it for w in ("exact_bridge", "numeric_routes") for it in workloads.build(w, 5)
         if it.id.startswith(keep) and not it.id.endswith(("d7", "d8", "k8"))]
tracer = Tracer().install()
verdicts = {it.id: all(ok for _, ok in it.run()) for it in items}
tracer.uninstall()
print(json.dumps({"verdicts": verdicts, "layers": tracer.report()}))
"""


def test_counts_repeat_exactly_across_traced_processes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(ROOT / "src")]),
               PYTHONHASHSEED="0")
    runs = [json.loads(subprocess.run([sys.executable, "-c", _COUNT_SCRIPT], env=env,
                                      check=True, capture_output=True, text=True,
                                      timeout=300).stdout.splitlines()[-1])
            for _ in range(2)]
    assert all(runs[0]["verdicts"].values())
    first, second = (r["layers"] for r in runs)
    for name in REPEATED_COUNTS:
        assert first[name] > 0, name
        assert first[name] == second[name], name
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_exactness_gate_rejects_floats():
    p = monogenics.appell_Q(3, 2)
    assert workloads.is_exact_poly(monogenics, p)
    assert not workloads.is_exact_poly(monogenics, p.map_coeffs(lambda c: c.to_numeric()))


def test_command_line_item_writes_the_same_report_each_run():
    item = next(it for it in workloads.build("exact_bridge", 3) if it.id.startswith("cli."))
    first = item.run()
    report = item.output()
    assert first and all(ok for _, ok in first)
    assert json.loads(report)["pass"] is True
    assert item.run() == first
    assert item.output() == report


def test_item_lengths_in_kernels_ignore_a_uniform_slowdown():
    import calibrate

    item_ms = [5.0, 40.0, 300.0, 2.0, 90.0]
    kernel_ms = [1.2, 1.3, 1.25, 1.4, 1.2]
    fast = calibrate.in_kernels(item_ms, kernel_ms)
    slow = calibrate.in_kernels([1.4 * t for t in item_ms], [1.4 * k for k in kernel_ms])
    assert slow == pytest.approx(fast, rel=1e-12)
    # a slower library on an unchanged machine is longer by the same factor
    assert calibrate.in_kernels([2 * t for t in item_ms], kernel_ms) == pytest.approx(
        [2 * k for k in fast], rel=1e-12)
    assert calibrate.gauge_ms() > 0


def test_every_seed_builds_the_same_items():
    for workload in ("exact_bridge", "numeric_routes"):
        ids = [it.id for it in workloads.build(workload, 1)]
        assert ids == [it.id for it in workloads.build(workload, 2)]
        assert len(set(ids)) == len(ids)


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "exact_bridge",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
