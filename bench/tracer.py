"""Outside-in tracer for the monogenics layers.

A layer is one module of the package.  ``Tracer.install()`` replaces every
public function of each layer, in every module that holds a binding of it
(the copies ``from .x import y`` leaves behind included), and the public and
arithmetic methods of each layer's classes, on the class.  Each wrapper keeps
aggregate counts, self time and exceptions raised per callable.  A call that
enters a layer from outside it through a module-level function also records
a span; the hot kernels (scalar and blade arithmetic, methods) keep only the
aggregates.  Everything stays in memory until ``report()``/``dump()``, and
``uninstall()`` puts every original binding back.

The library never imports this module: tracing works only from outside.
"""

from __future__ import annotations

import enum
import functools
import importlib
import importlib.util
import inspect
import json
import time
from pathlib import Path

PACKAGE = "monogenics"
LAYERS = (
    "scalars", "clifford", "constants", "poly", "laurent", "extensions", "axial",
    "kernels", "fueter", "sphere", "radon", "gausspoly", "cst", "serialize",
    "suites", "cli",
)

# Layers whose functions run in inner loops: aggregates only, never spans.
KERNEL_LAYERS = frozenset({"scalars", "clifford"})

ARITH_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
})

PI_OPS = frozenset(
    {f"scalars.PiScalar.{n}" for n in ARITH_DUNDERS - {"__eq__"}} | {"scalars.PiScalar.inverse"}
)

# Constructors timed as sphere.rule_build_s: building a rule builds its nodes.
RULE_BUILDERS = ("ProductGaussRule", "MonteCarloRule")

# Suites with a time of their own (suites.<suite>_s): the one the workloads
# run through the command line.
SUITES = ("monomials",)

MAX_SPANS = 100_000


class _Stat:
    __slots__ = ("layer", "calls", "self_s", "incl_s", "raised")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.raised = 0


class Tracer:
    """Wrap the library's layers; gather counts, self times and spans."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[list] = []
        self.spans_dropped = 0
        self.item = None
        self._stack: list[list] = []
        self._open_span = -1
        self._last_raised: dict[str, BaseException] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.moment_nonzero = 0
        self.moment_keys: set = set()
        self.node_evals = {"radon": 0, "cst": 0}
        self.serialize_bytes = 0

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module(PACKAGE)
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in LAYERS if importlib.util.find_spec(f"{PACKAGE}.{name}")}
        holders = [pkg, *modules.values()]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    label = f"{layer}.{name}"
                    wrapped = self._wrap(obj, label, layer, layer not in KERNEL_LAYERS)
                    for holder in holders:
                        for bound_name, value in list(vars(holder).items()):
                            if value is obj:
                                self._set(holder, bound_name, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(obj, layer)
        return self

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            wanted = (not name.startswith("_") or name in ARITH_DUNDERS
                      or (name == "__init__" and cls.__name__ in RULE_BUILDERS))
            if not wanted:
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                fn = self._wrap(attr.__func__, label, layer, False)
                self._set(cls, name, type(attr)(fn))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, label, layer, False))

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        self._last_raised.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn, label: str, layer: str, spannable: bool):
        stat = self.stats.setdefault(label, _Stat(layer))
        observer = self._observer(label, fn)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            span = -1
            if spannable and (not stack or stack[-1][0] != layer):
                if len(spans) < MAX_SPANS:
                    span = len(spans)
                    prev_open = tracer._open_span
                    spans.append([label, layer, 0.0, 0.0, prev_open, tracer.item])
                    tracer._open_span = span
                else:
                    tracer.spans_dropped += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once per layer, where it first leaves it
                if tracer._last_raised.get(layer) is not exc:
                    tracer._last_raised[layer] = exc
                    stat.raised += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += dt - frame[1]
                stat.incl_s += dt
                if stack:
                    stack[-1][1] += dt
                if span >= 0:
                    rec = spans[span]
                    rec[2] = t0
                    rec[3] = t0 + dt
                    tracer._open_span = prev_open
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    # -- layer-specific counts --------------------------------------------------
    # Observers read arguments and results without calling wrapped code, so
    # they add nothing to the counts they sit beside.

    def _observer(self, label: str, fn):
        """The extra count kept for one callable, if any."""
        pick = _NODE_COUNTS.get(label)
        if pick is not None:
            sig = inspect.signature(fn)
            layer = label.split(".")[0]

            def count_nodes(args, kwargs, result):
                self.node_evals[layer] += pick(sig.bind(*args, **kwargs).arguments)
            return count_nodes
        if label == "sphere.monomial_sphere_integral":
            sig = inspect.signature(fn)

            def moment(args, kwargs, result):
                bound = args if len(args) == 2 else _bind(sig, args, kwargs, "m", "exps")
                self.moment_keys.add((bound[0], tuple(bound[1])))
                if result:
                    self.moment_nonzero += 1
            return moment
        if label == "serialize.dumps":
            def dumps(args, kwargs, result):
                self.serialize_bytes += len(result.encode("utf-8"))
            return dumps
        return None

    # -- output -------------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Per-layer metrics: counts, self times and the layer extras."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            rows = [s for s in self.stats.values() if s.layer == layer]
            out[f"{layer}.calls"] = sum(s.calls for s in rows)
            out[f"{layer}.self_s"] = sum(s.self_s for s in rows)
            out[f"{layer}.raised"] = sum(s.raised for s in rows)
        moments = self._stat("sphere.monomial_sphere_integral").calls
        out["scalars.pi_ops"] = sum(self._stat(label).calls for label in PI_OPS)
        out["sphere.moment_calls"] = moments
        out["sphere.moment_nonzero_ratio"] = self.moment_nonzero / moments if moments else 0.0
        out["sphere.moment_distinct_ratio"] = len(self.moment_keys) / moments if moments else 0.0
        out["sphere.rule_build_s"] = sum(self._stat(f"sphere.{c}.__init__").incl_s
                                         for c in RULE_BUILDERS)
        out["clifford.products"] = self._stat("clifford.geometric_product").calls
        out["radon.node_evals"] = self.node_evals["radon"]
        out["cst.node_evals"] = self.node_evals["cst"]
        out["serialize.bytes"] = self.serialize_bytes
        for suite in SUITES:
            out[f"suites.{suite}_s"] = self._stat(f"suites.suite_{suite}").incl_s
        return out

    def _stat(self, label: str) -> _Stat:
        return self.stats.get(label) or _Stat("")

    def dump(self, path: Path) -> None:
        """Write the spans and the per-callable aggregates as JSON."""
        doc = {
            "span_fields": ["name", "layer", "start", "end", "parent", "item"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "callables": {label: {"layer": s.layer, "calls": s.calls, "self_s": s.self_s,
                                  "incl_s": s.incl_s, "raised": s.raised}
                          for label, s in sorted(self.stats.items()) if s.calls},
            "layers": self.report(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


def _bind(sig, args, kwargs, *names) -> tuple:
    bound = sig.bind(*args, **kwargs).arguments
    return tuple(bound[n] for n in names)


def _rule_nodes(bound: dict) -> int:
    rule = bound.get("rule")
    return 0 if rule is None else len(rule.nodes)


def _monte_carlo_nodes(bound: dict) -> int:
    # Gauss nodes are counted in dual_radon_pointwise, which this calls
    rule = bound.get("rule")
    return len(rule.nodes) if type(rule).__name__ == "MonteCarloRule" else 0


def _gram_nodes(bound: dict) -> int:
    levels = bound.get("levels")
    if levels is None:
        levels = importlib.import_module(f"{PACKAGE}.cst").DEFAULT_QUAD_LEVELS
    return sum(nx * nr for nx, nr in levels)


# Quadrature nodes visited, read from the size of the rule passed in.
_NODE_COUNTS = {
    "radon.dual_radon_pointwise": _rule_nodes,
    "radon.cauchy_plane_wave_check": _rule_nodes,
    "radon.monomial_plane_wave_check": _rule_nodes,
    "radon.plane_wave_gck_check": _monte_carlo_nodes,
    "cst.axial_cst_radon_route": _rule_nodes,
    "cst.fueter_cst_routes": _rule_nodes,
    "cst.unitarity_check": _gram_nodes,
}
