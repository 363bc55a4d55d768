"""The monogenics benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {exact_bridge,numeric_routes}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  The library is taken from ``src`` of
that checkout, never from an installed copy; without it the script exits
with code 2 and prints no result.

A run is closed-loop and single-threaded: one process at a time, each a
fresh interpreter with the BLAS pools pinned to one thread, so no batch
sees a cache filled by another.

The whole run ends within ``S`` seconds: a batch starts only if it can end
before then, judged by the longest batch so far, and a run holds at least
``MIN_BATCHES`` batches.

- ``--trace 0``: whole batches of the workload run, each in a fresh
  process, and between the first ones five processes that only set up give
  ``setup_s`` (median).  Item times are measured in passes of the reference
  kernel (``calibrate.py``) timed around the item in the same process, so
  that the minutes-long slow spells of a shared host cancel out; each item
  counts with its median over the batches.  ``verdict_kernels`` is their
  sum, first check to verdict of one batch; ``item_p50_kernels`` and
  ``item_p90_kernels`` are taken over the items.  The same figures in
  seconds and ms are printed as lines, not as metrics.
- ``--trace 1``: one untraced batch, then traced batches.  Counts are those
  of the first traced batch, and every traced batch must repeat them
  exactly; times are the smallest over the traced batches.
  ``trace.overhead_ratio`` is traced over untraced verdict, in kernels.

Every identity check counts into ``attempted``/``failed``, and so does the
demand that a report an item writes repeats byte for byte, over the batches
and between traced and untraced runs.  ``fail_ratio`` is printed as a
line, and ``pass_ratio`` is the metric (it is never 0).
The lines before the last one name each metric with its value and unit;
the last line is the JSON result.  Reports and process output go to a
temporary directory under ``.bench_run`` that is removed at exit; traces
stay in ``.bench_run/traces``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import calibrate
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
MIN_BATCHES = 3
PROCESS_TIMEOUT_S = 170.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

UNIT_SUFFIXES = (("_s", "s"), ("_ratio", "ratio"), ("bytes", "bytes"))
END_TO_END_UNITS = {"setup_s": "s", "verdict_kernels": "kernels",
                    "item_p50_kernels": "kernels", "item_p90_kernels": "kernels",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed identity check)."""


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    names = [*Tracer().report(), "trace.overhead_ratio"]
    return {name: next((unit for suffix, unit in UNIT_SUFFIXES if name.endswith(suffix)), "count")
            for name in names}


# -- processes --------------------------------------------------------------


class Runner:
    """Starts the benchmark's processes one at a time inside the checkout."""

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp
        self.count = 0
        self.env = dict(os.environ)
        self.env.update({pin: "1" for pin in THREAD_PINS})
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        TMPDIR=str(tmp), MONOGENICS_OUT=str(tmp))

    def run(self, cmd: list[str]) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MB) of one child process."""
        self.count += 1
        log = self.tmp / f"proc{self.count}.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = os.posix_spawn(cmd[0], cmd, self.env, file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 2),
            ])
            timer = threading.Timer(PROCESS_TIMEOUT_S, os.kill, (proc, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc, 0)
            except BaseException:
                os.kill(proc, signal.SIGKILL)
                os.waitpid(proc, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise BenchError(f"{' '.join(cmd[1:3])} killed by signal {-code}: {_tail(log)}")
        return code, wall, usage.ru_maxrss / 1024.0

    def worker(self, mode: str, workload: str, seed: int,
               trace_out: Path | None = None) -> tuple[dict, float]:
        """Result document and peak RSS (MB) of one ``worker.py`` process."""
        out = self.tmp / f"worker{self.count + 1}.json"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        code, _, rss = self.run(cmd)
        if code != 0:
            raise BenchError(f"worker {mode} {workload} exited {code}: "
                             f"{_tail(self.tmp / f'proc{self.count}.log')}")
        doc = json.loads(out.read_text(encoding="utf-8"))
        expected = self.root / "src" / "monogenics" / "__init__.py"
        if Path(doc["monogenics_file"]).resolve() != expected.resolve():
            raise BenchError(f"monogenics imported from {doc['monogenics_file']}, not {expected}")
        return doc, rss


def _tail(log: Path, lines: int = 15) -> str:
    text = log.read_text(encoding="utf-8", errors="replace") if log.exists() else ""
    return "\n".join(text.splitlines()[-lines:])


# -- one batch ----------------------------------------------------------------


class Tally:
    """Identity checks attempted and failed over a run, with their names."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def items(self, rows: list[dict], batch: int) -> None:
        for row in rows:
            self.attempted += row["checks"]
            self.failures += [f"batch {batch} {row['id']}: {name}" for name in row["failed"]]
            if "sha256" in row:
                first = self.digests.setdefault(row["id"], row["sha256"])
                self.check(f"batch {batch} {row['id']}: report bytes repeat",
                           row["sha256"] == first)


def run_batch(runner: Runner, workload: str, seed: int, tally: Tally, batch: int,
              trace_out: Path | None = None) -> dict:
    """One batch in a fresh process: its times, verdicts and, traced, layers."""
    doc, rss = runner.worker("batch", workload, seed, trace_out=trace_out)
    tally.items(doc["items"], batch)
    rows = doc["items"]
    kernels = calibrate.in_kernels([r["ms"] for r in rows], [r["kernel_ms"] for r in rows])
    return {"verdict_s": doc["verdict_s"], "item_ms": {r["id"]: r["ms"] for r in rows},
            "item_kernels": {r["id"]: k for r, k in zip(rows, kernels)}, "rss_mb": rss,
            "kernel_ms": statistics.median(r["kernel_ms"] for r in rows), "verdicts": {r["id"]: not r["failed"] for r in doc["items"]},
            "layers": doc.get("layers")}


class Clock:
    """Whether another batch fits before the run's deadline."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds
        self.batches = 0
        self.longest = 0.0
        self.started = 0.0

    def more(self) -> bool:
        now = time.perf_counter()
        if self.batches:
            self.longest = max(self.longest, now - self.started)
        if self.batches >= MIN_BATCHES and now + self.longest > self.deadline:
            return False
        self.batches += 1
        self.started = now
        return True


# -- the two kinds of run -------------------------------------------------------


def untraced_run(runner: Runner, workload: str, seed: int, seconds: float,
                 tally: Tally) -> tuple[dict, dict]:
    clock = Clock(seconds)
    probes: list[dict] = []
    batches = []
    while clock.more():
        # set-up probes spread over the run, so no one slow spell sets their median
        if len(probes) < SETUP_PROBES:
            probes.append(runner.worker("setup", workload, seed)[0])
        batches.append(run_batch(runner, workload, seed, tally, len(batches)))
    while len(probes) < SETUP_PROBES:
        probes.append(runner.worker("setup", workload, seed)[0])
    setups = [d["setup_s"] for d in probes]
    env_doc = probes[-1]
    # each item's median over the run's batches, in kernels and, for reading, in ms
    items = _item_medians(batches, "item_kernels")
    items_ms = _item_medians(batches, "item_ms")
    metrics = {
        "setup_s": statistics.median(setups),
        "verdict_kernels": sum(items),
        "item_p50_kernels": statistics.median(items),
        "item_p90_kernels": _p90(items),
        "peak_rss_mb": statistics.median(b["rss_mb"] for b in batches),
        "pass_ratio": (tally.attempted - len(tally.failures)) / tally.attempted,
    }
    info = {"kernel_ms": round(statistics.median(b["kernel_ms"] for b in batches), 4),
            "verdict_s": round(sum(items_ms) / 1e3, 4),
            "item_p50_ms": round(statistics.median(items_ms), 3),
            "item_p90_ms": round(_p90(items_ms), 3),
            "batch_verdicts_s": [round(b["verdict_s"], 3) for b in batches],
            "items": len(items), "setup_probes": len(setups),
            "environment": {k: env_doc[k] for k in ("python", "numpy", "scipy")}}
    return metrics, info


def traced_run(runner: Runner, workload: str, seed: int, seconds: float,
               tally: Tally, trace_dir: Path) -> tuple[dict, dict]:
    clock = Clock(seconds)
    clock.more()
    plain = run_batch(runner, workload, seed, tally, 0)
    traced = []
    while clock.more():
        batch = len(traced) + 1
        res = run_batch(runner, workload, seed, tally, batch,
                        trace_dir / f"{workload}-{batch}.json")
        # wrapping changed no verdict (and, through the digests, no report bytes)
        tally.check(f"traced batch {batch} verdicts equal untraced",
                    res["verdicts"] == plain["verdicts"])
        traced.append(res)
    first = traced[0]["layers"]
    for i, res in enumerate(traced[1:], start=2):
        same = all(res["layers"][k] == v for k, v in first.items() if not k.endswith("_s"))
        tally.check(f"traced batch {i} repeats the counts of traced batch 1", same)
    metrics = {}
    for name in per_layer_units():
        if name == "trace.overhead_ratio":
            metrics[name] = (min(sum(r["item_kernels"].values()) for r in traced)
                             / sum(plain["item_kernels"].values()))
        elif name.endswith("_s"):
            metrics[name] = min(r["layers"][name] for r in traced)
        else:
            metrics[name] = first[name]
    info = {"traced_batches": len(traced), "untraced_verdict_s": plain["verdict_s"],
            "traces": str(trace_dir)}
    return metrics, info


def _item_medians(batches: list[dict], key: str) -> list[float]:
    return [statistics.median(b[key][i] for b in batches) for i in batches[0][key]]


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


# -- entry point -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="monogenics benchmark: one workload, one run")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "monogenics" / "__init__.py").is_file():
        print(f"bench: no monogenics sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".bench_run"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    tally = Tally()
    try:
        runner = Runner(root, tmp)
        if args.trace:
            metrics, info = traced_run(runner, args.workload, args.seed, args.seconds,
                                       tally, work / "traces")
            units = per_layer_units()
        else:
            metrics, info = untraced_run(runner, args.workload, args.seed, args.seconds, tally)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; one process at a time, threads pinned: "
          + " ".join(f"{pin}=1" for pin in THREAD_PINS))
    for key, value in info.items():
        print(f"  {key}: {value}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {len(tally.failures) / tally.attempted:.6g} ratio "
          f"({len(tally.failures)} of {tally.attempted} checks)")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
