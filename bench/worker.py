"""One benchmark process: set up a workload and, unless asked only for the
set-up time, run one batch of it.

    python3 bench/worker.py {setup,batch} --workload W --seed N --out result.json
                            [--trace-out trace.json]

The process is started by ``bench/run.py`` with ``src`` on ``PYTHONPATH`` and
the BLAS pools pinned to one thread.  It writes one JSON document to
``--out``:

- ``setup_s``: importing ``monogenics`` and building the seeded inputs;
- ``batch``: ``verdict_s`` (first check to verdict), the time and failed
  checks of every item, the time of the reference kernel (``calibrate.py``)
  just before it, the SHA-256 of the report an item wrote, and with
  ``--trace-out`` the per-layer metrics of the tracer, which is installed
  before the inputs are built and is written out as spans and aggregates
  when the batch ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "batch"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace-out", type=Path, default=None)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import monogenics
    tracer = None
    if args.trace_out is not None:
        from tracer import Tracer
        tracer = Tracer().install()
    import workloads
    items = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy
    doc: dict = {"setup_s": setup_s, "monogenics_file": monogenics.__file__,
                 "python": sys.version.split()[0], "numpy": numpy.__version__,
                 "scipy": scipy.__version__}
    if args.mode == "batch":
        doc.update(_run_items(items, tracer))
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.trace_out)
            doc["layers"] = tracer.report()
    args.out.write_text(json.dumps(doc), encoding="utf-8")
    return 0


def _run_items(items, tracer) -> dict:
    import calibrate  # only after set-up, which its imports must not shorten

    rows = []
    start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        kernel_ms = calibrate.gauge_ms()
        t = time.perf_counter()
        try:
            checks = item.run()
        except Exception as exc:  # a crashing identity is a failed check, not a lost one
            checks = [(f"raised {type(exc).__name__}: {exc}", False)]
        ms = (time.perf_counter() - t) * 1e3
        row = {"id": item.id, "ms": ms, "checks": len(checks),
               "failed": [name for name, ok in checks if not ok], "kernel_ms": kernel_ms}
        if item.output is not None:
            row["sha256"] = hashlib.sha256(item.output()).hexdigest()
        rows.append(row)
    return {"verdict_s": time.perf_counter() - start, "items": rows}


if __name__ == "__main__":
    sys.exit(main())
