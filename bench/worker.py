"""One benchmark sample in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload cyl2d --seed 1 --trace 0 --out DIR [--tiny]

run.py starts this with BLAS/OpenMP threads pinned to 1, PYTHONPATH set
to the checkout's src/ and BENCH_SPAWN_T set to time.monotonic() just
before the spawn, so that set-up time runs from process start to the
first timed call.  Set-up excludes the workload's own input generation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

spawn_t = float(os.environ.get("BENCH_SPAWN_T", time.monotonic()))

import tracer  # noqa: E402  (after the clock read above)
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes, no golden gate")
    args = ap.parse_args(argv)

    import rarelab

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(rarelab.__file__).resolve().parents:
        raise SystemExit(f"rarelab imported from {rarelab.__file__}, not from {src}")

    work = workloads.make(args.workload, args.tiny)
    args.out.mkdir(parents=True, exist_ok=True)
    gen_s = work.setup(args.seed, args.out)

    simulate = isinstance(work, workloads.Simulate)
    tr = tracer.Tracer().install() if args.trace else None
    counter = tracer.StepCounter() if simulate and not args.trace else None

    setup_s = time.monotonic() - spawn_t - gen_s
    result = raised = None
    t0 = time.perf_counter()
    try:
        result = tr.run(work.body) if tr is not None else work.body()
    except Exception:  # the operation failed; report it, do not crash the bench
        raised = traceback.format_exc()
    finally:
        wall_s = time.perf_counter() - t0
        if tr is not None:
            tr.restore()
        if counter is not None:
            counter.restore()

    if raised is None:
        attempted, errors = work.check(result)
        failed = min(attempted, len(errors))
    else:
        attempted = 1 if simulate else work.n_fields
        errors, failed = [raised], attempted

    if not simulate:
        steps = work.n_fields
    elif tr is not None:
        steps = tr.layers.get("stepping.check_cfl", [0])[0]
    else:
        steps = counter.steps
    out = {
        "workload": args.workload,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": work.cells,
        "steps": steps,
        "layers": tr.layers if tr is not None else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
