"""rarelab benchmark: one workload, sampled for a fixed time.

    python3 bench/run.py --workload cyl2d --seed 1 --seconds 20 --trace 0

Starts fresh single-threaded worker processes (bench/worker.py) one
after another until --seconds have passed (at least MIN_SAMPLES), and
reports medians over them.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it alternates traced and untraced workers and
prints the per-layer metrics, the exact counters and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}.
Artifacts go to .bench_out/ in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("cyl2d", "cyl3d", "analysis")

MIN_SAMPLES = 3          # untraced samples per run, whatever --seconds says
MIN_TRACE_PAIRS = 2      # traced and untraced samples per --trace 1 run
DEADLINE_S = 100.0       # a run never starts a worker after this
LIMIT_S = 170.0          # and kills a worker still running at this point

PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def worker_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(workload, seed, trace, outdir, tiny=False, timeout=LIMIT_S) -> dict | None:
    """Run one worker to completion; its result dict, or None if it crashed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(outdir)]
    if tiny:
        cmd.append("--tiny")
    env = worker_env()
    env["BENCH_SPAWN_T"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills and reaps the worker
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def sample(workload, seed, seconds, trace, tiny=False) -> tuple[list, list, int]:
    """(untraced results, traced results, crashed workers) for one run."""
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_out"))
    plain, traced, crashed = [], [], 0
    t0 = time.monotonic()
    try:
        i = 0
        while True:
            elapsed = time.monotonic() - t0
            enough = (min(len(plain), len(traced)) >= MIN_TRACE_PAIRS if trace
                      else len(plain) >= MIN_SAMPLES)
            if (enough and elapsed >= seconds) or elapsed >= DEADLINE_S:
                break
            want_trace = bool(trace) and i % 2 == 0
            res = spawn(workload, seed, int(want_trace), rundir / f"w{i}", tiny,
                        timeout=LIMIT_S - elapsed)
            if res is None:
                crashed += 1
            else:
                (traced if want_trace else plain).append(res)
            i += 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return plain, traced, crashed


def median(xs) -> float:
    return float(statistics.median(xs))


def spread(xs) -> str:
    if len(xs) < 2:
        return ""
    return f"  [min {min(xs):.6g}, max {max(xs):.6g}]"


def end_to_end(plain: list) -> dict:
    wall = [r["wall_s"] for r in plain]
    ns = [r["wall_s"] * 1e9 / (r["cells"] * max(r["steps"], 1)) for r in plain]
    return {
        "wall_s": (median(wall), "s", wall),
        "ns_per_cell_step": (median(ns), "ns", ns),
        "setup_s": (median([r["setup_s"] for r in plain]), "s",
                    [r["setup_s"] for r in plain]),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB",
                        [r["peak_rss_mb"] for r in plain]),
    }


def per_layer(plain: list, traced: list) -> dict:
    import tracer

    out = {}
    walls = [sum(st[1] for st in r["layers"].values()) for r in traced]
    for layer, kernel in tracer.LAYERS.items():
        stats = [r["layers"].get(layer, [0, 0.0, 0]) for r in traced]
        self_s = [st[1] for st in stats]
        out[f"{layer}.calls"] = (stats[0][0], "count", None)
        out[f"{layer}.self_s"] = (median(self_s), "s", self_s)
        share = [s / w for s, w in zip(self_s, walls)]
        out[f"{layer}.share"] = (median(share), "ratio", share)
        if kernel:
            ns = [st[1] * 1e9 / st[2] if st[2] else 0.0 for st in stats]
            out[f"{layer}.ns_per_cell"] = (median(ns), "ns", ns)

    first = traced[0]["layers"]

    def calls(layer):
        return first.get(layer, [0])[0]

    steps = calls("stepping.check_cfl")
    snaps = calls("ansatz.assemble_bundle")
    sweeps = (calls("stepping.sweep_periodic") + calls("stepping.sweep_dirichlet")
              + calls("periodic.sweep_axis"))
    out["count.steps"] = (steps, "count", None)
    out["count.snapshots"] = (snaps, "count", None)
    out["count.profile_spline_builds_per_snapshot"] = (
        calls("profile1d.ProfileSpline") / snaps if snaps else 0.0, "count/snapshot", None)
    out["count.field_constructions"] = (calls("domain.Field"), "count", None)
    out["count.field_bytes_copied"] = (first.get("domain.Field", [0, 0.0, 0])[2], "B", None)
    out["count.sweeps_per_step"] = (sweeps / steps if steps else 0.0, "count/step", None)

    untraced_wall = median([r["wall_s"] for r in plain])
    out["trace.wall_s"] = (median(walls), "s", walls)
    rem = [r["layers"].get(tracer.ROOT, [0, 0.0])[1] for r in traced]
    out["trace.remainder_s"] = (median(rem), "s", rem)
    out["trace.overhead_s"] = (median(walls) - untraced_wall, "s", None)
    return out


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "worker_thread_env": PINNED,
        "git_commit": None,
        "src_sha256": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                    if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        env["git_commit"] = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    env["src_sha256"] = h.hexdigest()
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (bench/tests); no golden norm gate")
    args = ap.parse_args(argv)

    # end like Ctrl-C on SIGTERM, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "rarelab" / "__init__.py").is_file():
        print(f"no rarelab package under {SRC}; run from a rarelab checkout",
              file=sys.stderr)
        return 2

    plain, traced, crashed = sample(args.workload, args.seed, args.seconds,
                                    args.trace, args.tiny)
    if not plain or (args.trace and not traced):
        print(f"no worker finished ({crashed} crashed)", file=sys.stderr)
        return 1

    results = plain + traced
    attempted = sum(r["attempted"] for r in results) + crashed
    failed = sum(r["failed"] for r in results) + crashed
    for err, n in Counter(e for r in results for e in r["errors"]).items():
        print(f"check failed ({n} workers): {err}")

    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(plain)} untraced, {len(traced)} traced")
    for name, (value, unit, xs) in metrics.items():
        n = f"  (median of {len(xs)}){spread(xs)}" if xs is not None else ""
        print(f"  {name:<44} {value:.6g} {unit}{n}")
    print(f"  {'error_rate':<44} {failed / attempted:.6g}  ({failed} failed"
          f" of {attempted} attempted)")
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
