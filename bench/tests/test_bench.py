"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench_result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_declared_metric_is_emitted(workload, trace):
    res = bench_result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace and workload != "analysis":
        assert res["metrics"]["count.profile_spline_builds_per_snapshot"]["value"] == 4
        assert res["metrics"]["count.steps"]["value"] > 0


@pytest.mark.parametrize("workload", ["cyl2d", "cyl3d"])
def test_tracing_leaves_norm_table_bitwise_identical(workload, tmp_path):
    tables = []
    for trace in (0, 1):
        out = tmp_path / f"trace{trace}"
        res = run.spawn(workload, 0, trace, out, tiny=True)
        assert res is not None and res["failed"] == 0, res
        tables.append((out / "norms.csv").read_bytes())
    assert tables[0] == tables[1]


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "tracer.py"):
        (tmp_path / "bench" / name).write_bytes((BENCH / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cyl2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
