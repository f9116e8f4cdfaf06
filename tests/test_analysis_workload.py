"""The benchmark's `analysis` workload, at its tiny size, fails no operation.

It runs decompose, reconstruct, check_membership, norm_bound_ratio,
gn_ratio and interpolation_ratio on seeded 3-d fields and checks their
invariants: exact reconstruction, zero slice averages, norm-bound ratios
in [1, 4**(n-1)] and finite positive GN quotients.  The workload is
loaded by path from `bench/workloads.py`.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("rarelab_bench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("seed", [1, 2])
def test_tiny_analysis_fails_no_operation(tmp_path, seed):
    work = workloads.Analysis(tiny=True)
    work.setup(seed, tmp_path)
    attempted, errors = work.check(work.body())
    assert (attempted, errors) == (work.n_fields, [])
