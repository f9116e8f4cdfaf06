"""The benchmark's `analysis` workload, at its tiny size, fails no operation.

It runs decompose, reconstruct, check_membership, norm_bound_ratio,
gn_ratio and interpolation_ratio on seeded 3-d fields and checks their
invariants: exact reconstruction, zero slice averages, norm-bound ratios
in [1, 4**(n-1)] and finite positive GN quotients.  Here every
norm-bound ratio is also held to the proved bound 3**(n-1), tighter
than the workload's own check, and the body takes each norm of each
Field once.  The workload is loaded by path from `bench/workloads.py`.
"""

import importlib.util
from pathlib import Path

import pytest

import rarelab.domain
import rarelab.ineqlab

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("rarelab_bench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def tiny_body(seed, tmp_path):
    work = workloads.Analysis(tiny=True)
    work.setup(seed, tmp_path)
    return work, work.body()


@pytest.mark.parametrize("seed", [1, 2])
def test_tiny_analysis_fails_no_operation(tmp_path, seed):
    work, results = tiny_body(seed, tmp_path)
    attempted, errors = work.check(results)
    assert (attempted, errors) == (work.n_fields, [])
    bound = 3.0 ** (len(work.shape) - 1)
    for _, _, ratios, _, _ in results:
        assert all(1.0 - 1e-12 <= r <= bound for r in ratios), ratios


def computed_norms(monkeypatch) -> list:
    """(Field, p) of every norm computed, not read back from a Field."""
    computed = []
    real = rarelab.domain._lp_norm

    def spy(f, p):
        computed.append((f, p))
        return real(f, p)

    monkeypatch.setattr(rarelab.domain, "_lp_norm", spy)
    return computed


def repeats(computed) -> list:
    """The (Field, p) pairs computed more than once."""
    seen, again = set(), []
    for f, p in computed:
        key = (id(f), p)  # every f is held by `computed`, so ids stay unique
        if key in seen:
            again.append((f.spec, p))
        seen.add(key)
    return again


def test_each_norm_of_each_field_is_computed_once(tmp_path, monkeypatch):
    computed = computed_norms(monkeypatch)
    tiny_body(1, tmp_path)
    assert computed and repeats(computed) == []


def test_a_second_computation_is_found(tmp_path, monkeypatch):
    computed = computed_norms(monkeypatch)
    # gn_ratio and interpolation_ratio retake, uncached, six norms the bounds took
    monkeypatch.setattr(rarelab.ineqlab, "lp_norm", lambda f, p: rarelab.domain._lp_norm(f, p))
    tiny_body(1, tmp_path)
    assert len(repeats(computed)) == 6 * workloads.Analysis(tiny=True).n_fields
