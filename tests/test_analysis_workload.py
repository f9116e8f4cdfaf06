"""The benchmark's `analysis` workload, at its tiny size, fails no operation.

It runs decompose, reconstruct, check_membership, norm_bound_ratio,
gn_ratio and interpolation_ratio on seeded 3-d fields and checks their
invariants: exact reconstruction, zero slice averages, norm-bound ratios
in [1, 4**(n-1)] and finite positive GN quotients.  Here every
norm-bound ratio is also held to the proved bound 3**(n-1), tighter
than the workload's own check, and the body takes each norm of each
Field, and of each gradient magnitude, once.  The workload is
loaded by path from `bench/workloads.py`.
"""

import importlib.util
from pathlib import Path

import pytest

import rarelab.decomp
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
    """(what, Field, p) of every norm computed, not read back: what is
    "values" for a norm of the Field and "grad" for one of its |grad|.
    A |grad(|u|**power)| that `interpolation_ratio` builds for its L^2
    norm counts too: at power 1 it is |grad u|, so as ("grad", u, 2.0)."""
    computed = []
    real = rarelab.domain._lp_norm
    real_grad = rarelab.decomp.gradient_norms
    real_power = rarelab.ineqlab._power_gradient_magnitude

    def spy(f, p):
        computed.append(("values", f, p))
        return real(f, p)

    def grad_spy(f, ps):
        computed.extend(("grad", f, p) for p in ps)
        return real_grad(f, ps)

    def power_spy(u, power):
        computed.append(("grad" if power == 1 else f"grad|u|^{power}", u, 2.0))
        return real_power(u, power)

    monkeypatch.setattr(rarelab.domain, "_lp_norm", spy)
    monkeypatch.setattr(rarelab.decomp, "gradient_norms", grad_spy)
    monkeypatch.setattr(rarelab.ineqlab, "_power_gradient_magnitude", power_spy)
    return computed


def repeats(computed) -> list:
    """The (what, Field, p) computed more than once."""
    seen, again = set(), []
    for what, f, p in computed:
        key = (what, id(f), p)  # every f is held by `computed`, so ids stay unique
        if key in seen:
            again.append((what, f.spec, p))
        seen.add(key)
    return again


def test_each_norm_of_each_field_is_computed_once(tmp_path, monkeypatch):
    computed = computed_norms(monkeypatch)
    tiny_body(1, tmp_path)
    assert {what for what, _, _ in computed} == {"values", "grad"}
    assert repeats(computed) == []


def test_the_body_differentiates_each_field_and_part_once(tmp_path, monkeypatch):
    # through decomp's and ineqlab's gradient bindings alike, slab by slab
    windows = {}  # id -> (Field, its row windows); every Field is held, so ids stay unique
    for module in (rarelab.decomp, rarelab.ineqlab):
        def spy(f, rows=None, real=module.gradient):
            windows.setdefault(id(f), (f, []))[1].append(rows)
            return real(f, rows)

        monkeypatch.setattr(module, "gradient", spy)
    work, _ = tiny_body(1, tmp_path)
    parts = 2 ** (len(work.shape) - 1)
    assert len(windows) == work.n_fields * (1 + parts)
    assert {id(f) for f in work.fields} <= set(windows)
    assert all(rows == list(rarelab.domain.slabs(f.spec)) for f, rows in windows.values())


def test_a_second_computation_is_found(tmp_path, monkeypatch):
    computed = computed_norms(monkeypatch)
    # gn_ratio and interpolation_ratio retake, uncached, five norms the bounds
    # took: |u|_1 twice, |u|_2 and the |.|_2 of the 1-d and the top part;
    # the gradient norms are kept by decomp.grad_norm, not through lp_norm
    monkeypatch.setattr(rarelab.ineqlab, "lp_norm", lambda f, p: rarelab.domain._lp_norm(f, p))
    tiny_body(1, tmp_path)
    assert len(repeats(computed)) == 5 * workloads.Analysis(tiny=True).n_fields
