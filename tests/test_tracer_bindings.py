"""Every call site the benchmark's layer tracer wraps still resolves.

`bench/tracer.py` replaces functions and classes where the calling
module binds them; a rename in `rarelab` would otherwise only show up
in the benchmark's own tests.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("rarelab_bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
_spec = importlib.util.spec_from_file_location("rarelab_bench_workloads",
                                               TRACER.parent / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("modname, attr", [row[:2] for row in tracer.FUNCTIONS])
def test_wrapped_function_is_bound(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("modname, clsname, meth",
                         [row[:3] for row in tracer.SUBCLASSES + tracer.METHODS])
def test_wrapped_method_is_defined(modname, clsname, meth):
    cls = getattr(importlib.import_module(modname), clsname)
    assert isinstance(cls, type) and callable(cls.__dict__[meth])


def test_install_and_restore_round_trip():
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in tracer.FUNCTIONS}
    t = tracer.Tracer().install()
    try:
        for (m, a), fn in before.items():
            assert getattr(importlib.import_module(m), a) is not fn
    finally:
        t.restore()
    for (m, a), fn in before.items():
        assert getattr(importlib.import_module(m), a) is fn


def test_a_traced_run_files_its_sweeps_and_changes_no_number(tmp_path):
    # every layer function reads what it needs of the call (a sweep's
    # `periodic`, say): one that raises fails the run
    from rarelab import cli

    config = TRACER.parent / "configs" / "cyl2d_tiny.cfg"

    def simulate(out):
        return cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / out)])

    assert simulate("plain") == 0
    t = tracer.Tracer().install()
    try:
        code = t.run(lambda: simulate("traced"))
    finally:
        t.restore()
    assert code == 0
    calls = {layer: stat[0] for layer, stat in t.layers.items()}
    assert set(calls) <= set(tracer.LAYERS) | {tracer.ROOT}
    assert calls["stepping.sweep_dirichlet"] > 0 and calls["periodic.sweep_axis"] > 0
    assert "stepping.sweep_periodic" not in calls
    traced, plain = (tmp_path / d / "norms.csv" for d in ("traced", "plain"))
    assert traced.read_bytes() == plain.read_bytes()


def exact(value):
    """A value the analysis body returns, as plain data that compares
    equal only when every float and array is bitwise the same."""
    if isinstance(value, dict):
        return [(repr(k), exact(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "values"):  # a Field
        return value.spec, value.values.tobytes()
    return repr(value)


def test_a_traced_analysis_run_changes_no_value(tmp_path):
    # the split and the quotients measure through decomp's and ineqlab's own
    # gradient and lp_norm bindings, which the tracer wraps as its
    # domain.gradient and domain.lp_norm layers.  The body differentiates
    # through decomp's alone; a quotient at p = 4 reaches ineqlab's.
    from rarelab import decomp, ineqlab

    work = workloads.Analysis(tiny=True)
    work.setup(1, tmp_path)
    plain = exact(work.body())
    seen, in_body = Counter(), Counter()

    def counted(fn, key):
        def call(*args, **kw):
            seen[key] += 1
            return fn(*args, **kw)
        return call

    def body_then_power_two():
        out = work.body()
        in_body.update(seen)
        ineqlab.interpolation_ratio(work.fields[0], 4.0, 2.0)
        return out

    t = tracer.Tracer().install()
    try:
        for module in (decomp, ineqlab):
            for name in ("gradient", "lp_norm"):
                setattr(module, name, counted(getattr(module, name), (module, name)))
        traced = t.run(body_then_power_two)
    finally:
        t.restore()
    assert exact(traced) == plain
    assert in_body[decomp, "gradient"] > 0 and in_body[ineqlab, "gradient"] == 0
    calls = {layer: stat[0] for layer, stat in t.layers.items()}
    assert set(calls) <= set(tracer.LAYERS) | {tracer.ROOT}
    for name in ("gradient", "lp_norm"):
        assert seen[decomp, name] > 0 and seen[ineqlab, name] > 0, name
        assert calls[f"domain.{name}"] == seen[decomp, name] + seen[ineqlab, name]
    assert not any(isinstance(r, Exception) for r in traced)
