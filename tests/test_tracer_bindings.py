"""Every call site the benchmark's layer tracer wraps still resolves.

`bench/tracer.py` replaces functions and classes where the calling
module binds them; a rename in `rarelab` would otherwise only show up
in the benchmark's own tests.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("rarelab_bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


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
