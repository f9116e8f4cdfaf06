"""Peak memory of the analysis operators, in units of one field's bytes.

`magnitude` and `chain_rule_power_gradient` work in the partials they
are handed, so |grad u| costs the n partials and nothing more.  Each
full-grid temporary that creeps back into that path adds 1.0 to these
peaks, and each bound sits half a field above the measured peak.  The
peaks are traced by `tracemalloc` on a 128x32x32 field (1 MiB), large
enough that numpy's fixed ufunc buffers (3 x 64 KiB in the strided
stencils) are under 0.2 of it.  Measured: `interpolation_ratio` 4.25
(8.00 when each step of the chain rule took a new array),
`norm_bound_ratio` at m = 1 and `gn_ratio` 3.19 (5.00 when the squares
in `magnitude` did).
"""

import tracemalloc

import numpy as np
import pytest

from rarelab.decomp import decompose, norm_bound_ratio
from rarelab.domain import DomainSpec, Field, make_grid
from rarelab.ineqlab import gn_ratio, interpolation_ratio


@pytest.fixture(scope="module")
def field():
    spec = DomainSpec(n=3, L=4.0, n1=128, n_torus=(32, 32))
    grid = make_grid(spec)
    x, y, z = np.meshgrid(grid.x1, *grid.torus, indexing="ij")
    ripple = 1.0 + np.cos(2 * np.pi * y) + 0.5 * np.sin(2 * np.pi * (y + z))
    return Field(spec, np.exp(-x**2) * ripple)


def peak_in_fields(fn, f: Field) -> float:
    """Largest memory held during fn() beyond what was held before it,
    over the bytes of one field; a first call fills any caches."""
    fn()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - held) / f.values.nbytes


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_interpolation_ratio_peak(field, p):
    assert peak_in_fields(lambda: interpolation_ratio(field, p, 1.0), field) < 4.75


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_gradient_norm_bound_ratio_peak(field, p):
    d = decompose(field)
    assert peak_in_fields(lambda: norm_bound_ratio(field, d, 1, p), field) < 3.75


def test_gn_ratio_peak(field):
    d = decompose(field)
    assert peak_in_fields(lambda: gn_ratio(field, 0, 1, 2.0, 1.0, 2.0, d=d), field) < 3.75
