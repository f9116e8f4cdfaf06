"""Peak memory of the analysis operators, in units of one field's bytes.

No full-grid gradient is held on the analysis path.  Each magnitude
(|grad u|, |grad| of a part, |grad(|u|^(p/2))|) is built a slab of x1
rows at a time into one array, from that slab's partials, and measured
in that array in place (`domain.array_norms`); `decompose` builds each
part a slab at a time, straight into the part's array.  So a magnitude
costs its one array plus one slab's partials, and a split its top part.
Each full-grid temporary that creeps back into these paths adds 1.0 to
these peaks, and each bound sits half a field above the measured peak.
The peaks are traced by `tracemalloc` on a 128x32x32 field (1 MiB),
large enough that numpy's fixed ufunc buffers (3 x 64 KiB in the
strided stencils) are under 0.2 of it; a slab there is 16 rows, 0.125
of the field.

A split keeps the L^p norms of |grad u| and of each part's |grad|, not
the magnitudes: the first call on a fresh `decompose` builds and
measures them, the next call only reads them; both are measured.  Each
Field also keeps its norms, so a later call takes no norm again.

Measured, each on a fresh field: `decompose` 1.32 (3.07 with a
full-grid remainder and lower sum); `interpolation_ratio` 1.57 at p = 2
and p = 4 (2.01 when the full-grid magnitude became a Field that
`lp_norm` squared into a second one, 4.25 with full-grid partials);
`norm_bound_ratio` at m = 1, first call 1.58 (4.26 when the split kept
|grad u| and the top part's |grad| as Fields, built from full-grid
partials), later calls 0.00; `gn_ratio`, first call 1.57 (3.19), later
calls 1.16 (2.00: level 1's sum is still built on each call, but is now
measured in its own array).

The second-order norm `ineqlab._deriv_norm(f, 2, p)` squares each
Hessian component into one buffer and frees it once added, holding one
first partial at a time: 3.19 (12.18 when every first partial and all
n^2 components were held at once), with the value of `magnitude` over
all the components bit for bit.

One whole `analysis` workload iteration on its own 128x48x48 field,
holding the reconstruction it returns, peaks at 3.30 (6.17 before the
slab-built split and magnitudes): the reconstruction, the top part and
one magnitude array, plus slab temporaries.
"""

import tracemalloc

import numpy as np
import pytest

from rarelab.decomp import check_membership, decompose, norm_bound_ratio, reconstruct
from rarelab import ineqlab
from rarelab.domain import (
    DomainSpec, Field, array_norms, derivative, magnitude, make_grid, second_derivative,
)
from rarelab.ineqlab import gn_ratio, interpolation_ratio


def rippled_field(n_torus):
    spec = DomainSpec(n=3, L=4.0, n1=128, n_torus=n_torus)
    grid = make_grid(spec)
    x, y, z = np.meshgrid(grid.x1, *grid.torus, indexing="ij")
    ripple = 1.0 + np.cos(2 * np.pi * y) + 0.5 * np.sin(2 * np.pi * (y + z))
    return Field(spec, np.exp(-x**2) * ripple)


@pytest.fixture(scope="module")
def field():
    return rippled_field((32, 32))


def peak_in_fields(fn, f: Field) -> float:
    """Largest memory held during one fn() beyond what was held before
    it, over the bytes of one field."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - held) / f.values.nbytes


def test_decompose_peak(field):
    assert peak_in_fields(lambda: decompose(field), field) < 1.82


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_interpolation_ratio_peak(field, p):
    assert peak_in_fields(lambda: interpolation_ratio(field, p, 1.0), field) < 2.07


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_gradient_norm_bound_ratio_first_call_peak(field, p):
    d = decompose(field)
    assert peak_in_fields(lambda: norm_bound_ratio(field, d, 1, p), field) < 2.08


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_gradient_norm_bound_ratio_peak(field, p):
    d = decompose(field)
    norm_bound_ratio(field, d, 1, p)
    assert peak_in_fields(lambda: norm_bound_ratio(field, d, 1, p), field) < 0.5


def test_gn_ratio_first_call_peak(field):
    d = decompose(field)
    assert peak_in_fields(lambda: gn_ratio(field, 0, 1, 2.0, 1.0, 2.0, d=d), field) < 2.07


def test_gn_ratio_peak(field):
    d = decompose(field)
    gn_ratio(field, 0, 1, 2.0, 1.0, 2.0, d=d)
    assert peak_in_fields(lambda: gn_ratio(field, 0, 1, 2.0, 1.0, 2.0, d=d), field) < 1.66


def test_second_order_derivative_norm_peak(field):
    assert peak_in_fields(lambda: ineqlab._deriv_norm(field, 2, 2.0), field) < 3.7


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_second_order_derivative_norm_is_the_magnitudes(field, p):
    # every Hessian component at once, row by row, pure partial first
    n = field.spec.n
    partials = [field.with_values(derivative(field, i)) for i in range(n)]
    hessian = magnitude([c for i in range(n) for c in [second_derivative(field, i)]
                         + [derivative(partials[i], j) for j in range(n) if j != i]])
    want = array_norms(hessian, (p,), field.spec.cell_volume)[0]
    assert ineqlab._deriv_norm(field, 2, p) == want


def test_a_whole_analysis_iteration_peak():
    # the body of the `analysis` workload on one of its fields
    f = rippled_field((48, 48))
    kept = []

    def iteration():
        d = decompose(f)
        kept.append((reconstruct(d), check_membership(d),
                     [norm_bound_ratio(f, d, m, p) for m in (0, 1) for p in (1.0, 2.0, np.inf)],
                     gn_ratio(f, 0, 1, 2.0, 1.0, 2.0, d=d), interpolation_ratio(f, 2.0, 1.0)))

    assert peak_in_fields(iteration, f) < 3.5
    assert kept[0][0].values.shape == f.spec.shape  # the reconstruction was held
