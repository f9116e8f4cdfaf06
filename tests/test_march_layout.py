"""A cylinder run marches its field x1-last: every cylinder call of the
advection kernel gets a C-contiguous array whose last axis is the n1
cells of the line, and every Dirichlet sweep hands dpttrs a
Fortran-ordered right-hand side, which it solves in place.  Counted,
not timed: a return of the strided x1-first layout fails here.

A Dirichlet sweep holds two blocks beyond its input, the right-hand side
and alpha u, and makes no layout copy either way: on the benchmark's
20 x 3200 block `DiffusionSweep.apply` peaks at 2.00 blocks under
`tracemalloc`, and on 16 x 16 x 192 at 2.49, the extra 190 KiB being
numpy's iterator buffers for the shifted adds along a short last axis.
A copy of the whole block would add 1.0 to either."""

import tracemalloc

import numpy as np
import pytest

from rarelab import mdsolver, stepping
from rarelab.domain import DomainSpec
from rarelab.fluxes import burgers
from rarelab.mdsolver import SolverConfig

RUNS = {
    "2d": (DomainSpec(n=2, L=12, n1=96, n_torus=(8,)), ((1, 1, 0.1), (0, 2, 0.05))),
    "3d": (DomainSpec(n=3, L=12, n1=96, n_torus=(4, 6)), ((1, 1, 1, 0.1), (0, 1, 2, 0.05))),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_the_cylinder_marches_x1_last(monkeypatch, name):
    spec, modes = RUNS[name]
    sc = SolverConfig(spec=spec, flux=burgers(spec.n), ul=-0.5, ur=0.5, w0_modes=modes,
                      t_end=0.3, snapshot_times=(0.0, 0.3))
    cylinder, solves = [], []
    advective_rhs, dpttrs = mdsolver.advective_rhs, stepping.dpttrs

    def rhs_spy(values, flux, spacings, ghosts=None):
        if ghosts is not None:
            cylinder.append((values.flags.c_contiguous, values.shape))
        return advective_rhs(values, flux, spacings, ghosts)

    def dpttrs_spy(d, e, b, **kw):
        x, info = dpttrs(d, e, b, **kw)
        solves.append((b.flags.f_contiguous, np.shares_memory(x, b)))
        return x, info

    monkeypatch.setattr(mdsolver, "advective_rhs", rhs_spy)
    monkeypatch.setattr(stepping, "dpttrs", dpttrs_spy)
    steps, _, _ = plan = mdsolver.schedule(sc)
    assert mdsolver.run(sc, plan)[1]["planar_at"] is None  # every step is a cylinder step
    # two Heun stages per step; two half-step x1 sweeps per step each
    # for the cylinder and for the profile, the only Dirichlet sweeps
    assert len(cylinder) == 2 * steps
    assert all(contiguous and shape == (*spec.n_torus, spec.n1)
               for contiguous, shape in cylinder)
    assert len(solves) == 4 * steps
    assert all(fortran and in_place for fortran, in_place in solves)


@pytest.mark.parametrize("shape, bound", [((20, 3200), 2.5), ((16, 16, 192), 3.0)],
                         ids=["2d", "3d"])
def test_a_dirichlet_sweep_makes_no_layout_copy(monkeypatch, shape, bound):
    u = np.random.default_rng(3).uniform(-1.0, 1.0, shape)
    b_lo, b_hi = np.full(shape[:-1], -0.5), np.full(shape[:-1], 0.5)
    sweep = stepping.DiffusionSweep(shape[-1], 0.05, 2.0 / 130)
    solves, dpttrs = [], stepping.dpttrs

    def dpttrs_spy(d, e, b, **kw):
        x, info = dpttrs(d, e, b, **kw)
        solves.append((b.flags.f_contiguous, np.shares_memory(x, b)))
        return x, info

    monkeypatch.setattr(stepping, "dpttrs", dpttrs_spy)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = sweep.apply(u, b_lo, b_hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solves == [(True, True)]  # dpttrs solved its Fortran-ordered right-hand side in place
    assert out.shape == shape and out.flags.c_contiguous
    assert (peak - held) / u.nbytes < bound
