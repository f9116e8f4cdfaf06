"""A cylinder run marches its field x1-last: every cylinder call of the
advection kernel gets a C-contiguous array whose last axis is the n1
cells of the line, and every Dirichlet sweep hands dpttrs a
Fortran-ordered right-hand side, which it solves in place.  Counted,
not timed: a return of the strided x1-first layout fails here."""

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
