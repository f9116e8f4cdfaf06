"""Fields that step alike step as one array: the far field's two sides
as one (2, m1, *torus) array, and after the hand-off the line and its
profile as one (2, n) array.  Each stacked call is bitwise the calls on
each part alone, so stacking moves no artifact."""

import numpy as np
import pytest

from rarelab.fluxes import burgers
from rarelab.periodic import TorusSpec, TorusStepper
from rarelab.profile1d import initial_profile, pinned_line
from rarelab.stepping import DiffusionSweep, advective_rhs, march


def far_field(sizes):
    """Two far-field sides around -0.5 and 0.5, stacked."""
    rng = np.random.default_rng(len(sizes))
    return np.stack([ubar + rng.uniform(-0.1, 0.1, sizes) for ubar in (-0.5, 0.5)])


@pytest.mark.parametrize("sizes", [(8, 16, 16), (20, 20)], ids=["3d", "2d"])
class TestTheFarFieldsSides:
    def test_one_advective_rhs_is_each_sides(self, sizes):
        far, spacings = far_field(sizes), tuple(1.0 / m for m in sizes)
        flux = burgers(len(sizes))
        stacked = advective_rhs(far, flux, spacings)
        assert stacked.shape == far.shape
        for side, alone in zip(stacked, far):
            assert np.array_equal(side, advective_rhs(alone.copy(), flux, spacings))

    def test_one_sweep_per_axis_is_each_sides(self, sizes):
        far, stepper = far_field(sizes), TorusStepper(TorusSpec(sizes), 0.004)
        for axis in range(len(sizes)):
            stacked = stepper.sweep_axis(far, axis, axis + 1)
            for side, alone in zip(stacked, far):
                assert np.array_equal(side, stepper.sweep_axis(alone.copy(), axis))


@pytest.mark.parametrize("n, dx1", [(192, 0.125), (1360, 0.05)], ids=["192", "1360"])
def test_one_stacked_line_step_is_each_rows(n, dx1):
    # the line (a torus mean with its far-field means as ends) and the
    # profile (ends ul and ur) take three steps as one state and alone
    x1 = (np.arange(n) + 0.5) * dx1 - n * dx1 / 2
    profile = initial_profile(x1, -0.5, 0.5)
    line = profile + 0.01 * np.exp(-(x1 - 1.0) ** 2)
    ends = [(-0.499, 0.501), (-0.5, 0.5)]
    flux, dt = burgers(1), 0.4 * dx1 / 0.6
    diffusion = DiffusionSweep(n, dx1, dt / 2.0)

    def three_steps(state, lo, hi):
        return next(march((state,), (3, dt, {3}), 1, *pinned_line(diffusion, dx1, flux, lo, hi),
                          lambda state, t: None, lambda k, state: state[0]))

    stacked = three_steps(np.stack((line, profile)), *zip(*ends))
    assert stacked.shape == (2, n)
    for row, start, (lo, hi) in zip(stacked, (line, profile), ends):
        assert np.array_equal(row, three_steps(start, lo, hi))
