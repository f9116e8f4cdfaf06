import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelab.errors import NumericalAbort
from rarelab.cli import _flux
from rarelab.fluxes import FluxSet, burgers, cubic, linear_flux
from rarelab.periodic import TorusSpec, TorusStepper
from rarelab.stepping import (
    MAX_STEPS,
    DiffusionSweep,
    advective_rhs,
    check_cfl,
    march,
    max_advective_dt,
    step_schedule,
    strang_step,
)

FLUXES = {
    "burgers": burgers,
    "cubic": cubic,
    "linear_flux": lambda n: linear_flux(n, [1.0, -0.5, 2.0][:n]),
}


def advect(values, flux, spacings, dt, ghosts=None):
    """Advection alone: the shared Strang step with no diffusion axes."""
    (out,) = strang_step([(values,)], dt, 0, None,
                         lambda s: (advective_rhs(s[0], flux, spacings, ghosts),))
    return out


def reference_advective_rhs(values, flux, spacings, ghosts=None):
    """Axis-to-front kernel with np.roll stencils: the reference for
    advective_rhs, which must reproduce it bitwise."""

    def faces(um1, u0, up1, up2, f, df):
        ul = u0 + 0.25 * (up1 - um1)
        ur = up1 - 0.25 * (up2 - u0)
        a = np.maximum(np.abs(df(ul)), np.abs(df(ur)))
        return 0.5 * (f(ul) + f(ur)) - 0.5 * a * (ur - ul)

    out = np.zeros_like(values)
    for axis in range(values.ndim):
        h = spacings[axis]
        f, df = flux.f[axis], flux.df[axis]
        if axis == 0 and ghosts is not None:
            p = np.concatenate([ghosts[0], values, ghosts[1]], axis=0)
            face = faces(p[:-3], p[1:-2], p[2:-1], p[3:], f, df)
            out -= (face[1:] - face[:-1]) / h
        else:
            v = np.moveaxis(values, axis, 0)
            face = faces(np.roll(v, 1, 0), v, np.roll(v, -1, 0), np.roll(v, -2, 0), f, df)
            out -= np.moveaxis(face - np.roll(face, 1, 0), 0, axis) / h
    return out


def dense_reference(n, h, dt, periodic, u, b_lo=0.0, b_hi=0.0):
    T = np.zeros((n, n))
    for i in range(n):
        T[i, i] = -2.0
        if periodic:
            T[i, (i + 1) % n] = 1.0
            T[i, (i - 1) % n] = 1.0
        else:
            if i + 1 < n:
                T[i, i + 1] = 1.0
            if i - 1 >= 0:
                T[i, i - 1] = 1.0
    T /= h * h
    c = np.zeros(n)
    if not periodic:
        c[0] = b_lo / h / h
        c[-1] = b_hi / h / h
    A = np.eye(n) - dt / 2 * T
    B = np.eye(n) + dt / 2 * T
    return np.linalg.solve(A, B @ u + dt * c)


class ParentPeriodicSweep:
    """The periodic branch of `DiffusionSweep` as it stood before the
    circulant moved into `periodic.TorusStepper`: the reference that
    `TorusStepper.sweep_axis` must reproduce bitwise."""

    def __init__(self, length, h, dt):
        self.length = length
        a = dt / (2.0 * h * h)
        lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(length // 2 + 1) / length)
        col = np.fft.irfft((1.0 - a * lam) / (1.0 + a * lam), length)
        i = np.arange(length)
        self._op = col[(i[:, None] - i[None, :]) % length]

    def apply(self, u, axis=-1):
        axis %= u.ndim
        assert u.shape[axis] == self.length
        u = np.ascontiguousarray(u)
        if axis == u.ndim - 1:
            out = u.reshape(-1, self.length) @ self._op.T
        else:
            out = self._op @ u.reshape(-1, self.length, math.prod(u.shape[axis + 1:]))
        return out.reshape(u.shape)


def torus_sweep(n, dt):
    """The periodic sweep of n cells at spacing 1/n over the sub-step dt:
    a torus stepper of step 2 dt, whose sweeps are half-steps."""
    return TorusStepper(TorusSpec((n,)), 2 * dt)


class TestDiffusionSweep:
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("n", [5, 16, 33, 128])
    def test_matches_dense_solve(self, periodic, n):
        rng = np.random.default_rng(n)
        h, dt = 1.0 / n, 0.37
        u = rng.standard_normal(n)
        if periodic:
            got = torus_sweep(n, dt).sweep_axis(u, 0)
        else:
            got = DiffusionSweep(n, h, dt).apply(u, b_lo=0.2, b_hi=-0.4)
        ref = dense_reference(n, h, dt, periodic, u, 0.2, -0.4)
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_multicolumn_consistent(self):
        rng = np.random.default_rng(0)
        sweep = torus_sweep(12, 0.05)
        u = rng.standard_normal((12, 7))
        block = sweep.sweep_axis(u, 0)
        for j in range(7):
            assert np.allclose(block[:, j], sweep.sweep_axis(u[:, j], 0), atol=1e-14)

    def test_heat_mode_decay_rate(self):
        # CN factor for one Fourier mode matches (1 + z/2)/(1 - z/2)
        n, h = 64, 1.0 / 64
        dt = 1e-3
        x = np.arange(n) * h
        u = np.sin(2 * np.pi * x)
        lam = (2 * np.cos(2 * np.pi * h) - 2) / h**2
        expect = (1 + dt * lam / 2) / (1 - dt * lam / 2)
        got = torus_sweep(n, dt).sweep_axis(u, 0)
        assert np.max(np.abs(got - expect * u)) < 1e-13

    def test_constant_preserved_periodic(self):
        u = np.full(8, 0.7)
        assert np.allclose(torus_sweep(8, 0.3).sweep_axis(u, 0), 0.7, atol=1e-15)

    def test_dirichlet_runs_along_the_last_axis(self):
        # along the last axis the sweep holds a constant matching its ghosts
        got = DiffusionSweep(8, 0.125, 0.3).apply(np.ones((4, 8)), b_lo=1.0, b_hi=1.0)
        assert np.max(np.abs(got - 1.0)) < 1e-14

    def test_a_sweep_rejects_a_line_of_another_length(self):
        with pytest.raises(ValueError, match="a sweep of 8 cells got 4 along axis 1"):
            DiffusionSweep(8, 0.125, 0.3).apply(np.ones((8, 4)), 0.0, 0.0)
        with pytest.raises(ValueError, match="a sweep of 8 cells got 4 along axis 1"):
            torus_sweep(8, 0.3).sweep_axis(np.ones((8, 4)), 0, at=-1)

    @pytest.mark.parametrize("cols, n1", [(5, 7), (20, 96), (20, 3200)])
    def test_dirichlet_block_is_each_lines_sweep_bitwise(self, cols, n1):
        # the block hands dpttrs its transposed right-hand side; each
        # line of it is the 1-d sweep of that line alone
        rng = np.random.default_rng(n1)
        u = rng.standard_normal((cols, n1))
        b_lo, b_hi = rng.standard_normal(cols), rng.standard_normal(cols)
        sweep = DiffusionSweep(n1, 1.0 / n1, 0.37)
        block = sweep.apply(u, b_lo=b_lo, b_hi=b_hi)
        for j in range(cols):
            assert np.array_equal(block[j], sweep.apply(u[j], b_lo=b_lo[j], b_hi=b_hi[j]))

    @pytest.mark.parametrize("shape", [(9, 12), (5, 6, 7)])
    def test_periodic_axis_sweep_matches_lines(self, shape):
        rng = np.random.default_rng(sum(shape))
        u = rng.standard_normal(shape)
        for axis, n in enumerate(shape):
            h, dt = 1.0 / n, 0.37
            sweep = torus_sweep(n, dt)
            got = sweep.sweep_axis(u, 0, at=axis)
            lines = np.moveaxis(got, axis, -1).reshape(-1, n)
            for line, col in zip(lines, np.moveaxis(u, axis, -1).reshape(-1, n)):
                assert np.max(np.abs(line - sweep.sweep_axis(col, 0))) < 1e-13
                ref = dense_reference(n, h, dt, True, col)
                assert np.max(np.abs(line - ref)) < 1e-13

    @pytest.mark.parametrize("shape", [(5, 33), (3, 4, 17)])
    def test_dirichlet_block_matches_dense_solve(self, shape):
        rng = np.random.default_rng(sum(shape))
        n, h, dt = shape[-1], 1.0 / shape[-1], 0.37
        u = rng.standard_normal(shape)
        b_lo, b_hi = rng.standard_normal(shape[:-1]), rng.standard_normal(shape[:-1])
        got = DiffusionSweep(n, h, dt).apply(u, b_lo=b_lo, b_hi=b_hi)
        for idx in np.ndindex(*shape[:-1]):
            ref = dense_reference(n, h, dt, False, u[idx], b_lo[idx], b_hi[idx])
            assert np.max(np.abs(got[idx] - ref)) < 1e-13

    @pytest.mark.parametrize("periodic", [True, False])
    def test_fortran_order_input_is_bitwise_c_order(self, periodic):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((20, 6, 7))
        uf = np.asfortranarray(u)
        ghosts = dict(b_lo=rng.standard_normal((20, 6)), b_hi=rng.standard_normal((20, 6)))
        if periodic:
            stepper = TorusStepper(TorusSpec(u.shape), 2 * 0.37)
            for axis in range(3):
                assert np.array_equal(stepper.sweep_axis(uf, axis), stepper.sweep_axis(u, axis))
        else:
            sweep = DiffusionSweep(7, 1.0 / 7, 0.37)
            assert np.array_equal(sweep.apply(uf, **ghosts), sweep.apply(u, **ghosts))

    @pytest.mark.parametrize("n", [4, 7, 16, 20, 128])
    def test_circulant_is_symmetric_and_conserves_the_mean(self, n):
        (op,) = torus_sweep(n, 0.37)._ops
        assert np.max(np.abs(op - op.T)) <= 1e-16
        assert np.max(np.abs(op.sum(axis=1) - 1.0)) <= 1e-15


class TestTorusSweepReference:
    """`TorusStepper.sweep_axis` is the parent's periodic sweep, bitwise."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("sizes", [(12,), (4, 20), (16, 16), (6, 5, 7)])
    @pytest.mark.parametrize("dt", [0.37, 0.0031])
    def test_every_axis_of_a_torus_field(self, sizes, order, dt):
        rng = np.random.default_rng(sum(sizes))
        u = np.asarray(rng.standard_normal(sizes), order=order)
        spec = TorusSpec(sizes)
        stepper = TorusStepper(spec, dt)
        for axis, (m, h) in enumerate(zip(spec.sizes, spec.spacings)):
            ref = ParentPeriodicSweep(m, h, dt / 2.0).apply(u, axis=axis)
            assert np.array_equal(stepper.sweep_axis(u, axis), ref)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("sizes, n1", [((24, 8), 40), ((10, 6, 5), 33)])
    def test_x1_last_cylinder_field_through_at(self, sizes, n1, order):
        # direction d >= 1 of a cylinder field lies on array axis d - 1
        rng = np.random.default_rng(n1)
        v = np.asarray(rng.standard_normal((*sizes[1:], n1)), order=order)
        spec, dt = TorusSpec(sizes, (0.5,) + (0.0,) * (len(sizes) - 1)), 0.0125
        stepper = TorusStepper(spec, dt)
        for axis in range(1, len(sizes)):
            ref = ParentPeriodicSweep(sizes[axis], spec.spacings[axis], dt / 2.0).apply(
                v, axis=axis - 1)
            assert np.array_equal(stepper.sweep_axis(v, axis, axis - 1), ref)


class TestAdvection:
    def test_constant_state_is_fixed_point(self):
        flux = burgers(2)
        u = np.full((16, 8), 0.3)
        rhs = advective_rhs(u, flux, (0.1, 0.125))
        assert np.max(np.abs(rhs)) < 1e-14

    def test_linear_advection_convergence_order(self):
        # translate a sine one period with Heun + upwind-biased fluxes
        errs = []
        for n in (64, 128, 256):
            flux = linear_flux(1, [1.0])
            h = 1.0 / n
            x = np.arange(n) * h
            u = np.sin(2 * np.pi * x)
            dt = 0.2 * h
            steps = int(round(0.5 / dt))
            v = u.copy()
            for _ in range(steps):
                v = advect(v, flux, (h,), dt)
            exact = np.sin(2 * np.pi * (x - steps * dt))
            errs.append(np.max(np.abs(v - exact)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.9

    def test_conservation_periodic(self):
        rng = np.random.default_rng(2)
        flux = burgers(2)
        u = 0.1 * rng.standard_normal((16, 16))
        u -= u.mean()
        v = advect(u, flux, (1 / 16, 1 / 16), 0.01)
        assert abs(v.sum()) < 1e-12

    def test_ghost_padding_matches_periodic_for_tiled_data(self):
        # a periodic field with matching ghost rows sees no boundary
        rng = np.random.default_rng(4)
        flux = burgers(1)
        m = 10
        base = 0.2 * rng.standard_normal(m)
        tiles = np.tile(base, 4)
        ghosts_lo = tiles[np.array([-2, -1]) % m]
        ghosts_hi = tiles[np.array([0, 1]) % m]
        rhs_bounded = advective_rhs(tiles, flux, (0.1,), ghosts=(ghosts_lo, ghosts_hi))
        rhs_periodic = advective_rhs(base, flux, (0.1,))
        assert np.max(np.abs(rhs_bounded - np.tile(rhs_periodic, 4))) < 1e-14


def x1_last(a):
    """The x1-last, C-contiguous copy of an x1-first array, as a cylinder march holds it."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def bounded_rhs(values, flux, spacings, ghosts):
    """advective_rhs of the x1-first `values` and (2, *transverse) `ghosts`,
    taken in the x1-last layout and moved back x1-first."""
    got = advective_rhs(x1_last(values), flux, spacings, tuple(x1_last(g) for g in ghosts))
    return np.moveaxis(got, -1, 0)


class TestAdvectionKernelReference:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.lists(st.integers(4, 9), min_size=1, max_size=3),
        flux_name=st.sampled_from(sorted(FLUXES)),
        with_ghosts=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_to_reference(self, shape, flux_name, with_ghosts, seed):
        rng = np.random.default_rng(seed)
        flux = FLUXES[flux_name](len(shape))
        values = 1.0 + 0.5 * rng.standard_normal(shape)
        spacings = tuple(rng.uniform(0.05, 0.5, len(shape)))
        ghosts = None
        if with_ghosts:
            ghosts = tuple(1.0 + 0.5 * rng.standard_normal((2, *shape[1:])) for _ in range(2))
            got = bounded_rhs(values, flux, spacings, ghosts)
        else:
            got = advective_rhs(values, flux, spacings)
        ref = reference_advective_rhs(values, flux, spacings, ghosts)
        assert np.array_equal(got, ref)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.lists(st.integers(4, 24), min_size=1, max_size=3),
        flux_name=st.sampled_from(sorted(FLUXES)),
        seed=st.integers(0, 2**16),
    )
    def test_x1_last_with_ghosts_is_the_x1_first_reference_bitwise(self, shape, flux_name,
                                                                   seed):
        # four levels, so neighbours tie exactly: zero slopes, zero jumps
        # and equal wave speeds of opposite sign
        rng = np.random.default_rng(seed)
        levels = np.array([-1.0, -0.5, 0.5, 1.0])
        flux = FLUXES[flux_name](len(shape))
        values = levels[rng.integers(0, 4, shape)]
        ghosts = tuple(levels[rng.integers(0, 4, (2, *shape[1:]))] for _ in range(2))
        spacings = tuple(rng.uniform(0.05, 0.5, len(shape)))
        got = bounded_rhs(values, flux, spacings, ghosts)
        assert np.array_equal(got, reference_advective_rhs(values, flux, spacings, ghosts))


def parent_advective_rhs(values, flux, spacings, ghosts=None):
    """`advective_rhs` as it was before each direction's temporaries
    were freed before the next direction's: the reference it must
    reproduce bitwise."""
    along = lambda axis, start, stop: (slice(None),) * axis + (slice(start, stop),)
    axes = range(values.ndim)
    if ghosts is not None:
        axes = (values.ndim - 1, *axes[:-1])
    out = None
    for d, (axis, h) in enumerate(zip(axes, spacings)):
        if d == 0 and ghosts is not None:
            lo, hi = ghosts
        else:
            lo, hi = values[along(axis, -2, None)], values[along(axis, None, 2)]
        p = np.concatenate([lo, values, hi], axis=axis)
        slope = p[along(axis, 2, None)] - p[along(axis, None, -2)]
        slope *= 0.25
        ul = p[along(axis, 1, -2)] + slope[along(axis, None, -1)]
        ur = slope[along(axis, 1, None)]
        np.subtract(p[along(axis, 2, -1)], ur, out=ur)
        a = np.abs(flux.df[d](ul))
        np.maximum(a, np.abs(flux.df[d](ur)), out=a)
        face = flux.f[d](ul) + flux.f[d](ur)
        ur -= ul
        a *= ur
        face -= a
        left, right = face[along(axis, None, -1)], face[along(axis, 1, None)]
        if out is None:
            out = left - right
            out /= 2.0 * h
        else:
            diff = right - left
            diff /= 2.0 * h
            out -= diff
    return out


class TestParentKernelReference:
    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.lists(st.integers(4, 9), min_size=1, max_size=3),
        flux_name=st.sampled_from(sorted(FLUXES)),
        with_ghosts=st.booleans(),
        ties=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_to_the_parent_kernel(self, shape, flux_name, with_ghosts, ties, seed):
        # x1-last with ghosts, every axis periodic without; with ties,
        # neighbours repeat exactly, so zero slopes, jumps and fluxes
        # differences arise and their signs are compared as well
        rng = np.random.default_rng(seed)
        levels = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        draw = ((lambda s: levels[rng.integers(0, 5, s)]) if ties
                else (lambda s: 1.0 + 0.5 * rng.standard_normal(s)))
        flux = FLUXES[flux_name](len(shape))
        values = draw(shape)
        spacings = tuple(rng.uniform(0.05, 0.5, len(shape)))
        ghosts = tuple(draw((*shape[:-1], 2)) for _ in range(2)) if with_ghosts else None
        got = advective_rhs(values, flux, spacings, ghosts)
        want = parent_advective_rhs(values, flux, spacings, ghosts)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestTorusConservation:
    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(4, 12), min_size=1, max_size=3),
        ubar=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_step_conserves_mean(self, sizes, ubar, seed):
        rng = np.random.default_rng(seed)
        spec = TorusSpec(sizes=tuple(sizes))
        flux = burgers(spec.ndim)
        u = ubar + 0.2 * rng.standard_normal(spec.sizes)
        dt = max_advective_dt(flux, spec.spacings, float(u.min()), float(u.max()), 0.4)
        stepper = TorusStepper(spec, dt)
        mean0 = float(np.mean(u))
        (u,) = march((u,), (3, dt, {3}), spec.ndim,
                     lambda s, axis: (stepper.sweep_axis(s[0], axis),),
                     lambda s: (advective_rhs(s[0], flux, spec.spacings),),
                     lambda s, t: check_cfl(s[0], flux, spec.spacings, dt, t),
                     lambda k, s: s[0])
        assert abs(float(np.mean(u)) - mean0) < 1e-14


class TestStrangStep:
    def test_composition_order_and_heun_stage(self):
        calls = []

        def sweep(state, axis):
            calls.append(axis)
            return tuple(0.5 * u for u in state)

        (u, w) = strang_step([(np.array([8.0]), np.array([4.0]))], 0.1, 2, sweep,
                             lambda s: tuple(-u for u in s))
        assert calls == [0, 1, 0, 1]
        heun = 1.0 - 0.1 + 0.5 * 0.1**2
        assert u[0] == pytest.approx(8.0 / 16 * heun, rel=1e-15)
        assert w[0] == pytest.approx(4.0 / 16 * heun, rel=1e-15)


class TestMarch:
    """The one step/record loop: each step adds dt to the state, since the
    right-hand side is 1 and there is no diffusion axis."""

    def march_ones(self, plan):
        checked = []
        kept = list(march((np.zeros(1),), plan, 0, None, lambda s: (np.ones(1),),
                          lambda s, t: checked.append((t, s[0][0])),
                          lambda k, s: (k, s[0][0])))
        return kept, checked

    def test_records_the_plan_and_checks_every_step(self):
        kept, checked = self.march_ones((5, 0.25, {0, 2, 5}))
        assert kept == [(0, 0.0), (2, 0.5), (5, 1.25)]
        assert checked == [((k + 1) * 0.25, (k + 1) * 0.25) for k in range(5)]

    def test_takes_the_plans_steps_past_its_last_record(self):
        kept, checked = self.march_ones((4, 0.5, {1}))
        assert kept == [(1, 0.5)] and len(checked) == 4

    def test_a_consumer_that_stops_takes_no_later_step(self):
        checked = []
        kept = march((np.zeros(1),), (5, 0.25, {2, 5}), 0, None, lambda s: (np.ones(1),),
                     lambda s, t: checked.append(t), lambda k, s: (k, s[0][0]))
        assert next(kept) == (2, 0.5)
        assert checked == [0.25, 0.5]

    def test_nan_on_the_last_step_aborts(self):
        calls = []

        def rhs(state):
            calls.append(1)
            return (np.full(1, np.nan if len(calls) > 6 else 1.0),)

        flux = burgers(1)
        with pytest.raises(NumericalAbort) as info:
            list(march((np.zeros(1),), (4, 0.1, {4}), 0, None, rhs,
                       lambda s, t: check_cfl(s[0], flux, (1.0,), 0.1, t),
                       lambda k, s: pytest.fail("a NaN state was kept")))
        assert len(calls) == 8  # two Heun stages in each of the 4 steps
        assert info.value.reason == "cfl" and info.value.t == pytest.approx(0.4)


class TestStepSchedule:
    def test_shrinks_dt_to_a_whole_number_of_steps(self):
        steps, dt, record = step_schedule(1.0, 0.3, None, (0.5, 1.0))
        assert steps == 4 and dt == 0.25
        assert record == {2, 4}

    def test_requested_dt_and_rounded_snapshots(self):
        steps, dt, record = step_schedule(2.0, 1.0, 0.1, (0.0, 0.31, 2.0))
        assert steps == 20 and dt == pytest.approx(0.1)
        assert record == {0, 3, 20}

    @pytest.mark.parametrize("span, steps", [(0.5, 49), (0.55, 30), (0.6, 111)])
    def test_dt_dividing_the_span_keeps_its_steps(self, span, steps):
        # span / (span / steps) exceeds steps by an ulp for these pairs
        assert step_schedule(span, 1.0, span / steps, ())[:2] == (steps, span / steps)

    def test_final_step_by_default(self):
        assert step_schedule(1.0, 0.3, None, ())[2] == {4}

    @pytest.mark.parametrize("span, dt",
                             [(0.5, 1e-300), (0.5, 1e-9), (1.0, 1.0 / (MAX_STEPS + 1))],
                             ids=["subnormal-dt", "nanosecond-dt", "one-step-past"])
    def test_a_step_count_past_the_cap_is_rejected(self, span, dt):
        with pytest.raises(ValueError) as exc:
            step_schedule(span, 1.0, dt, ())
        assert str(exc.value) == (f"t_end / dt = {span:g} / {dt:g} takes more than "
                                  f"{MAX_STEPS} steps")

    def test_a_step_count_at_the_cap_is_a_schedule(self):
        assert step_schedule(1.0, 1.0, 1.0 / MAX_STEPS, ())[0] == MAX_STEPS

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            step_schedule(1.0, 0.3, dt, ())

    def test_dt_above_stable_aborts(self):
        with pytest.raises(NumericalAbort) as exc:
            step_schedule(1.0, 0.3, 0.31, ())
        assert exc.value.reason == "cfl"

    def test_bad_span_and_snapshot_rejected(self):
        with pytest.raises(ValueError):
            step_schedule(0.0, 0.3, None, ())
        with pytest.raises(ValueError, match="outside"):
            step_schedule(1.0, 0.3, None, (1.5,))


class TestCFL:
    def test_max_dt_scales_with_speed(self):
        flux = burgers(1)
        dt1 = max_advective_dt(flux, (0.1,), -1.0, 1.0, 0.4)
        dt2 = max_advective_dt(flux, (0.1,), -2.0, 2.0, 0.4)
        assert dt1 == pytest.approx(2 * dt2)

    def test_violation_raises(self):
        flux = burgers(1)
        u = np.full(8, 2.0)
        with pytest.raises(NumericalAbort) as exc:
            check_cfl(u, flux, (0.1,), dt=0.2, t=1.0)
        assert exc.value.reason == "cfl"

    def test_returns_the_courant_number(self):
        u = np.array([0.5, -2.0, 1.0])
        assert check_cfl(u, burgers(1), (0.1,), dt=0.01, t=0.0) == pytest.approx(0.2)

    def test_each_distinct_derivative_reads_the_state_once(self):
        # directions 0 and 2 share one derivative function, as every
        # Burgers direction does: it is evaluated once per check
        calls = []

        def counted(df, name):
            return lambda u: calls.append(name) or df(u)

        speed, slow = counted(burgers(1).df[0], "speed"), counted(lambda u: 0.25 + 0 * u, "slow")
        flux = FluxSet(f=burgers(3).f, df=(speed, slow, speed), d2f=burgers(3).d2f)
        u = np.array([0.5, -2.0, 1.0])
        got = check_cfl(u, flux, (0.1, 0.2, 0.4), dt=0.01, t=0.0)
        assert sorted(calls) == ["slow", "speed"]
        assert got == 0.01 * (2.0 / 0.1 + 0.25 / 0.2 + 2.0 / 0.4)

    def test_distinct_speeds_add_in_direction_order(self):
        flux = linear_flux(3, [1.0, -0.5, 2.0])
        spacings = (0.1, 0.3, 0.7)
        got = check_cfl(np.full((4, 4, 4), 0.2), flux, spacings, dt=0.01, t=0.0)
        assert got == 0.01 * (1.0 / 0.1 + 0.5 / 0.3 + 2.0 / 0.7)
        assert max_advective_dt(flux, spacings, -1.0, 1.0, 0.4) == 0.4 / (
            1.0 / 0.1 + 0.5 / 0.3 + 2.0 / 0.7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_raises(self, bad):
        u = np.full(8, 0.1)
        u[3] = bad
        with pytest.raises(NumericalAbort) as exc:
            check_cfl(u, burgers(1), (0.1,), dt=0.01, t=1.0)
        assert exc.value.reason == "cfl"
        assert "not finite" in str(exc.value)


class TestFluxSets:
    def test_convexity_check(self):
        burgers(1).check_convexity(-5.0, 5.0)
        with pytest.raises(ValueError):
            cubic(1).check_convexity(-1.0, 1.0)
        cubic(1).check_convexity(0.6, 2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("make_flux", [burgers, cubic])
    @pytest.mark.parametrize("umin, umax", [(-9.8e307, 9.8e307), (-1e308, 1e308)])
    def test_a_range_whose_width_overflows_fails(self, make_flux, umin, umax):
        # np.linspace samples such a range as NaN, and NaN < A0 is False:
        # the cubic check once passed it, with numpy's warning
        with pytest.raises(ValueError, match="too wide to sample"):
            make_flux(1).check_convexity(umin, umax)
        with pytest.raises(ValueError, match="wave speed .* is not finite"):
            max_advective_dt(make_flux(1), (0.1,), umin, umax, 0.4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_curvature_that_is_not_finite_fails(self):
        # 2u overflows at the top of this range, whose least f_1'' is 1.2
        with pytest.raises(ValueError, match="f_1'' is not finite on"):
            cubic(1).check_convexity(0.6, 1e308)
        nan_top = FluxSet(f=burgers(1).f, df=burgers(1).df,
                          d2f=(lambda u: np.where(u > 1.0, np.nan, 2.0),))
        with pytest.raises(ValueError, match="not finite"):
            nan_top.check_convexity(0.0, 2.0)
        nan_top.check_convexity(0.0, 1.0)

    def test_an_ordinary_range_keeps_its_samples(self):
        seen = []
        flux = FluxSet(f=burgers(1).f, df=burgers(1).df,
                       d2f=(lambda u: seen.append(u) or 2.0 * u,))
        flux.check_convexity(0.6, 2.0)
        assert np.array_equal(seen[0], np.linspace(0.6, 2.0, 2001))

    def test_linear_flux_degenerate_line_direction(self):
        with pytest.raises(ValueError):
            linear_flux(2, [1.0, 0.5]).check_convexity(-1.0, 1.0)

    def test_from_name(self):
        # the config key `flux` names a flux set
        assert len(_flux({"flux": "burgers"}, 3).f) == 3
        assert _flux({"flux": "linear:1,2"}, 2).df[1](np.float64(0.0)) == 2.0
        with pytest.raises(ValueError):
            _flux({"flux": "what"}, 2)
