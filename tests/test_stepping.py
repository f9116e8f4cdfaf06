import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelab.errors import NumericalAbort
from rarelab.cli import _flux
from rarelab.fluxes import burgers, cubic, linear_flux
from rarelab.periodic import TorusSpec, TorusStepper
from rarelab.stepping import (
    DiffusionSweep,
    advective_rhs,
    check_cfl,
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
    (out,) = strang_step((values,), dt, 0, None,
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


class TestDiffusionSweep:
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("n", [5, 16, 33, 128])
    def test_matches_dense_solve(self, periodic, n):
        rng = np.random.default_rng(n)
        h, dt = 1.0 / n, 0.37
        u = rng.standard_normal(n)
        sweep = DiffusionSweep(n, h, dt, periodic=periodic)
        got = sweep.apply(u, b_lo=0.2, b_hi=-0.4)
        ref = dense_reference(n, h, dt, periodic, u, 0.2, -0.4)
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_multicolumn_consistent(self):
        rng = np.random.default_rng(0)
        sweep = DiffusionSweep(12, 0.1, 0.05, periodic=True)
        u = rng.standard_normal((12, 7))
        block = sweep.apply(u)
        for j in range(7):
            assert np.allclose(block[:, j], sweep.apply(u[:, j]), atol=1e-14)

    def test_heat_mode_decay_rate(self):
        # CN factor for one Fourier mode matches (1 + z/2)/(1 - z/2)
        n, h = 64, 1.0 / 64
        dt = 1e-3
        x = np.arange(n) * h
        u = np.sin(2 * np.pi * x)
        lam = (2 * np.cos(2 * np.pi * h) - 2) / h**2
        expect = (1 + dt * lam / 2) / (1 - dt * lam / 2)
        sweep = DiffusionSweep(n, h, dt, periodic=True)
        got = sweep.apply(u)
        assert np.max(np.abs(got - expect * u)) < 1e-13

    def test_constant_preserved_periodic(self):
        sweep = DiffusionSweep(8, 0.125, 0.3, periodic=True)
        u = np.full(8, 0.7)
        assert np.allclose(sweep.apply(u), 0.7, atol=1e-15)

    def test_dirichlet_requires_ghosts(self):
        sweep = DiffusionSweep(8, 0.125, 0.3, periodic=False)
        with pytest.raises(ValueError):
            sweep.apply(np.ones(8))

    def test_dirichlet_runs_along_axis_zero(self):
        sweep = DiffusionSweep(8, 0.125, 0.3, periodic=False)
        with pytest.raises(ValueError, match="axis 0"):
            sweep.apply(np.ones((4, 8)), b_lo=0.0, b_hi=0.0, axis=1)

    @pytest.mark.parametrize("shape", [(9, 12), (5, 6, 7)])
    def test_periodic_axis_sweep_matches_lines(self, shape):
        rng = np.random.default_rng(sum(shape))
        u = rng.standard_normal(shape)
        for axis, n in enumerate(shape):
            h, dt = 1.0 / n, 0.37
            sweep = DiffusionSweep(n, h, dt, periodic=True)
            got = sweep.apply(u, axis=axis)
            lines = np.moveaxis(got, axis, -1).reshape(-1, n)
            for line, col in zip(lines, np.moveaxis(u, axis, -1).reshape(-1, n)):
                assert np.max(np.abs(line - sweep.apply(col))) < 1e-13
                ref = dense_reference(n, h, dt, True, col)
                assert np.max(np.abs(line - ref)) < 1e-13

    @pytest.mark.parametrize("shape", [(33, 5), (17, 3, 4)])
    def test_dirichlet_block_matches_dense_solve(self, shape):
        rng = np.random.default_rng(sum(shape))
        n, h, dt = shape[0], 1.0 / shape[0], 0.37
        u = rng.standard_normal(shape)
        b_lo, b_hi = rng.standard_normal(shape[1:]), rng.standard_normal(shape[1:])
        got = DiffusionSweep(n, h, dt, periodic=False).apply(u, b_lo=b_lo, b_hi=b_hi)
        for idx in np.ndindex(*shape[1:]):
            col = (slice(None), *idx)
            ref = dense_reference(n, h, dt, False, u[col], b_lo[idx], b_hi[idx])
            assert np.max(np.abs(got[col] - ref)) < 1e-13

    @pytest.mark.parametrize("periodic", [True, False])
    def test_fortran_order_input_is_bitwise_c_order(self, periodic):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((20, 6, 7))
        uf = np.asfortranarray(u)
        ghosts = dict(b_lo=rng.standard_normal((6, 7)), b_hi=rng.standard_normal((6, 7)))
        for axis in range(3) if periodic else (0,):
            n = u.shape[axis]
            sweep = DiffusionSweep(n, 1.0 / n, 0.37, periodic=periodic)
            kw = dict(axis=axis) if periodic else ghosts
            assert np.array_equal(sweep.apply(uf, **kw), sweep.apply(u, **kw))

    @pytest.mark.parametrize("n", [4, 7, 16, 20, 128])
    def test_circulant_is_symmetric_and_conserves_the_mean(self, n):
        op = DiffusionSweep(n, 1.0 / n, 0.37, periodic=True)._op
        assert np.max(np.abs(op - op.T)) <= 1e-16
        assert np.max(np.abs(op.sum(axis=1) - 1.0)) <= 1e-15


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
        got = advective_rhs(values, flux, spacings, ghosts)
        ref = reference_advective_rhs(values, flux, spacings, ghosts)
        assert np.array_equal(got, ref)


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
        stepper = TorusStepper(spec, flux, dt)
        mean0 = float(np.mean(u))
        for k in range(3):
            u = stepper.step(u, k * dt)
        assert abs(float(np.mean(u)) - mean0) < 1e-14


class TestStrangStep:
    def test_composition_order_and_heun_stage(self):
        calls = []

        def sweep(state, axis):
            calls.append(axis)
            return tuple(0.5 * u for u in state)

        (u, w) = strang_step((np.array([8.0]), np.array([4.0])), 0.1, 2, sweep,
                             lambda s: tuple(-u for u in s))
        assert calls == [0, 1, 0, 1]
        heun = 1.0 - 0.1 + 0.5 * 0.1**2
        assert u[0] == pytest.approx(8.0 / 16 * heun, rel=1e-15)
        assert w[0] == pytest.approx(4.0 / 16 * heun, rel=1e-15)


class TestStackedFarField:
    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(4, 9), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_stack_is_bitwise_two_fields(self, sizes, seed):
        rng = np.random.default_rng(seed)
        spec = TorusSpec(sizes=tuple(sizes))
        flux = burgers(spec.ndim)
        pair = [c + 0.2 * rng.standard_normal(spec.sizes) for c in (-0.5, 0.5)]
        stack = np.stack(pair)
        rhs = advective_rhs(stack, flux, spec.spacings)
        stepper = TorusStepper(spec, flux, 0.01)
        for i, u in enumerate(pair):
            assert np.array_equal(rhs[i], advective_rhs(u, flux, spec.spacings))
            for axis in range(spec.ndim):
                assert np.array_equal(stepper.sweep_axis(stack, axis - spec.ndim)[i],
                                      stepper.sweep_axis(u, axis))


class TestStepSchedule:
    def test_shrinks_dt_to_a_whole_number_of_steps(self):
        steps, dt, record = step_schedule(1.0, 0.3, None, 0.0, (0.5, 1.0))
        assert steps == 4 and dt == 0.25
        assert record == {2, 4}

    def test_requested_dt_and_start_offset(self):
        steps, dt, record = step_schedule(2.0, 1.0, 0.1, 5.0, (5.0, 5.31, 7.0))
        assert steps == 20 and dt == pytest.approx(0.1)
        assert record == {0, 3, 20}

    @pytest.mark.parametrize("span, steps", [(0.5, 49), (0.55, 30), (0.6, 111)])
    def test_dt_dividing_the_span_keeps_its_steps(self, span, steps):
        # span / (span / steps) exceeds steps by an ulp for these pairs
        assert step_schedule(span, 1.0, span / steps, 0.0, ())[:2] == (steps, span / steps)

    def test_final_step_by_default(self):
        assert step_schedule(1.0, 0.3, None, 0.0, ())[2] == {4}

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            step_schedule(1.0, 0.3, dt, 0.0, ())

    def test_dt_above_stable_aborts(self):
        with pytest.raises(NumericalAbort) as exc:
            step_schedule(1.0, 0.3, 0.31, 0.0, ())
        assert exc.value.reason == "cfl"

    def test_bad_span_and_snapshot_rejected(self):
        with pytest.raises(ValueError):
            step_schedule(0.0, 0.3, None, 0.0, ())
        with pytest.raises(ValueError, match="outside"):
            step_schedule(1.0, 0.3, None, 0.0, (1.5,))


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

    def test_linear_flux_degenerate_line_direction(self):
        with pytest.raises(ValueError):
            linear_flux(2, [1.0, 0.5]).check_convexity(-1.0, 1.0)

    def test_from_name(self):
        # the config key `flux` names a flux set
        assert _flux({"flux": "burgers"}, 3).n == 3
        assert _flux({"flux": "linear:1,2"}, 2).df[1](np.float64(0.0)) == 2.0
        with pytest.raises(ValueError):
            _flux({"flux": "what"}, 2)
