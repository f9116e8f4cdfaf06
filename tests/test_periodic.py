import struct

import numpy as np
import pytest

from rarelab import periodic, stepping
from rarelab.domain import MAX_CELLS
from rarelab.errors import ConfigError, NumericalAbort
from rarelab.fluxes import burgers
from rarelab.periodic import (
    TorusSpec,
    schedule,
    solve_periodic,
    spectral_derivative,
    w_sup_norms,
    write_periodic_series,
)
from rarelab.rates import log_linear_fit
from rarelab.stepping import strang_step

FLUX = burgers(2)


def solve(w0, t_end, times, spec, dt=None):
    """The torus run from -0.5 + w0 over the plan `schedule` draws."""
    return solve_periodic(w0, -0.5, FLUX, spec, schedule(w0, -0.5, FLUX, spec, t_end, times, dt))


def product_mode(spec, amp=0.1, k=(1, 1)):
    mesh = np.meshgrid(*spec.coordinates(), indexing="ij")
    out = np.full(spec.sizes, amp)
    for kk, x in zip(k, mesh):
        out = out * np.sin(2 * np.pi * kk * x)
    return out


class TestTorusSpec:
    @pytest.mark.parametrize("sizes", [(100_000, 100_000), (MAX_CELLS // 4 + 1, 4)],
                             ids=["1e10-points", "one-row-past"])
    def test_a_grid_past_the_cell_cap_is_rejected(self, sizes):
        # checked on the spec, before any array of that size exists
        with pytest.raises(ValueError) as exc:
            TorusSpec(sizes=sizes)
        assert str(exc.value) == f"torus sizes {sizes} hold more than {MAX_CELLS} points"

    def test_a_grid_at_the_cell_cap_is_a_spec(self):
        assert TorusSpec(sizes=(MAX_CELLS // 4, 4)).sizes == (MAX_CELLS // 4, 4)


class TestSolvePeriodic:
    def test_zero_disturbance_stays_constant(self):
        spec = TorusSpec(sizes=(16, 16))
        states = solve(np.zeros(spec.sizes), 0.2, (0.1, 0.2), spec)
        for _, v in states:
            assert np.max(np.abs(v + 0.5)) < 1e-14

    def test_nonzero_mean_rejected(self):
        spec = TorusSpec(sizes=(8, 8))
        with pytest.raises(ConfigError):
            schedule(np.full(spec.sizes, 0.01), 0.0, FLUX, spec, 0.1, (0.1,))

    def test_nan_on_the_last_step_aborts(self, monkeypatch):
        steps = []

        def nan_last(held, dt, ndim, sweep, rhs):
            steps.append(dt)
            out = strang_step(held, dt, ndim, sweep, rhs)
            return tuple(np.full_like(u, np.nan) for u in out) if len(steps) == 10 else out

        monkeypatch.setattr(stepping, "strang_step", nan_last)
        spec = TorusSpec(sizes=(8, 8))
        with pytest.raises(NumericalAbort) as info:
            solve(product_mode(spec), 0.01, (0.01,), spec, dt=1e-3)
        assert len(steps) == 10
        assert info.value.reason == "cfl" and info.value.t == pytest.approx(0.01)

    @pytest.mark.parametrize("sizes, k", [((8, 6), (1, 1)), ((6, 8, 5), (1, 2, 1))])
    def test_a_recorded_array_is_never_written_again(self, monkeypatch, sizes, k):
        # the run keeps the march's own arrays, uncopied: each must still
        # hold, once the march has finished, what it held when recorded
        copies, march = [], periodic.march

        def copying(*args):
            for t, values in march(*args):
                copies.append(values.copy())
                yield t, values

        monkeypatch.setattr(periodic, "march", copying)
        spec = TorusSpec(sizes=sizes)
        flux = burgers(len(sizes))
        w0 = product_mode(spec, k=k)
        plan = schedule(w0, -0.5, flux, spec, 0.05, np.linspace(0.0, 0.05, 11), 2.5e-3)
        states = solve_periodic(w0, -0.5, flux, spec, plan)
        assert len(states) == len(copies) == 11
        for (_, values), copy in zip(states, copies):
            assert np.array_equal(values, copy)

    def test_mean_preserved_along_the_run(self):
        spec = TorusSpec(sizes=(16, 16))
        w0 = product_mode(spec)
        states = solve(w0, 0.2, np.linspace(0.02, 0.2, 10), spec, dt=1e-3)
        for _, v in states:
            assert abs(float(np.mean(v)) + 0.5) <= 1e-10

    def test_dissipation_shrinks_sup(self):
        spec = TorusSpec(sizes=(24, 24))
        w0 = product_mode(spec)
        states = solve(w0, 1.0, (1.0,), spec, dt=2e-3)
        assert np.max(np.abs(states[0][1] + 0.5)) < np.max(np.abs(w0))

    def test_sup_nonincreasing_per_snapshot(self):
        spec = TorusSpec(sizes=(20, 20))
        w0 = product_mode(spec) + product_mode(spec, amp=0.02, k=(2, 1))
        states = solve(w0, 0.3, np.linspace(0.003, 0.3, 100), spec, dt=1e-3)
        sups = [np.max(np.abs(v + 0.5)) for _, v in states]
        for a, b in zip(sups[:-1], sups[1:]):
            assert b <= a + 1e-10

    def test_w1inf_monotone_after_transient(self):
        spec = TorusSpec(sizes=(24, 24))
        w0 = product_mode(spec)
        times = np.linspace(0.01, 0.6, 60)
        states = solve(w0, 0.6, times, spec, dt=1e-3)
        w1 = [max(w_sup_norms(v + 0.5)) for _, v in states]
        start = next(i for i, (t, _) in enumerate(states) if t >= 0.5)
        for a, b in zip(w1[start:-1], w1[start + 1:]):
            assert b <= a * (1 + 1e-10)


class TestDecayFit:
    # the periodic experiment fits log(norm) on t and reads alpha = -slope / 2
    def test_exact_exponential(self):
        t = np.linspace(0, 2, 40)
        slope, _, r2, _ = log_linear_fit(t, t, np.exp(-3.0 * t), (0.0, 2.0))
        assert -0.5 * slope == pytest.approx(1.5, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_constant_series(self):
        t = np.linspace(0, 1, 10)
        slope, _, r2, _ = log_linear_fit(t, t, np.full(10, 2.5), (0.0, 1.0))
        assert -0.5 * slope == pytest.approx(0.0, abs=1e-14)
        assert r2 == 1.0

    def test_window_needs_four_points(self):
        with pytest.raises(ValueError):
            log_linear_fit([0, 1, 2], [0, 1, 2], [1, 0.5, 0.2], (0, 2))

    def test_positive_values_required(self):
        with pytest.raises(ValueError):
            log_linear_fit([0, 1, 2, 3], [0, 1, 2, 3], [1, 0.5, 0.0, 0.1], (0, 3))

    def test_burgers_mode_decays_at_heat_rate(self):
        # the slowest surviving pattern has squared wavenumber 2, so the
        # linearized decay rate is 8 pi^2; advection cannot beat it
        spec = TorusSpec(sizes=(32, 32))
        w0 = product_mode(spec)
        t_end = 0.55
        times = np.linspace(0.005, t_end, 110)
        states = solve(w0, t_end, times, spec, dt=1e-3)
        ts = np.array([t for t, _ in states])
        w1 = np.array([max(w_sup_norms(v + 0.5)) for _, v in states])
        sup = np.array([w_sup_norms(v + 0.5)[0] for _, v in states])
        inside = (sup >= 1e-10) & (sup <= 1e-2)
        assert int(np.sum(inside)) >= 4
        window = (float(ts[inside].min()), float(ts[inside].max()))
        slope, _, r2, _ = log_linear_fit(ts, ts, w1, window)
        assert -slope >= 0.9 * 8 * np.pi**2
        assert r2 >= 0.99


class TestSpectralDerivative:
    def test_exact_for_resolved_mode(self):
        spec = TorusSpec(sizes=(16, 16))
        mesh = np.meshgrid(*spec.coordinates(), indexing="ij")
        f = np.sin(2 * np.pi * 3 * mesh[0])
        df = spectral_derivative(f, 0)
        expect = 6 * np.pi * np.cos(2 * np.pi * 3 * mesh[0])
        assert np.max(np.abs(df - expect)) < 1e-10

    def test_offset_grid(self):
        spec = TorusSpec(sizes=(16, 8), offsets=(0.5, 0.0))
        mesh = np.meshgrid(*spec.coordinates(), indexing="ij")
        f = np.cos(2 * np.pi * mesh[1])
        df = spectral_derivative(f, 1)
        assert np.max(np.abs(df + 2 * np.pi * np.sin(2 * np.pi * mesh[1]))) < 1e-10


class TestIO:
    def test_series_csv(self, tmp_path):
        spec = TorusSpec(sizes=(8, 8))
        states = [(float(t), np.full(spec.sizes, 0.25)) for t in range(3)]
        path = tmp_path / "per.csv"
        norms = write_periodic_series(states, 0.25, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,w_sup,grad_w_sup,mean_drift"
        assert len(rows) == 4
        assert norms == [w_sup_norms(v - 0.25) for _, v in states]

    def test_cylinder_reader_rejects_torus_file(self, tmp_path):
        # an all-periodic 8 x 8 state at t = 0 in the old L = 0 header
        from rarelab.domain import read_snapshot

        path = tmp_path / "torus.field"
        path.write_bytes(struct.pack("<qd2qd", 2, 0.0, 8, 8, 0.0)
                         + np.ones((8, 8)).astype("<f8").tobytes())
        with pytest.raises(ValueError, match="L must be positive"):
            read_snapshot(path)
