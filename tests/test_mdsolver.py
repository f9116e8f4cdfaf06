import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelab import mdsolver
from rarelab.domain import DomainSpec
from rarelab.errors import ConfigError, NumericalAbort
from rarelab.fluxes import burgers, cubic
from rarelab.mdsolver import (
    SolverConfig,
    mode_problems,
    run,
    schedule,
    trig_polynomial,
    write_norm_table,
    NORM_COLUMNS,
)

FLUX = burgers(2)


def small_config(**kw):
    base = dict(
        spec=DomainSpec(n=2, L=20, n1=400, n_torus=(10,)),
        flux=FLUX,
        ul=-0.5,
        ur=0.5,
        w0_modes=((1, 1, 0.1),),
        t_end=5.0,
        snapshot_times=(1.0, 5.0),
    )
    base.update(kw)
    return SolverConfig(**base)


class TestValidation:
    def test_reference_style_config_clean(self):
        steps, dt, record = schedule(small_config())
        assert steps * dt == pytest.approx(5.0) and record

    def test_constant_mode_rejected(self):
        with pytest.raises(ConfigError, match="zero-average"):
            schedule(small_config(w0_modes=((0, 0, 0.1),)))

    def test_grid_alignment(self):
        cfg = small_config(spec=DomainSpec(n=2, L=20, n1=414, n_torus=(10,)))
        with pytest.raises(ConfigError, match="unit period"):
            schedule(cfg)

    def test_convexity_on_working_range(self):
        cfg = small_config(flux=cubic(2), ul=-0.5, ur=0.5)
        with pytest.raises(ConfigError, match="a0|f_1''"):
            schedule(cfg)

    def test_modes_the_far_field_cannot_carry(self):
        # L = 20, n1 = 400: 10 far-field points per unit period in x1 and 10 across
        assert schedule(small_config(w0_modes=((4, 4, 0.1), (-4, 0, 0.1))))
        for row in ((5, 1, 0.1), (1, -5, 0.1), (1.5, 1, 0.1)):
            with pytest.raises(ConfigError, match=re.escape(f"w0_modes row {row}")) as exc:
                schedule(small_config(w0_modes=(row,)))
            assert "; " not in str(exc.value)  # the one finding

    def test_findings_are_raised_together_in_order(self):
        cfg = small_config(ul=0.5, ur=-0.5, w0_modes=((0, 0, 0.1),),
                           spec=DomainSpec(n=2, L=20, n1=414, n_torus=(10,)))
        with pytest.raises(ConfigError) as exc:
            schedule(cfg)
        found = str(exc.value).split("; ")
        assert [f.split()[0] for f in found] == ["need", "1/dx1", "mode"]

    def test_one_stable_step_per_schedule(self, monkeypatch):
        calls, bound = [], mdsolver.max_advective_dt
        monkeypatch.setattr(mdsolver, "max_advective_dt",
                            lambda *args: calls.append(args[1:4]) or bound(*args))
        sc = small_config()
        _, dt, _ = schedule(sc)
        # one call, over the disturbed range with every spacing; its bound is the step's
        assert calls == [((sc.spec.dx1, *sc.spec.dx_torus), -0.6, 0.6)]
        assert dt <= bound(sc.flux, calls[0][0], -0.6, 0.6)

    @pytest.mark.parametrize("kw, tail", [
        (dict(ul=0.7, ur=1e155), ["the wave speed on [0.6, 1e+155] is not finite"]),
        (dict(ul=0.7, ur=1.2, w0_modes=((1, 1, 1e200),)),
         ["f_1'' dips to -2e+200 < a0 = 1 on [-1e+200, 1e+200]",
          "the wave speed on [-1e+200, 1e+200] is not finite"]),
    ])
    def test_a_wave_speed_that_overflows_names_the_disturbed_range(self, kw, tail):
        with np.errstate(over="ignore"), pytest.raises(ConfigError) as exc:
            schedule(small_config(flux=cubic(2), **kw))
        assert str(exc.value).split("; ")[-len(tail):] == tail

    @pytest.mark.parametrize("kw, message", [
        (dict(t_end=0.0, snapshot_times=()), "t_end must exceed the start time 0, got 0"),
        (dict(dt=-0.01), "dt must be positive"),
        (dict(snapshot_times=(1.0, 9.0)), "snapshots entry 9.0 lies outside"),
    ])
    def test_step_grid_rules_belong_to_the_schedule(self, kw, message):
        cfg = small_config(**kw)
        with pytest.raises(ValueError, match=message) as exc:
            schedule(cfg)
        assert not isinstance(exc.value, ConfigError)  # no finding on the config itself
        with pytest.raises(ValueError, match=message):
            run(cfg, schedule(cfg))

    def test_run_raises_on_invalid(self):
        cfg = small_config(ul=0.5, ur=-0.5)
        with pytest.raises(ConfigError):
            run(cfg, schedule(cfg))


class TestModeRule:
    def test_every_wavenumber_an_integer_below_half_the_points(self):
        assert mode_problems([(1, 1, 0.1), (0, 3, 0.1), (-1, 0, 0.1)], (4, 8)) == []
        rows = [(2, 1, 0.1), (1, 4, 0.1), (-2, 0, 0.1), (0.5, 1, 0.1)]
        found = mode_problems(rows, (4, 8))
        assert [f"w0_modes row {row}" in msg for row, msg in zip(rows, found)] == [True] * 4
        assert "integer" in found[-1] and "(4, 8) points" in found[0]


def meshgrid_trig_polynomial(modes, coords):
    """trig_polynomial as it was evaluated before its sines broadcast:
    every factor on full coordinate meshes, the reference it must
    reproduce bitwise."""
    mesh = np.meshgrid(*coords, indexing="ij")
    shape = mesh[0].shape if len(mesh) == 1 else np.broadcast(*mesh).shape
    out = np.zeros(shape)
    for *ks, amp in modes:
        term = np.full(shape, float(amp))
        for k, x in zip(ks, mesh):
            if k != 0:
                term = term * np.sin(2.0 * np.pi * k * x)
        out += term
    return out


class TestTrigPolynomial:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 24), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_bitwise_the_meshgrid_evaluation(self, sizes, data):
        # 1-d to 3-d; rows with zero and negative wavenumbers, an all-zero
        # row included, and the half-cell offset of the far-field grid
        n = len(sizes)
        row = st.tuples(*[st.integers(-3, 3)] * n,
                        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))
        modes = data.draw(st.lists(row, max_size=4))
        offset = data.draw(st.sampled_from([0.0, 0.5]))
        coords = tuple((np.arange(m) + offset) / m for m in sizes)
        got = trig_polynomial(modes, coords)
        want = meshgrid_trig_polynomial(modes, coords)
        assert got.shape == want.shape == tuple(sizes)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_the_bench_grids_bitwise(self):
        rows = {2: [(1, 1, 0.1), (0, 2, 0.05), (-1, 0, 0.3)],
                3: [(1, 1, 1, 0.1), (0, 1, 2, 0.05), (0, -2, 0, 0.02)]}
        for coords in ((np.linspace(-80, 80, 3200), np.arange(20) / 20),
                       (np.linspace(-12, 12, 192), np.arange(16) / 16, np.arange(16) / 16)):
            modes = rows[len(coords)]
            assert np.array_equal(trig_polynomial(modes, coords),
                                  meshgrid_trig_polynomial(modes, coords))

    def test_reference_mode(self):
        xs = (np.array([0.25]), np.array([0.25]))
        val = trig_polynomial([(1, 1, 0.1)], xs)
        assert val[0, 0] == pytest.approx(0.1)

    def test_zero_wavenumber_factor_skipped(self):
        xs = (np.array([0.25]), np.array([0.1]))
        val = trig_polynomial([(1, 0, 2.0)], xs)
        assert val[0, 0] == pytest.approx(2.0)

    def test_row_length_must_match_the_grid(self):
        xs = (np.array([0.25]), np.array([0.1]))
        with pytest.raises(ValueError, match="needs 2 wavenumbers"):
            trig_polynomial([(1, 0.1)], xs)


class TestZeroDisturbance:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = small_config(w0_modes=(), t_end=5.0, snapshot_times=(5.0,))
        return run(cfg, schedule(cfg))

    def test_perturbation_at_roundoff(self, result):
        # same-grid backbone: the cylinder run reproduces the 1-d profile
        assert result[0]["phi_linf"][-1] < 1e-12

    def test_max_principle(self, result):
        assert result[1]["max_principle_violation"] <= 1e-10

    def test_boundary_exact(self, result):
        assert result[1]["boundary_mismatch"] == 0.0


class TestPerturbedRun:
    def test_records_the_times_of_its_schedule(self):
        cfg = small_config()
        steps, dt, record = plan = schedule(cfg)
        series, checks = run(cfg, plan)
        assert list(series) == list(NORM_COLUMNS)
        assert list(checks) == ["max_principle_violation", "boundary_mismatch", "max_courant",
                                "planar_at", "cylinder_window", "edge_mass", "truncated_at"]
        assert list(series["t"]) == [k * dt for k in sorted(record)]

    def test_initial_perturbation_vanishes(self):
        cfg = small_config(snapshot_times=(0.0, 1.0))
        series, _ = run(cfg, schedule(cfg))
        assert series["t"][0] == 0.0
        assert series["phi_linf"][0] < 1e-13

    def test_range_stays_inside_data_range(self, monkeypatch):
        # the data range is ul - 0.1 .. ur + 0.1; every new state passes
        # through mdsolver's check_cfl binding
        extremes, check_cfl = [], mdsolver.check_cfl
        monkeypatch.setattr(mdsolver, "check_cfl", lambda v, *args: extremes.append(
            (np.min(v), np.max(v))) or check_cfl(v, *args))
        cfg = small_config()
        steps, _, _ = plan = schedule(cfg)
        assert run(cfg, plan)[1]["max_principle_violation"] <= 1e-10
        assert len(extremes) == steps
        assert all(-0.6 - 1e-10 <= lo and hi <= 0.6 + 1e-10 for lo, hi in extremes)

    def test_v0_sets_initial_perturbation(self, monkeypatch):
        # the record's first norm is |phi|_1, so a spy on lp_norm sees phi
        seen, lp_norm = [], mdsolver.lp_norm
        monkeypatch.setattr(mdsolver, "lp_norm", lambda f, p: seen.append(f) or lp_norm(f, p))
        v0 = lambda x: 0.02 * np.exp(-((x - 3.0) ** 2))
        cfg = small_config(v0=v0, snapshot_times=(0.0,), t_end=1.0)
        run(cfg, schedule(cfg))
        grid_x1 = np.linspace(-20 + 0.05, 20 - 0.05, 400)
        expect = v0(grid_x1)
        got = seen[0].values[:, 0]
        assert seen[0].t == 0.0
        assert np.max(np.abs(got - expect)) < 1e-12


@st.composite
def small_perturbed_configs(draw):
    """2-d and 3-d runs to t = 1 with 1-3 small sine modes on the torus, each
    wavenumber one the grid carries (2|k_d| below its points per unit period:
    4 along x1, n_torus across)."""
    n = draw(st.sampled_from([2, 3]))
    n_torus = tuple(draw(st.lists(st.integers(4, 8), min_size=n - 1, max_size=n - 1)))
    wavenumbers = st.tuples(*(st.integers(0, (m - 1) // 2) for m in (4, *n_torus))).filter(any)
    rows = draw(st.lists(st.tuples(wavenumbers, st.floats(-0.1, 0.1)), min_size=1, max_size=3))
    return small_config(spec=DomainSpec(n=n, L=11, n1=88, n_torus=n_torus), flux=burgers(n),
                        w0_modes=tuple((*ks, amp) for ks, amp in rows),
                        t_end=1.0, snapshot_times=())


class TestMaximumPrinciple:
    @settings(max_examples=25, deadline=None)
    @given(small_perturbed_configs())
    def test_range_never_grows_and_ghosts_match(self, config):
        _, checks = run(config, schedule(config))
        assert checks["max_principle_violation"] <= 1e-10
        assert checks["boundary_mismatch"] == 0.0


class TestDeterminism:
    def test_bitwise_identical_norm_tables(self):
        cfg = small_config(t_end=2.0, snapshot_times=(1.0, 2.0))
        (a, _), (b, _) = run(cfg, schedule(cfg)), run(cfg, schedule(cfg))
        for key in a:
            assert np.array_equal(a[key], b[key]), key


class TestStepCount:
    def test_one_cylinder_check_per_step(self, monkeypatch):
        # the benchmark counts steps as calls of mdsolver's check_cfl binding
        calls, check_cfl = [], mdsolver.check_cfl
        monkeypatch.setattr(mdsolver, "check_cfl",
                            lambda *args: calls.append(args[-1]) or check_cfl(*args))
        cfg = small_config(t_end=2.0, snapshot_times=(1.0,))
        steps, dt, _ = plan = schedule(cfg)
        run(cfg, plan)
        assert len(calls) == steps
        assert calls == [pytest.approx((k + 1) * dt) for k in range(steps)]


class TestAborts:
    def test_cfl_abort(self):
        # the schedule refuses the step; a run handed it anyway aborts
        with pytest.raises(ValueError, match="requested dt=1.000e\\+00 > stable"):
            schedule(small_config(dt=1.0))
        with pytest.raises(NumericalAbort) as exc:
            run(small_config(), (2, 1.0, {2}))
        assert exc.value.reason == "cfl"


class TestNormTable:
    def test_csv_columns(self, tmp_path):
        cfg = small_config(t_end=1.0, snapshot_times=(0.5, 1.0))
        series, _ = run(cfg, schedule(cfg))
        path = tmp_path / "norms.csv"
        write_norm_table(series, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == ",".join(NORM_COLUMNS)
        assert len(rows) == 3
        values = [float(tok) for tok in rows[1].split(",")]
        assert len(values) == len(NORM_COLUMNS)
