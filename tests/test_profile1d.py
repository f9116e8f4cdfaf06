import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from rarelab import profile1d, stepping
from rarelab.domain import DomainSpec, Field, derivative, make_grid, read_snapshot, write_snapshot
from rarelab.errors import NumericalAbort
from rarelab.fluxes import FluxSet, burgers, cubic, linear_flux
from rarelab.profile1d import (
    PROFILE_COLUMNS,
    ProfileSpline,
    ProfileState,
    evolve_profile,
    initial_profile,
    inviscid_rarefaction,
    make_initial_state,
    profile_row,
    write_profile_series,
)
from rarelab.stepping import DiffusionSweep, advective_rhs, strang_step

FLUX = burgers(1)


def plan(p0, t_end, dt=None, snapshot_times=()):
    """The plan `profile1d.schedule` draws for a march of p0 under FLUX, or,
    given dt, the plan `step_schedule` steps at dt under the same CFL bound."""
    if dt is None:
        return profile1d.schedule(p0, FLUX, t_end, snapshot_times)
    dt_max = stepping.max_advective_dt(FLUX, (p0.spec.dx1,), p0.ul, p0.ur)
    return stepping.step_schedule(t_end, dt_max, dt, snapshot_times)


def evolve(p0, the_plan):
    """`evolve_profile` of p0 under FLUX over the_plan, on a sweep of its own."""
    sweep = DiffusionSweep(p0.spec.n1, p0.spec.dx1, the_plan[1] / 2.0)
    return evolve_profile(p0, FLUX, the_plan, sweep)


def profile_problems(st: ProfileState) -> list[str]:
    """Range, monotonicity and boundary approach of a profile state.

    The mathematical statements are strict (open range, positive slope)
    but the tails saturate to the end states at machine precision, so the
    checks carry floating-point slack: range within 1e-10, forward
    differences above -1e-12, ends within 1e-8.
    """
    v = st.values
    problems = []
    if v.min() < st.ul - 1e-10 or v.max() > st.ur + 1e-10:
        problems.append("values leave the interval [ul, ur]")
    if np.min(np.diff(v)) < -1e-12:
        problems.append("forward differences dip below -1e-12")
    if abs(v[0] - st.ul) > 1e-8:
        problems.append(f"left boundary off by {abs(v[0] - st.ul):.3e}")
    if abs(v[-1] - st.ur) > 1e-8:
        problems.append(f"right boundary off by {abs(v[-1] - st.ur):.3e}")
    return problems


class TestInviscidFan:
    def test_fan_center(self):
        assert inviscid_rarefaction(0.0, 1.0, FLUX, -0.5, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_left_state(self):
        # left edge moves at the left wave speed -0.5
        assert inviscid_rarefaction(-2.0, 1.0, FLUX, -0.5, 0.5) == -0.5

    def test_self_similar_interior(self):
        # quadratic flux: wave speed equals the value, so u = x/t in the fan
        assert inviscid_rarefaction(0.25, 1.0, FLUX, -0.5, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_vectorized_and_monotone(self):
        x = np.linspace(-3, 3, 301)
        u = inviscid_rarefaction(x, 2.0, FLUX, -0.5, 0.5)
        assert np.all(np.diff(u) >= -1e-12)
        assert u[0] == -0.5 and u[-1] == 0.5

    def test_cubic_flux_inversion(self):
        # wave speed u^2 on [1, 2]: fan value at x/t = s is sqrt(s)
        flux = cubic(1)
        got = inviscid_rarefaction(2.25, 1.0, flux, 1.0, 2.0)
        assert got == pytest.approx(1.5, abs=1e-10)

    def test_bisection_stops_where_an_ulp_exceeds_the_tolerance(self):
        # above |u| = 8192 one ulp is wider than 1e-12; the flux counts its
        # calls, so a bisection that cannot stop raises instead of hanging
        calls = []

        def df(u):
            calls.append(1)
            if len(calls) > 300:
                raise RuntimeError("the bisection does not stop")
            return np.asarray(u, dtype=float)

        flux = FluxSet(f=FLUX.f, df=(df,), d2f=FLUX.d2f)
        x = np.linspace(100.0, 110.0, 11)
        u = inviscid_rarefaction(x, 1e-3, flux, 1e5, 1.1e5)
        assert np.max(np.abs(u - x / 1e-3)) <= 2 * np.spacing(1.1e5)

    def test_time_and_monotonicity_guards(self):
        with pytest.raises(ValueError):
            inviscid_rarefaction(0.0, 0.0, FLUX, -0.5, 0.5)
        with pytest.raises(ValueError):
            inviscid_rarefaction(0.0, 1.0, linear_flux(1, [1.0]), -0.5, 0.5)
        with pytest.raises(ValueError):
            inviscid_rarefaction(0.0, 1.0, FLUX, 0.5, -0.5)

    @pytest.mark.parametrize("width", [1e-13, 1e-14, 2 * np.spacing(0.5)])
    def test_a_range_a_few_ulps_wide_is_a_fan(self, width):
        # its samples repeat floats; the distinct ones still increase
        ur = 0.5 + width
        u = inviscid_rarefaction(np.linspace(0.0, 1.0, 5), 1.0, FLUX, 0.5, ur)
        assert u[0] == 0.5 and u[-1] == ur and np.all(np.diff(u) >= 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_range_too_wide_to_sample_is_refused_without_a_warning(self):
        # f_1' is probed at the `fluxes.sample_range` samples, whose width rule
        # refuses this range before a difference of the probe could overflow
        with pytest.raises(ValueError, match=r"the range \[-1e\+308, 1e\+308\] is too wide"):
            inviscid_rarefaction(0.0, 1.0, FLUX, -1e308, 1e308)


class TestInitialProfile:
    def test_center_value(self):
        assert initial_profile(0.0, -0.5, 0.5) == 0.0

    def test_limits_saturate(self):
        assert initial_profile(400.0, -0.5, 0.5) == 0.5
        assert initial_profile(-400.0, -0.5, 0.5) == -0.5

    def test_frozen_point_value(self):
        # 0.5 * tanh(1); reference value from direct evaluation
        assert initial_profile(1.0, -0.5, 0.5) == pytest.approx(
            0.38079707797788243, abs=1e-15
        )

    def test_asymmetric_states(self):
        assert initial_profile(0.0, -1.0, 3.0) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def evolved():
    # margins sized so the diffusive corner tails stay 1e-8-far from the ends
    p0 = make_initial_state(L=50.0, n1=2000, ul=-0.5, ur=0.5)
    return list(evolve(p0, plan(p0, 20.0, snapshot_times=(5.0, 10.0, 20.0))))


class TestEvolution:
    def test_range_invariance(self, evolved):
        for st in evolved:
            assert st.values.min() >= -0.5 - 1e-10
            assert st.values.max() <= 0.5 + 1e-10

    def test_monotonicity_preserved(self, evolved):
        for st in evolved:
            assert np.min(np.diff(st.values)) > -1e-12

    def test_boundary_pinned(self, evolved):
        for st in evolved:
            assert not profile_problems(st)

    def test_constant_data_is_fixed_point_of_the_kernels(self):
        # the end states bracket strictly, so a constant profile state is
        # outside the type; the stepping kernels themselves hold constants
        u = np.full(64, 0.3)
        sweep = DiffusionSweep(64, 0.1, 0.02)
        v = sweep.apply(u, b_lo=0.3, b_hi=0.3)
        ghosts = (np.full(2, 0.3), np.full(2, 0.3))
        (v,) = strang_step([(v,)], 0.02, 0, None,
                           lambda s: (advective_rhs(s[0], FLUX, (0.1,), ghosts),))
        assert np.max(np.abs(v - 0.3)) < 1e-15

    def test_states_are_fields_on_the_line(self, evolved):
        for st in evolved:
            assert isinstance(st, Field)
            assert st.spec == DomainSpec(n=1, L=50.0, n1=2000)
            assert (st.ul, st.ur) == (-0.5, 0.5)

    def test_one_step_is_the_strang_step_on_the_cylinder_spacing(self):
        # L = 80, n1 = 3200: the cell-centre difference x1[1] - x1[0] is
        # 0.04999999999999716, while the cylinder steps with 2L/n1 = 0.05
        p0 = make_initial_state(L=80.0, n1=3200, ul=-0.5, ur=0.5)
        spec, dt = p0.spec, 0.02
        assert spec.dx1 == 0.05 != make_grid(spec).x1[1] - make_grid(spec).x1[0]
        _, p1 = evolve(p0, plan(p0, dt, dt, (0.0, dt)))
        sweep = DiffusionSweep(spec.n1, spec.dx1, dt / 2.0)
        ghosts = (np.full(2, -0.5), np.full(2, 0.5))
        (u,) = strang_step([(p0.values,)], dt, 1,
                           lambda s, axis: (sweep.apply(s[0], b_lo=-0.5, b_hi=0.5),),
                           lambda s: (advective_rhs(s[0], FLUX, (spec.dx1,), ghosts),))
        assert p1.spec == spec and p1.t == dt
        assert np.array_equal(p1.values, u)

    def test_march_stops_at_the_last_record(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return stepping.check_cfl(*args)

        monkeypatch.setattr(profile1d, "check_cfl", counted)
        p0 = make_initial_state(L=20.0, n1=400, ul=-0.5, ur=0.5)
        short = list(evolve(p0, plan(p0, 10.0, 0.05, (1.0, 4.0))))
        assert len(calls) == 80 and calls[-1] == pytest.approx(4.0)
        calls.clear()
        full = list(evolve(p0, plan(p0, 10.0, 0.05, (1.0, 4.0, 10.0))))
        assert len(calls) == 200
        for a, b in zip(short, full):
            assert a.t == b.t and np.array_equal(a.values, b.values)

    def test_snapshot_times_rounded_to_steps(self, evolved):
        assert [pytest.approx(s.t, abs=1e-9) for s in evolved] == [5.0, 10.0, 20.0]

    def test_nonpositive_dt_rejected(self):
        p0 = make_initial_state(L=5.0, n1=100, ul=-0.5, ur=0.5)
        with pytest.raises(ValueError, match="dt must be positive"):
            plan(p0, 1.0, 0.0)

    def test_march_starts_at_time_zero(self):
        p0 = make_initial_state(L=5.0, n1=100, ul=-0.5, ur=0.5)
        later = ProfileState(p0.spec, p0.values, 0.5, ul=p0.ul, ur=p0.ur)
        with pytest.raises(ValueError, match="starts at t = 0, got a state at t = 0.5"):
            evolve(later, plan(p0, 0.5))

    def test_cfl_guard(self):
        # the plan refuses the step; a march handed it anyway aborts
        p0 = make_initial_state(L=5.0, n1=100, ul=-0.5, ur=0.5)
        with pytest.raises(ValueError, match=r"requested dt=1\.000e\+00 > stable"):
            plan(p0, 1.0, 1.0)
        with pytest.raises(NumericalAbort) as info:
            list(evolve(p0, (1, 1.0, {1})))
        assert info.value.reason == "cfl"

    def test_nan_on_the_last_step_aborts(self, monkeypatch):
        steps = []

        def nan_last(held, dt, ndim, sweep, rhs):
            steps.append(dt)
            out = strang_step(held, dt, ndim, sweep, rhs)
            return tuple(np.full_like(u, np.nan) for u in out) if len(steps) == 10 else out

        monkeypatch.setattr(stepping, "strang_step", nan_last)
        p0 = make_initial_state(L=5.0, n1=100, ul=-0.5, ur=0.5)
        with pytest.raises(NumericalAbort) as info:
            list(evolve(p0, plan(p0, 0.5, 0.05)))
        assert len(steps) == 10
        assert info.value.reason == "cfl" and info.value.t == pytest.approx(0.5)


class TestQuantitativeBounds:
    def test_initial_max_slope(self):
        # slope of the tangent data peaks at (ur - ul)/2 at the origin
        p0 = make_initial_state(L=20.0, n1=4000, ul=-0.5, ur=0.5)
        assert profile_row(p0)["max_slope"] == pytest.approx(0.5, rel=1e-4)

    def test_slope_positive_and_product_bounded(self, evolved):
        # entropy bound: slope stays positive; for the quadratic flux the
        # fan slope is 1/t, so t * max_slope approaches 1 from below
        products = []
        for st in evolved:
            row = profile_row(st)
            assert row["max_slope"] > 0.0
            products.append(row["t_max_slope"])
        assert max(products) <= 1.05

    def test_product_increments_shrink(self):
        # the product climbs toward its ceiling with shrinking increments;
        # the ceiling itself is the quantitative content of the bound
        p0 = make_initial_state(L=60.0, n1=2400, ul=-0.5, ur=0.5)
        states = evolve(p0, plan(p0, 40.0, snapshot_times=(5.0, 10.0, 20.0, 40.0)))
        prods = [profile_row(st)["t_max_slope"] for st in states]
        assert max(prods) <= 1.05
        gaps = np.diff(prods)
        assert np.all(gaps > -0.05 * np.asarray(prods[:-1]))
        assert gaps[-1] < gaps[0]

    def test_slope_l1_telescopes(self, evolved):
        # a monotone profile's slope has L1 mass ur - ul
        assert profile_row(evolved[1])["slope_l1"] == pytest.approx(1.0, rel=1e-6)

    def test_deviation_integral_linear_growth(self, evolved):
        # fix the constant at t = 10 and check t = 20 stays under it
        dev10, dev20 = (profile_row(st)["end_state_deviation"] for st in evolved[1:3])
        c = dev10 / (1.0 + 10.0)
        assert dev20 <= c * (1.0 + 20.0)

    def test_slope_lp_ratios_bounded(self, evolved):
        # |slope|_p stays under a multiple of t^(-1+1/p)
        for p, col in ((2.0, "slope_l2"), (np.inf, "slope_linf")):
            ratios = [profile_row(st)[col] / st.t ** (-1.0 + 1.0 / p) for st in evolved]
            assert max(ratios) <= 1.1

    def test_a_row_at_time_zero_holds_nan_norms(self):
        # the decay laws speak of t > 0; the slope bound is still taken
        p0 = make_initial_state(L=5.0, n1=100, ul=-0.5, ur=0.5)
        row = profile_row(p0)
        assert list(row) == list(PROFILE_COLUMNS)
        assert row["t"] == 0.0 and row["t_max_slope"] == 0.0
        assert row["max_slope"] == float(np.max(derivative(p0, 0)))
        assert all(np.isnan(row[c]) for c in ("slope_l1", "slope_l2", "slope_linf",
                                              "end_state_deviation"))


class TestLongTimeApproach:
    @pytest.fixture(scope="class")
    def long_run(self):
        p0 = make_initial_state(L=200.0, n1=8000, ul=-0.5, ur=0.5)
        return list(evolve(p0, plan(p0, 200.0, snapshot_times=(50.0, 200.0))))

    def test_sup_distance_to_fan_decreases(self, long_run):
        dists = []
        for st in long_run:
            fan = inviscid_rarefaction(make_grid(st.spec).x1, st.t, FLUX, st.ul, st.ur)
            dists.append(float(np.max(np.abs(st.values - fan))))
        assert dists[1] < dists[0]


class TestConvergence:
    def test_observed_order_at_least_1_9(self):
        # simultaneous dx, dt refinement against the next finer level
        states = {}
        for lev, n1 in enumerate((800, 1600, 3200)):
            p0 = make_initial_state(L=40.0, n1=n1, ul=-0.5, ur=0.5)
            states[lev] = list(evolve(p0, plan(p0, 10.0, snapshot_times=(10.0,))))[0]
        errs = []
        for lev in (0, 1):
            fine = CubicSpline(make_grid(states[lev + 1].spec).x1, states[lev + 1].values)
            errs.append(float(np.max(np.abs(
                states[lev].values - fine(make_grid(states[lev].spec).x1)))))
        assert np.log2(errs[0] / errs[1]) >= 1.9


class TestInterpolantAndIO:
    @pytest.mark.parametrize("x1, values, message", [
        ([0.0, 1.0], [0.0, 0.1], "at least 4 nodes, got 2"),
        ([0.0, 1.0, 2.0], [0.0, 0.1, 0.2], "at least 4 nodes, got 3"),
        ([0.0, 1.0, 1.0, 2.0], [0.0, 0.1, 0.2, 0.3], "strictly increasing"),
        ([0.0, 1.0, 2.0, np.inf], [0.0, 0.1, 0.2, 0.3], "strictly increasing"),
        ([0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 0.2, 0.3], "values finite"),
        ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.1, 0.2, 0.3], "equal length"),
    ])
    def test_spline_rejects_short_unordered_or_non_finite_samples(self, x1, values, message):
        with pytest.raises(ValueError, match=message):
            ProfileSpline(np.array(x1), np.array(values))

    def test_snapshot_roundtrip(self, evolved, tmp_path):
        path = tmp_path / "profile.field"
        write_snapshot(evolved[1], path)
        g = read_snapshot(path)
        assert g.spec == evolved[1].spec and g.t == evolved[1].t
        assert same_bits(g.values, evolved[1].values)

    def test_series_csv(self, evolved, tmp_path):
        path = tmp_path / "series.csv"
        rows = write_profile_series(evolved, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(PROFILE_COLUMNS)
        assert len(lines) == 1 + len(evolved)
        # it returns the rows it wrote, each the state's profile_row
        assert rows == [profile_row(st) for st in evolved]
        assert lines[1:] == [",".join(f"{x:.17g}" for x in row.values()) for row in rows]

    def test_series_takes_each_slope_once(self, evolved, tmp_path, monkeypatch):
        # the Oleinik pair and the slope norms of a row share one derivative
        taken, slope = [], profile1d.derivative
        monkeypatch.setattr(profile1d, "derivative",
                            lambda st, axis: taken.append(st.t) or slope(st, axis))
        write_profile_series(evolved, tmp_path / "series.csv")
        assert taken == [st.t for st in evolved]

    def test_slope_is_the_grid_derivative(self, evolved):
        st = evolved[1]
        slope = derivative(st, 0)
        assert np.array_equal(slope, np.gradient(st.values, st.spec.dx1, edge_order=2))
        assert profile_row(st)["max_slope"] == float(np.max(slope))

    def test_state_validation_guards(self):
        line = DomainSpec(n=1, L=1.0, n1=8)
        with pytest.raises(ValueError, match="need ul < ur"):
            ProfileState(line, np.zeros(8), ul=0.5, ur=-0.5)
        with pytest.raises(ValueError, match="grid shape"):
            ProfileState(line, np.zeros(4), ul=-0.5, ur=0.5)
        with pytest.raises(ValueError, match="n = 2"):
            ProfileState(DomainSpec(n=2, L=1.0, n1=8, n_torus=(4,)), np.zeros((8, 4)),
                         ul=-0.5, ur=0.5)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSplineMatchesScipy:
    """ProfileSpline solves scipy's not-a-knot system in the same order of
    operations, so its nodal slopes are the slopes scipy's spline stores,
    bit for bit; the last node, which scipy stores no slope for, matches
    the end of scipy's last piece to roundoff."""

    @pytest.mark.parametrize("data", ["tanh", "noisy", "uneven"])
    @pytest.mark.parametrize("n1", [4, 5, 64, 3200])
    def test_nodal_slopes_are_scipys(self, n1, data):
        rng = np.random.default_rng(n1)
        state = make_initial_state(L=20.0, n1=n1, ul=-0.5, ur=0.5)
        x1, values = make_grid(state.spec).x1, state.values
        if data == "noisy":
            values = values + 0.05 * rng.standard_normal(n1)
        elif data == "uneven":
            x1 = x1 + 0.3 * state.spec.dx1 * rng.uniform(-1.0, 1.0, n1)
            values = initial_profile(x1, state.ul, state.ur)
        slopes, reference = ProfileSpline(x1, values).slopes, CubicSpline(x1, values)
        assert same_bits(slopes[:-1], reference.c[2])
        assert slopes[-1] == pytest.approx(reference(x1[-1], 1), rel=1e-12, abs=0.0)
