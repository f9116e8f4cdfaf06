import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelab.decomp import decompose, level_sum
from rarelab.domain import DomainSpec, Field, gradient, lp_norm, magnitude, make_grid
from rarelab.ineqlab import (
    SLAB_CELLS,
    _deriv_magnitude,
    _power_gradient_magnitude,
    chain_rule_power_gradient,
    dilated_gn_ratio,
    dilated_line_field,
    dilated_sobolev_ratio,
    dilation_slope,
    gn_ratio,
    hat_bump,
    interpolation_ratio,
    solve_theta,
)

DILATIONS = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]


@st.composite
def signed_samples(draw):
    """Values on a random 1-, 2- or 3-d grid, spread over many magnitudes,
    with both signs and exact (signed) zeros, plus one partial per axis."""
    n = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(4, 9), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    v[rng.random(shape) < 0.15] = 0.0
    v[rng.random(shape) < 0.15] = -0.0
    return v, [rng.standard_normal(shape) for _ in range(n)]


def bump_times_mode(spec, k=1):
    grid = make_grid(spec)
    mesh = np.meshgrid(grid.x1, *grid.torus, indexing="ij")
    vals = np.exp(-mesh[0] ** 2)
    for ax in range(1, spec.n):
        vals = vals * np.sin(2 * np.pi * k * mesh[ax])
    return Field(spec, vals)


class TestSolveTheta:
    def test_textbook_case(self):
        assert solve_theta(0, 1, 2.0, 1.0, 2.0, 0) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_identity_case_gives_zero(self):
        for k in (0, 1, 2):
            assert solve_theta(0, 1, 3.0, 3.0, 3.0, k) == pytest.approx(0.0, abs=1e-14)

    def test_matching_derivative_orders_pin_theta(self):
        # j = m - 1 with everything in L^2 forces the midpoint weight
        assert solve_theta(1, 2, 2.0, 2.0, 2.0, 0) == pytest.approx(0.5)

    def test_round_trip_reproduces_relation(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            j, m = 0, int(rng.integers(1, 3))
            k = int(rng.integers(0, 3))
            p, q, r = rng.uniform(1.0, 8.0, 3)
            theta = solve_theta(j, m, p, q, r, k)
            if theta is None:
                continue
            dim = k + 1
            lhs = 1.0 / p
            rhs = j / dim + (1.0 / r - m / dim) * theta + (1.0 - theta) / q
            assert abs(lhs - rhs) <= 1e-12

    def test_out_of_range_infeasible(self):
        # q between p and r forces a negative weight
        assert solve_theta(0, 1, 1.0, 2.0, 4.0, 0) is None

    def test_decay_guard(self):
        # j=0, r m < k+1, q = inf: needs decay along the line, never assumed
        assert solve_theta(0, 1, 4.0, np.inf, 1.0, 1) is None

    def test_theta_one_integer_gap_guard(self):
        # theta = 1 with 1 < r < inf and m - j - (k+1)/r a non-negative integer
        assert solve_theta(0, 1, np.inf, 5.0, 2.0, 1) is None

    def test_degenerate_consistent_relation(self):
        # coefficient of the weight vanishes with matching constants
        theta = solve_theta(0, 2, 2.0, 2.0, 1.0, 0)
        assert theta == pytest.approx(0.0)


class TestGNRatio:
    def test_zero_field_all_zero(self):
        spec = DomainSpec(n=2, L=4.0, n1=32, n_torus=(8,))
        res = gn_ratio(Field(spec, np.zeros(spec.shape)), 0, 1, 2.0, 1.0, 2.0)
        assert all(v == 0.0 for v in res["ratios"].values())

    def test_tiled_bump_only_level_zero(self):
        f1 = dilated_line_field(4.0)
        spec = DomainSpec(n=2, L=f1.spec.L, n1=f1.spec.n1, n_torus=(8,))
        u = Field(spec, np.broadcast_to(f1.values[:, None], spec.shape))
        res = gn_ratio(u, 0, 1, 2.0, 1.0, 2.0)
        assert res["ratios"][1] == 0.0
        assert 0.0 < res["ratios"][0] < 3.0

    def test_level_zero_ratio_dilation_free(self):
        # the level-resolved quotient must not blow up under dilation,
        # unlike the naive full-dimension one
        ratios = []
        for d in DILATIONS:
            f1 = dilated_line_field(d)
            spec = DomainSpec(n=2, L=f1.spec.L, n1=f1.spec.n1, n_torus=(8,))
            u = Field(spec, np.broadcast_to(f1.values[:, None], spec.shape))
            ratios.append(gn_ratio(u, 0, 1, 2.0, 1.0, 2.0)["ratios"][0])
        assert max(ratios) / min(ratios) < 1.0 + 1e-10

    def test_scale_invariance(self):
        spec = DomainSpec(n=2, L=4.0, n1=64, n_torus=(16,))
        u = bump_times_mode(spec)
        a = gn_ratio(u, 0, 1, 2.0, 1.0, 2.0)["ratios"]
        b = gn_ratio(Field(spec, 3.7 * u.values), 0, 1, 2.0, 1.0, 2.0)["ratios"]
        for k in a:
            assert abs(a[k] - b[k]) <= 1e-12 * max(1.0, a[k])

    @pytest.mark.parametrize("spec", [DomainSpec(n=2, L=4.0, n1=32, n_torus=(8,)),
                                      DomainSpec(n=3, L=4.0, n1=16, n_torus=(8, 6))],
                             ids=["n2", "n3"])
    @pytest.mark.parametrize("j, m, p, q, r", [(0, 1, 2.0, 1.0, 2.0), (1, 2, 2.0, 2.0, 2.0),
                                               (1, 2, np.inf, 2.0, 4.0)])
    def test_levels_match_the_full_grid_level_sums(self, spec, j, m, p, q, r):
        # single-part levels are measured on their own cylinder; only the
        # order of the quadrature sums may differ from the tiled level sum
        rng = np.random.default_rng(11)
        u = Field(spec, rng.standard_normal(spec.shape))
        d = decompose(u)
        res = gn_ratio(u, j, m, p, q, r, d=d)
        rhs_m, rhs_0 = lp_norm(_deriv_magnitude(u, m), r), lp_norm(u, q)
        assert len(res["ratios"]) == spec.n, res["flags"]
        for k, ratio in res["ratios"].items():
            lhs = lp_norm(_deriv_magnitude(Field(spec, level_sum(d, k)), j), p)
            theta = res["theta"][k]
            want = lhs / (rhs_m**theta * rhs_0 ** (1.0 - theta))
            assert ratio == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_decomposition_of_another_grid_rejected(self):
        rng = np.random.default_rng(12)
        u = Field(DomainSpec(n=3, L=4.0, n1=16, n_torus=(8, 8)), rng.standard_normal((16, 8, 8)))
        g = Field(DomainSpec(n=3, L=4.0, n1=32, n_torus=(4, 6)), rng.standard_normal((32, 4, 6)))
        with pytest.raises(ValueError, match="n1=32.*differs from field grid.*n1=16"):
            gn_ratio(u, 0, 1, 2.0, 1.0, 2.0, d=decompose(g))

    @pytest.mark.parametrize("m", [1, 2])
    def test_split_of_another_field_on_the_grid_rejected(self, m):
        # at m = 1 the right side reads the |grad| the split keeps
        rng = np.random.default_rng(13)
        spec = DomainSpec(n=3, L=4.0, n1=16, n_torus=(8, 8))
        u, v = (Field(spec, rng.standard_normal(spec.shape)) for _ in range(2))
        with pytest.raises(ValueError, match="splits another field"):
            gn_ratio(u, 0, m, 2.0, 1.0, 2.0, d=decompose(v))

    def test_corpus_maximum_stable(self):
        # regression guard: corpus max recorded from the reference run of
        # this seeded corpus; the bound asserts no blow-up, not a constant
        rng = np.random.default_rng(100)
        spec = DomainSpec(n=2, L=4.0, n1=48, n_torus=(12,))
        grid = make_grid(spec)
        mesh = np.meshgrid(grid.x1, *grid.torus, indexing="ij")
        worst = 0.0
        for _ in range(60):
            vals = np.zeros(spec.shape)
            for _ in range(4):
                envelope = np.exp(-((mesh[0] / rng.uniform(0.5, 2.0)) ** 2))
                vals += (rng.standard_normal() * envelope
                         * np.cos(2 * np.pi * rng.integers(0, 3) * mesh[1]
                                  + rng.uniform(0, 2 * np.pi)))
            res = gn_ratio(Field(spec, vals), 0, 1, 2.0, 1.0, 2.0)
            worst = max(worst, max(res["ratios"].values()))
        baseline = 1.62  # recorded corpus maximum at these exponents
        assert worst <= 3.0 * baseline


class TestInterpolationRatio:
    def test_exponent_bookkeeping(self):
        spec = DomainSpec(n=2, L=4.0, n1=64, n_torus=(16,))
        res = interpolation_ratio(bump_times_mode(spec), 2.0, 1.0)
        assert res["detail"][0]["gamma"] == pytest.approx(0.25)
        assert res["detail"][1]["gamma"] == pytest.approx(0.5)
        assert res["detail"][0]["grad_exponent"] == pytest.approx(1.0 / 3.0)

    def test_collapsed_exponents(self):
        # p = q: every weight vanishes and the sum is n copies of the norm
        spec = DomainSpec(n=2, L=4.0, n1=64, n_torus=(16,))
        res = interpolation_ratio(bump_times_mode(spec), 2.0, 2.0)
        assert res["ratio"] == pytest.approx(1.0 / spec.n, rel=1e-12)

    def test_dilated_family_bounded(self):
        ratios = []
        for d in DILATIONS:
            f1 = dilated_line_field(d, points=2001)
            spec = DomainSpec(n=2, L=f1.spec.L, n1=f1.spec.n1, n_torus=(6,))
            u = Field(spec, np.broadcast_to(f1.values[:, None], spec.shape))
            ratios.append(interpolation_ratio(u, 2.0, 1.0)["ratio"])
        assert max(ratios) <= 1.0  # the level-0 summand alone controls it

    def test_scale_invariance(self):
        spec = DomainSpec(n=2, L=4.0, n1=48, n_torus=(12,))
        u = bump_times_mode(spec)
        r1 = interpolation_ratio(u, 4.0, 2.0)["ratio"]
        r2 = interpolation_ratio(Field(spec, 0.31 * u.values), 4.0, 2.0)["ratio"]
        assert abs(r1 - r2) <= 1e-12 * max(1.0, r1)

    def test_parameter_guards(self):
        spec = DomainSpec(n=2, L=2.0, n1=16, n_torus=(8,))
        u = Field(spec, np.ones(spec.shape))
        with pytest.raises(ValueError):
            interpolation_ratio(u, 1.5, 1.0)
        with pytest.raises(ValueError):
            interpolation_ratio(u, 2.0, 3.0)


@st.composite
def slab_fields(draw):
    """A Field on a 1-, 2- or 3-d grid whose line runs from 4 rows up to
    past two slabs of `_power_gradient_magnitude`, with exact zeros."""
    n = draw(st.integers(1, 3))
    n_torus = draw(st.lists(st.integers(4, 6), min_size=n - 1, max_size=n - 1))
    slab_rows = max(1, SLAB_CELLS // int(np.prod(n_torus, dtype=int)))
    n1 = draw(st.integers(4, 2 * slab_rows + 3))
    spec = DomainSpec(n=n, L=draw(st.floats(0.5, 20.0)), n1=n1, n_torus=n_torus)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    v = rng.standard_normal(spec.shape)
    v[rng.random(spec.shape) < 0.15] = 0.0
    v[rng.random(spec.shape) < 0.15] = -0.0
    return Field(spec, v)


class TestPowerGradientMagnitude:
    @settings(max_examples=40, deadline=None)
    @given(slab_fields(), st.sampled_from([1.0, 1.5, 2.0]))
    def test_slabs_are_bitwise_the_full_grid_formula(self, u, power):
        want = magnitude(chain_rule_power_gradient(u.values, gradient(u), power))
        got = _power_gradient_magnitude(u, power)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


    @settings(max_examples=40, deadline=None)
    @given(slab_fields())
    def test_power_one_is_the_chain_rule_without_its_factor(self, u):
        import rarelab.ineqlab

        want = magnitude(chain_rule_power_gradient(u.values, gradient(u), 1))

        def unused(*args):
            raise AssertionError("the factor is +-1 at power 1")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rarelab.ineqlab, "chain_rule_power_gradient", unused)
            got = _power_gradient_magnitude(u, 1)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestChainRulePowerGradient:
    def test_matches_smooth_formula(self):
        x = np.linspace(-2, 2, 401)
        v = np.sin(x)
        dv = np.cos(x)
        got = chain_rule_power_gradient(v, [dv.copy()], 2.0)[0]
        assert np.allclose(got, 2 * np.abs(v) * np.sign(v) * dv, atol=1e-14)

    def test_zero_convention(self):
        v = np.array([0.0, 1.0, -2.0])
        dv = np.array([5.0, 1.0, 1.0])
        got = chain_rule_power_gradient(v, [dv], 1.5)[0]
        assert got[0] == 0.0

    def test_power_one_keeps_unit_factor_at_zeros(self):
        # |grad |v|| = |grad v| across a simple zero of v
        v = np.array([0.0, 1.0, -2.0])
        dv = np.array([5.0, 3.0, 4.0])
        got = chain_rule_power_gradient(v, [dv.copy()], 1.0)[0]
        assert np.array_equal(np.abs(got), dv)
        assert np.array_equal(got[1:], [3.0, -4.0])

    @settings(max_examples=60, deadline=None)
    @given(signed_samples(), st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]))
    def test_in_place_factor_is_bitwise_the_where_formula(self, case, power):
        v, derivs = case
        mag = np.abs(v)
        at_zero = 1.0 if power == 1.0 else 0.0
        factor = np.where(mag > 0.0, power * mag ** (power - 1.0) * np.sign(v), at_zero)
        want = [factor * dv for dv in derivs]
        handed = [dv.copy() for dv in derivs]
        got = chain_rule_power_gradient(v, handed, power)
        for g, h, w in zip(got, handed, want):
            assert g is h
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))

    @settings(max_examples=30, deadline=None)
    @given(signed_samples(), st.sampled_from([1.0, 1.5, 3.0]))
    def test_read_only_partials_are_left_untouched(self, case, power):
        v, derivs = case
        want = chain_rule_power_gradient(v, [dv.copy() for dv in derivs], power)
        kept = [dv.copy() for dv in derivs]
        for dv in derivs:
            dv.setflags(write=False)
        got = chain_rule_power_gradient(v, derivs, power)
        for g, dv, k, w in zip(got, derivs, kept, want):
            assert g is not dv
            assert np.array_equal(g, w) and np.array_equal(dv, k)

    @settings(max_examples=30, deadline=None)
    @given(signed_samples(), st.sampled_from([1.0, 1.5, 3.0]))
    def test_aliased_partials_are_left_untouched(self, case, power):
        # a partial handed twice would be scaled twice in place
        v, derivs = case
        dv, kept = derivs[0], derivs[0].copy()
        want = chain_rule_power_gradient(v, [kept.copy()], power)[0]
        for handed in ([dv, dv], [dv, dv[...]]):
            got = chain_rule_power_gradient(v, handed, power)
            assert all(np.array_equal(g, want) for g in got)
            assert np.array_equal(dv, kept)

    @pytest.mark.parametrize("power", [0.5, np.inf, np.nan])
    def test_power_outside_one_to_infinity_rejected(self, power):
        with pytest.raises(ValueError):
            chain_rule_power_gradient(np.ones(4), [np.ones(4)], power)


class TestDilationStudies:
    def test_gaussian_constant_matches_closed_form(self):
        # |f|_{L2} = (pi/2)^(1/4), |f'|_{L1} = 2 for f = exp(-x^2)
        res = dilated_sobolev_ratio(1.0)
        exact = (np.pi / 2.0) ** 0.25 / 2.0
        assert res["measured"] == pytest.approx(exact, abs=1e-3)

    def test_hat_constant_cross_check(self):
        # |f|_{L2}^2 = 2/3, |f'|_{L1} = 2 exactly; the kink costs accuracy
        res = dilated_sobolev_ratio(1.0, profile=hat_bump)
        assert res["measured"] == pytest.approx(np.sqrt(2.0 / 3.0) / 2.0, rel=5e-3)

    def test_sobolev_slope(self):
        meas = [dilated_sobolev_ratio(d)["measured"] for d in DILATIONS]
        assert dilation_slope(DILATIONS, meas) == pytest.approx(0.5, abs=1e-3)

    def test_quotient_diverges_with_dilation(self):
        meas = [dilated_sobolev_ratio(d)["measured"] for d in (1.0, 4.0, 16.0, 64.0)]
        assert all(b > a for a, b in zip(meas[:-1], meas[1:]))

    @pytest.mark.parametrize("theta", [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    def test_two_norm_scaling_exponent(self, theta):
        meas = [dilated_gn_ratio(d, theta)["measured"] for d in DILATIONS]
        expect = 0.5 * (3.0 * theta - 1.0)
        assert dilation_slope(DILATIONS, meas) == pytest.approx(expect, abs=1e-3)

    def test_flat_only_at_one_third(self):
        for theta, flat in ((1.0 / 3.0, True), (0.25, False), (0.5, False)):
            meas = [dilated_gn_ratio(d, theta)["measured"] for d in DILATIONS]
            slope = dilation_slope(DILATIONS, meas)
            assert (abs(slope) <= 1e-3) == flat

    def test_predicted_column_tracks_measured(self):
        for d in (2.0, 8.0):
            res = dilated_sobolev_ratio(d)
            assert res["measured"] == pytest.approx(res["predicted"], rel=1e-9)

    def test_fat_tails_rejected(self):
        with pytest.raises(ValueError):
            dilated_line_field(1.0, profile=lambda x: 1.0 / (1.0 + x**2))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            dilated_line_field(-1.0)
        with pytest.raises(ValueError):
            dilated_gn_ratio(1.0, 1.5)
        with pytest.raises(ValueError):
            dilation_slope([1.0], [1.0])
