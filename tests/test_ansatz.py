import dataclasses

import numpy as np
import pytest

from rarelab import ansatz

from rarelab.ansatz import (
    assemble_bundle,
    discrete_residual,
    mean_flux_curvature,
    residual_mismatch,
    source_term,
    tile_to_cylinder,
)
from rarelab.domain import DomainSpec, lp_norm, make_grid
from rarelab.fluxes import burgers, cubic
from rarelab.mdsolver import trig_polynomial
from rarelab.periodic import PeriodicState, TorusSpec, solve_periodic
from rarelab.profile1d import ProfileSpline, evolve_profile, make_initial_state


def coupled_states(dspec, amp=0.1, t0=0.1, delta=None, dt=None, refine=8):
    """Evolve the torus pair and the profile to matching instants."""
    flux = burgers(dspec.n)
    m1 = int(round(1.0 / dspec.dx1))
    tspec = TorusSpec(sizes=(m1, *dspec.n_torus),
                      offsets=(0.5,) + (0.0,) * (dspec.n - 1))
    w0 = amp * trig_polynomial([(1,) * dspec.n + (1.0,)], tspec.coordinates())
    times = (t0,) if delta is None else (t0 - delta, t0, t0 + delta)
    dt = dt or 1e-3
    sl = solve_periodic(w0, -0.5, flux, times[-1], times, spec=tspec, dt=dt)
    sr = solve_periodic(w0, 0.5, flux, times[-1], times, spec=tspec, dt=dt)
    p0 = make_initial_state(dspec.L, dspec.n1 * refine, -0.5, 0.5)
    ps = evolve_profile(p0, burgers(1), times[-1], dt=dt, snapshot_times=times)
    return sl, sr, ps, flux


def flat_bundle(dspec, profile):
    """The bundle of constant torus states at the profile's end states."""
    m1 = int(round(1.0 / dspec.dx1))
    tspec = TorusSpec(sizes=(m1, *dspec.n_torus), offsets=(0.5,) + (0.0,) * (dspec.n - 1))
    sl = PeriodicState(tspec, np.full(tspec.sizes, profile.ul), profile.t, profile.ul)
    sr = PeriodicState(tspec, np.full(tspec.sizes, profile.ur), profile.t, profile.ur)
    return assemble_bundle(sl, sr, profile, burgers(dspec.n), dspec)


class TestMixingWeight:
    def test_range_monotone_and_center(self):
        dspec = DomainSpec(n=2, L=20, n1=800, n_torus=(8,))
        bundle = flat_bundle(dspec, make_initial_state(L=20.0, n1=1600, ul=-0.5, ur=0.5))
        g, dg = bundle.g, bundle.dg
        assert np.all((g >= 0.0) & (g <= 1.0))
        assert np.all(np.diff(g) >= -1e-14)
        # in the far tails the spline's slope is roundoff, down to -5e-16
        assert np.all(dg[np.abs(make_grid(dspec).x1) <= 15.0] >= 0.0)
        # odd-symmetric data on a symmetric grid: g(x) + g(-x) = 1, so the
        # weight is 1/2 at the origin
        assert np.max(np.abs(g + g[::-1] - 1.0)) < 1e-12

    def test_saturates_outside(self):
        p0 = make_initial_state(L=10.0, n1=400, ul=-0.5, ur=0.5)
        spline = ProfileSpline(p0)
        x = np.array([-50.0, 50.0])
        assert np.array_equal(spline.value(x), [p0.ul, p0.ur])
        assert np.array_equal(spline.slope(x), [0.0, 0.0])

    def test_degenerate_states_rejected(self):
        p0 = make_initial_state(L=10.0, n1=400, ul=-0.5, ur=0.5)
        bad = type(p0)(p0.x1, p0.values, p0.t, -0.5, 0.5)
        object.__setattr__(bad, "ur", -0.5)
        with pytest.raises(ValueError, match="degenerate end states"):
            flat_bundle(DomainSpec(n=2, L=10, n1=200, n_torus=(8,)), bad)


class TestFluxCurvatureAverage:
    def test_quadratic_flux_is_one(self):
        flux = burgers(1)
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        got = mean_flux_curvature(flux.d2f[0], a, b)
        assert np.allclose(got, 1.0, atol=1e-14)

    def test_cubic_flux_midpoint_rule(self):
        # f'' linear in u: the average over the segment is (a + b)/2 * 2
        flux = cubic(1)
        assert mean_flux_curvature(flux.d2f[0], 1.0, 0.0) == pytest.approx(1.0)
        assert mean_flux_curvature(flux.d2f[0], 2.0, 2.0) == pytest.approx(4.0)
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(20), rng.standard_normal(20)
        assert np.allclose(mean_flux_curvature(flux.d2f[0], a, b), a + b, atol=1e-13)

    def test_degree_nine_exactness(self):
        # Gauss-Legendre with 5 nodes integrates degree-9 polynomials exactly
        d2f = lambda u: u**9
        a, b = 1.3, -0.4
        exact = ((a - b) and (a**10 - b**10) / (10 * (a - b)))
        assert mean_flux_curvature(d2f, a, b) == pytest.approx(exact, rel=1e-13)


class TestTiling:
    def test_alignment_and_values(self):
        dspec = DomainSpec(n=2, L=4, n1=80, n_torus=(10,))
        tspec = TorusSpec(sizes=(10, 10), offsets=(0.5, 0.0))
        mesh = np.meshgrid(*tspec.coordinates(), indexing="ij")
        vals = np.sin(2 * np.pi * mesh[0]) + np.cos(2 * np.pi * mesh[1])
        st = PeriodicState(tspec, vals, 0.0, 0.0)
        tiled = tile_to_cylinder(st, dspec)
        grid = make_grid(dspec)
        X1, X2 = np.meshgrid(grid.x1, grid.torus[0], indexing="ij")
        expect = np.sin(2 * np.pi * X1) + np.cos(2 * np.pi * X2)
        assert np.max(np.abs(tiled - expect)) < 1e-12

    def test_misaligned_grids_rejected(self):
        dspec = DomainSpec(n=2, L=4, n1=80, n_torus=(10,))
        st = PeriodicState(TorusSpec(sizes=(10, 10)), np.zeros((10, 10)), 0.0, 0.0)
        with pytest.raises(ValueError):
            tile_to_cylinder(st, dspec)  # missing half-cell offset
        st2 = PeriodicState(TorusSpec(sizes=(10, 8), offsets=(0.5, 0.0)),
                            np.zeros((10, 8)), 0.0, 0.0)
        with pytest.raises(ValueError):
            tile_to_cylinder(st2, dspec)  # transverse mismatch


class TestAnsatzAssembly:
    def test_zero_disturbance_reduces_to_profile(self):
        dspec = DomainSpec(n=2, L=10, n1=200, n_torus=(10,))
        tspec = TorusSpec(sizes=(10, 10), offsets=(0.5, 0.0))
        sl = PeriodicState(tspec, np.full(tspec.sizes, -0.5), 0.0, -0.5)
        sr = PeriodicState(tspec, np.full(tspec.sizes, 0.5), 0.0, 0.5)
        prof = make_initial_state(dspec.L, dspec.n1, -0.5, 0.5)
        bundle = assemble_bundle(sl, sr, prof, burgers(2), dspec)
        prof_b = bundle.profile_values[:, None]
        assert np.max(np.abs(bundle.u_tilde.values - prof_b)) < 1e-14
        assert lp_norm(bundle.h, np.inf) < 1e-13
        assert not bundle.check()

    def test_convex_combination_bounds(self):
        dspec = DomainSpec(n=2, L=5, n1=100, n_torus=(8,))
        sl, sr, ps, flux = coupled_states(
            DomainSpec(n=2, L=5, n1=100, n_torus=(8,)), t0=0.05, dt=2.5e-3, refine=2)
        u_tilde = assemble_bundle(sl[0], sr[0], ps[0], flux, dspec).u_tilde
        lo = np.minimum(tile_to_cylinder(sl[0], dspec), tile_to_cylinder(sr[0], dspec))
        hi = np.maximum(tile_to_cylinder(sl[0], dspec), tile_to_cylinder(sr[0], dspec))
        assert np.all(u_tilde.values >= lo - 1e-14)
        assert np.all(u_tilde.values <= hi + 1e-14)

    def test_time_mismatch_rejected(self):
        tspec = TorusSpec(sizes=(8, 8), offsets=(0.5, 0.0))
        a = PeriodicState(tspec, np.full((8, 8), -0.5), 0.0, -0.5)
        b = PeriodicState(tspec, np.full((8, 8), 0.5), 1.0, 0.5)
        dspec = DomainSpec(n=2, L=4, n1=64, n_torus=(8,))
        prof = make_initial_state(dspec.L, dspec.n1, -0.5, 0.5)
        with pytest.raises(ValueError, match="time stamps differ"):
            assemble_bundle(a, b, prof, burgers(2), dspec)


class TestSourceTerm:
    def test_decays_like_the_disturbance(self):
        dspec = DomainSpec(n=2, L=10, n1=200, n_torus=(20,))
        sl, sr, ps, flux = coupled_states(dspec, t0=0.25, dt=1e-3)
        h_early = source_term(sl[0], sr[0], ps[0], flux, dspec)
        assert lp_norm(h_early, 1) < 1e-6  # the disturbance is already tiny

    def test_residual_identity_second_order(self):
        # the central correctness check: the closed form agrees with the
        # finite-difference defect of the assembled snapshots at O(h^2)
        mismatches = []
        for level in (0, 1):
            scale = 2**level
            dspec = DomainSpec(n=2, L=10, n1=200 * scale, n_torus=(10 * scale,))
            delta = 0.02 / scale
            sl, sr, ps, flux = coupled_states(dspec, t0=0.1, delta=delta,
                                              dt=delta / 8, refine=8)
            bundles = [assemble_bundle(a, b, c, flux, dspec)
                       for a, b, c in zip(sl, sr, ps)]
            mismatches.append(residual_mismatch(*bundles, flux))
        order = np.log2(mismatches[0] / mismatches[1])
        assert order >= 1.9

    def test_residual_needs_equispaced_snapshots(self):
        dspec = DomainSpec(n=2, L=5, n1=100, n_torus=(10,))
        sl, sr, ps, flux = coupled_states(dspec, t0=0.05, dt=2.5e-3, refine=2)
        b = assemble_bundle(sl[0], sr[0], ps[0], flux, dspec)
        with pytest.raises(ValueError):
            discrete_residual(b, b, b, flux)

    def test_residual_needs_increasing_times(self):
        dspec = DomainSpec(n=2, L=5, n1=100, n_torus=(10,))
        sl, sr, ps, flux = coupled_states(dspec, t0=0.05, delta=0.01, dt=2.5e-3, refine=2)
        b0, b1, b2 = (assemble_bundle(a, b, c, flux, dspec) for a, b, c in zip(sl, sr, ps))
        for triple in ((b1, b1, b1), (b2, b1, b0), (b0, b1, b1)):
            with pytest.raises(ValueError, match="strictly increase"):
                discrete_residual(*triple, flux)
        with pytest.raises(ValueError, match="equispaced"):
            discrete_residual(b0, b1, dataclasses.replace(b2, t=b2.t + 0.005), flux)

    def test_bundle_builds_one_spline_and_matches_public_pieces(self, monkeypatch):
        dspec = DomainSpec(n=3, L=5, n1=100, n_torus=(6, 8))
        sl, sr, ps, flux = coupled_states(dspec, t0=0.05, dt=2.5e-3, refine=2)
        builds = []

        class CountingSpline(ansatz.ProfileSpline):
            def __init__(self, state):
                builds.append(state.t)
                super().__init__(state)

        monkeypatch.setattr(ansatz, "ProfileSpline", CountingSpline)
        bundle = assemble_bundle(sl[0], sr[0], ps[0], flux, dspec)
        assert len(builds) == 1
        spline, x1 = ProfileSpline(ps[0]), make_grid(dspec).x1
        span = ps[0].ur - ps[0].ul
        g = (spline.value(x1) - ps[0].ul) / span
        assert np.array_equal(bundle.g, g)
        assert np.array_equal(bundle.dg, spline.slope(x1) / span)
        gg = g.reshape(-1, 1, 1)
        ul, ur = (tile_to_cylinder(s, dspec) for s in (sl[0], sr[0]))
        assert np.array_equal(bundle.u_tilde.values, ul * (1.0 - gg) + ur * gg)
        assert np.array_equal(bundle.h.values,
                              source_term(sl[0], sr[0], ps[0], flux, dspec).values)
