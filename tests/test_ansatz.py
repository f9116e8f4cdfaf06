import dataclasses

import numpy as np
import pytest

from rarelab import ansatz, periodic, stepping

from rarelab.ansatz import (
    assemble_bundle,
    discrete_residual,
    far_field_grid,
    mean_flux_curvature,
    residual_mismatch,
    source_term,
)
from rarelab.domain import DomainSpec, lp_norm, make_grid
from rarelab.fluxes import burgers, cubic
from rarelab.mdsolver import trig_polynomial
from rarelab.periodic import solve_periodic
from rarelab.profile1d import ProfileSpline, evolve_profile, make_initial_state
from rarelab.stepping import CFL


def coupled_states(dspec, amp=0.1, t0=0.1, delta=None, dt=None, refine=8):
    """Evolve the stacked far field and the profile to matching instants."""
    flux = burgers(dspec.n)
    tspec, _ = far_field_grid(dspec)
    w0 = amp * trig_polynomial([(1,) * dspec.n + (1.0,)], tspec.coordinates())
    times = (t0,) if delta is None else (t0 - delta, t0, t0 + delta)
    dt = dt or 1e-3
    sl, sr = (solve_periodic(w0, ubar, flux, tspec,
                             periodic.schedule(w0, ubar, flux, tspec, times[-1], times, dt))
              for ubar in (-0.5, 0.5))
    p0 = make_initial_state(dspec.L, dspec.n1 * refine, -0.5, 0.5)
    dt_max = stepping.max_advective_dt(burgers(1), (p0.spec.dx1,), p0.ul, p0.ur, CFL)
    plan = stepping.step_schedule(times[-1], dt_max, dt, times)
    ps = list(evolve_profile(p0, burgers(1), plan))
    assert all(abs(a.t - p.t) <= 1e-9 for a, p in zip(sl, ps))
    return [np.stack([a.values, b.values]) for a, b in zip(sl, sr)], ps, flux


def weight_problems(bundle) -> list[str]:
    """The mixing weight must lie in (0, 1) and increase along x1."""
    problems = []
    if not (np.all(bundle.g > 0.0) and np.all(bundle.g < 1.0)):
        problems.append("mixing weight leaves (0, 1)")
    if np.any(np.diff(bundle.g) < 0.0):
        problems.append("mixing weight is not increasing")
    return problems


def flat_far(dspec, ul=-0.5, ur=0.5):
    """The stacked far field of constant states ul and ur."""
    tspec, _ = far_field_grid(dspec)
    return np.stack([np.full(tspec.sizes, ul), np.full(tspec.sizes, ur)])


def flat_bundle(dspec, profile):
    """The bundle of constant far fields at the profile's end states."""
    far = flat_far(dspec, profile.ul, profile.ur)
    return assemble_bundle(far, profile, burgers(dspec.n), dspec)


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
        spline = ProfileSpline(make_grid(p0.spec).x1, p0.values, p0.ul, p0.ur)
        x = np.array([-50.0, 50.0])
        assert np.array_equal(spline.value(x), [p0.ul, p0.ur])
        assert np.array_equal(spline.slope(x), [0.0, 0.0])


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
        tspec, rows = far_field_grid(dspec)
        assert tspec.sizes == (10, 10) and tspec.offsets == (0.5, 0.0)
        # every x1 cell, both pairs of ghosts included, against a
        # coordinate lookup on the half-cell-offset torus grid
        x = -dspec.L + (np.arange(-2, dspec.n1 + 2) + 0.5) * dspec.dx1
        assert np.array_equal(rows, np.round((x % 1.0) * 10 - 0.5).astype(int) % 10)
        assert np.max(np.abs((rows + 0.5) / 10 - x % 1.0)) < 1e-12
        mesh = np.meshgrid(*tspec.coordinates(), indexing="ij")
        vals = np.sin(2 * np.pi * mesh[0]) + np.cos(2 * np.pi * mesh[1])
        grid = make_grid(dspec)
        X1, X2 = np.meshgrid(grid.x1, grid.torus[0], indexing="ij")
        expect = np.sin(2 * np.pi * X1) + np.cos(2 * np.pi * X2)
        assert np.max(np.abs(vals[rows[2:-2]] - expect)) < 1e-12

    def test_misaligned_grids_rejected(self):
        with pytest.raises(ValueError, match="integer number of periods"):
            far_field_grid(DomainSpec(n=2, L=4.5, n1=90, n_torus=(10,)))
        with pytest.raises(ValueError, match="must be an integer >= 4"):
            far_field_grid(DomainSpec(n=2, L=4, n1=84, n_torus=(10,)))  # 1/dx1 = 10.5
        with pytest.raises(ValueError, match="must be an integer >= 4"):
            far_field_grid(DomainSpec(n=2, L=4, n1=16, n_torus=(10,)))  # 1/dx1 = 2


class TestAnsatzAssembly:
    def test_zero_disturbance_reduces_to_profile(self):
        dspec = DomainSpec(n=2, L=10, n1=200, n_torus=(10,))
        prof = make_initial_state(dspec.L, dspec.n1, -0.5, 0.5)
        bundle = flat_bundle(dspec, prof)
        prof_b = bundle.profile_values[:, None]
        assert np.max(np.abs(bundle.u_tilde.values - prof_b)) < 1e-14
        assert lp_norm(bundle.h, np.inf) < 1e-13
        assert not weight_problems(bundle)

    def test_convex_combination_bounds(self):
        dspec = DomainSpec(n=2, L=5, n1=100, n_torus=(8,))
        fars, ps, flux = coupled_states(
            DomainSpec(n=2, L=5, n1=100, n_torus=(8,)), t0=0.05, dt=2.5e-3, refine=2)
        u_tilde = assemble_bundle(fars[0], ps[0], flux, dspec).u_tilde
        far, cells = fars[0], far_field_grid(dspec)[1][2:-2]
        lo = np.minimum(far[0][cells], far[1][cells])
        hi = np.maximum(far[0][cells], far[1][cells])
        assert np.all(u_tilde.values >= lo - 1e-14)
        assert np.all(u_tilde.values <= hi + 1e-14)

    def test_wrong_far_field_shape_rejected(self):
        dspec = DomainSpec(n=2, L=4, n1=64, n_torus=(8,))
        prof = make_initial_state(dspec.L, dspec.n1, -0.5, 0.5)
        far = flat_far(dspec)
        for bad in (far[0], far[:, :, :4], np.stack([far[0], far[1], far[1]]),
                    flat_far(DomainSpec(n=2, L=4, n1=32, n_torus=(8,)))):
            with pytest.raises(ValueError, match="far field shape"):
                assemble_bundle(bad, prof, burgers(2), dspec)


class TestSourceTerm:
    def test_decays_like_the_disturbance(self):
        dspec = DomainSpec(n=2, L=10, n1=200, n_torus=(20,))
        fars, ps, flux = coupled_states(dspec, t0=0.25, dt=1e-3)
        h_early = source_term(fars[0], ps[0], flux, dspec)
        assert lp_norm(h_early, 1) < 1e-6  # the disturbance is already tiny

    def test_residual_identity_second_order(self):
        # the central correctness check: the closed form agrees with the
        # finite-difference defect of the assembled snapshots at O(h^2)
        mismatches = []
        for level in (0, 1):
            scale = 2**level
            dspec = DomainSpec(n=2, L=10, n1=200 * scale, n_torus=(10 * scale,))
            delta = 0.02 / scale
            fars, ps, flux = coupled_states(dspec, t0=0.1, delta=delta,
                                            dt=delta / 8, refine=8)
            bundles = [assemble_bundle(far, p, flux, dspec) for far, p in zip(fars, ps)]
            mismatches.append(residual_mismatch(*bundles, flux))
        order = np.log2(mismatches[0] / mismatches[1])
        assert order >= 1.9

    def test_residual_needs_equispaced_snapshots(self):
        dspec = DomainSpec(n=2, L=5, n1=100, n_torus=(10,))
        fars, ps, flux = coupled_states(dspec, t0=0.05, dt=2.5e-3, refine=2)
        b = assemble_bundle(fars[0], ps[0], flux, dspec)
        with pytest.raises(ValueError):
            discrete_residual(b, b, b, flux)

    def test_residual_needs_increasing_times(self):
        dspec = DomainSpec(n=2, L=5, n1=100, n_torus=(10,))
        fars, ps, flux = coupled_states(dspec, t0=0.05, delta=0.01, dt=2.5e-3, refine=2)
        b0, b1, b2 = (assemble_bundle(far, p, flux, dspec) for far, p in zip(fars, ps))
        for triple in ((b1, b1, b1), (b2, b1, b0), (b0, b1, b1)):
            with pytest.raises(ValueError, match="strictly increase"):
                discrete_residual(*triple, flux)
        with pytest.raises(ValueError, match="equispaced"):
            discrete_residual(b0, b1, dataclasses.replace(b2, t=b2.t + 0.005), flux)

    def test_bundle_builds_one_spline_and_matches_public_pieces(self, monkeypatch):
        dspec = DomainSpec(n=3, L=5, n1=100, n_torus=(6, 8))
        fars, ps, flux = coupled_states(dspec, t0=0.05, dt=2.5e-3, refine=2)
        builds = []

        class CountingSpline(ansatz.ProfileSpline):
            def __init__(self, *nodes):
                builds.append(nodes)
                super().__init__(*nodes)

        monkeypatch.setattr(ansatz, "ProfileSpline", CountingSpline)
        bundle = assemble_bundle(fars[0], ps[0], flux, dspec)
        assert len(builds) == 1
        nodes = (make_grid(ps[0].spec).x1, ps[0].values, ps[0].ul, ps[0].ur)
        spline, x1 = ProfileSpline(*nodes), make_grid(dspec).x1
        span = ps[0].ur - ps[0].ul
        g = (spline.value(x1) - ps[0].ul) / span
        assert np.array_equal(bundle.g, g)
        assert np.array_equal(bundle.dg, spline.slope(x1) / span)
        gg = g.reshape(-1, 1, 1)
        far, cells = fars[0], far_field_grid(dspec)[1][2:-2]
        ul, ur = far[0][cells], far[1][cells]
        assert np.array_equal(bundle.u_tilde.values, ul * (1.0 - gg) + ur * gg)
        assert np.array_equal(bundle.h.values,
                              source_term(fars[0], ps[0], flux, dspec).values)
