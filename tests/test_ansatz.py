import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelab import ansatz, periodic, stepping

from rarelab.ansatz import (
    assemble_bundle,
    discrete_residual,
    far_field_grid,
    mean_flux_curvature,
    residual_mismatch,
    source_term,
)
from rarelab.domain import DomainSpec, Field, lp_norm, make_grid
from rarelab.fluxes import _const, burgers, cubic, linear_flux
from rarelab.mdsolver import trig_polynomial
from rarelab.periodic import solve_periodic, spectral_derivative
from rarelab.profile1d import ProfileSpline, ProfileState, evolve_profile, make_initial_state
from rarelab.stepping import CFL


def coupled_states(dspec, amp=0.1, t0=0.1, delta=None, dt=None):
    """Evolve the stacked far field and the profile on the cylinder's x1
    grid to matching instants."""
    flux = burgers(dspec.n)
    tspec, _ = far_field_grid(dspec)
    w0 = amp * trig_polynomial([(1,) * dspec.n + (1.0,)], tspec.coordinates())
    times = (t0,) if delta is None else (t0 - delta, t0, t0 + delta)
    dt = dt or 1e-3
    sl, sr = (solve_periodic(w0, ubar, flux, tspec,
                             periodic.schedule(w0, ubar, flux, tspec, times[-1], times, dt))
              for ubar in (-0.5, 0.5))
    p0 = make_initial_state(dspec.L, dspec.n1, -0.5, 0.5)
    dt_max = stepping.max_advective_dt(burgers(1), (p0.spec.dx1,), p0.ul, p0.ur, CFL)
    plan = stepping.step_schedule(times[-1], dt_max, dt, times)
    ps = list(evolve_profile(p0, burgers(1), plan))
    assert all(abs(ta - p.t) <= 1e-9 for (ta, _), p in zip(sl, ps))
    return [np.stack([a, b]) for (_, a), (_, b) in zip(sl, sr)], ps, flux


def weight(profile):
    """The ansatz's mixing weight: the profile rescaled onto (0, 1)."""
    return (profile.values - profile.ul) / (profile.ur - profile.ul)


def weight_problems(g) -> list[str]:
    """The mixing weight must lie in (0, 1) and increase along x1."""
    problems = []
    if not (np.all(g > 0.0) and np.all(g < 1.0)):
        problems.append("mixing weight leaves (0, 1)")
    if np.any(np.diff(g) < 0.0):
        problems.append("mixing weight is not increasing")
    return problems


def flat_far(dspec, ul=-0.5, ur=0.5):
    """The stacked far field of constant states ul and ur."""
    tspec, _ = far_field_grid(dspec)
    return np.stack([np.full(tspec.sizes, ul), np.full(tspec.sizes, ur)])


def flat_bundle(dspec, profile):
    """(ansatz, defect) of constant far fields at the profile's end states."""
    far = flat_far(dspec, profile.ul, profile.ur)
    return assemble_bundle(far, profile, burgers(dspec.n), dspec)


def ansatz_snapshots(dspec, fars, ps, flux):
    """The ansatz of each (far field, profile) pair as a Field at the
    profile's time, and each defect array."""
    pairs = [assemble_bundle(far, p, flux, dspec) for far, p in zip(fars, ps)]
    return ([Field(dspec, u, p.t) for (u, _), p in zip(pairs, ps)],
            [h for _, h in pairs])


class TestMixingWeight:
    def test_range_monotone_and_center(self):
        dspec = DomainSpec(n=2, L=20, n1=800, n_torus=(8,))
        prof = make_initial_state(L=20.0, n1=800, ul=-0.5, ur=0.5)
        x1 = make_grid(dspec).x1
        g, dg = weight(prof), ProfileSpline(x1, prof.values).slopes / (prof.ur - prof.ul)
        # the flat bundle blends its two constant states with exactly this weight
        assert np.array_equal(flat_bundle(dspec, prof)[0][:, 0],
                              prof.ul * (1.0 - g) + prof.ur * g)
        assert np.all((g >= 0.0) & (g <= 1.0))
        assert np.all(np.diff(g) >= -1e-14)
        # in the far tails the spline's slope is roundoff, down to -3.9e-16
        assert np.all(dg[np.abs(x1) <= 15.0] >= 0.0)
        # odd-symmetric data on a symmetric grid: g(x) + g(-x) = 1, so the
        # weight is 1/2 at the origin
        assert np.max(np.abs(g + g[::-1] - 1.0)) < 1e-12


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

    def test_nodes_and_weights_are_leggauss_on_the_unit_interval(self):
        x, w = np.polynomial.legendre.leggauss(5)
        assert ansatz._GL_NODES.tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert ansatz._GL_WEIGHTS.tobytes() == (0.5 * w).tobytes()

    def test_degree_nine_exactness(self):
        # Gauss-Legendre with 5 nodes integrates degree-9 polynomials exactly
        d2f = lambda u: u**9
        a, b = 1.3, -0.4
        exact = ((a - b) and (a**10 - b**10) / (10 * (a - b)))
        assert mean_flux_curvature(d2f, a, b) == pytest.approx(exact, rel=1e-13)


def reference_mean_flux_curvature(d2f, a, b):
    """`mean_flux_curvature` as it was before a constant f'' was summed
    once: every f'' evaluated on the five nodes of every segment."""
    b = np.asarray(b, dtype=float)
    span = np.asarray(a, dtype=float) - b
    acc = np.zeros(span.shape)
    x = np.empty(span.shape)
    for theta, w in zip(ansatz._GL_NODES, ansatz._GL_WEIGHTS):
        np.multiply(span, theta, out=x)
        x += b
        acc += w * np.asarray(d2f(x), dtype=float)
    return acc if acc.ndim else float(acc)


def reference_ansatz_and_defect(far, profile, flux, dspec):
    """`ansatz.assemble_bundle` as it was before it was built in
    place, with full-grid curvatures: the reference it must reproduce
    bitwise (its input checks left out)."""
    tspec, rows = far_field_grid(dspec)
    prof, span = profile.values, profile.ur - profile.ul
    g = (prof - profile.ul) / span
    dg = ProfileSpline(make_grid(profile.spec).x1, prof).slopes / span

    bshape = (-1,) + (1,) * (dspec.n - 1)
    gg, dgg, pp = g.reshape(bshape), dg.reshape(bshape), prof.reshape(bshape)

    cells = rows[2:-2]
    Ul, Ur = far[0][cells], far[1][cells]
    utild = Ul * (1.0 - gg) + Ur * gg

    wl = far[0] - profile.ul
    wr = far[1] - profile.ur

    curvatures = {}
    mix = np.zeros_like(utild)
    for axis in range(dspec.n):
        d2f = flux.d2f[axis]
        if d2f not in curvatures:
            curvatures[d2f] = [reference_mean_flux_curvature(d2f, U, utild) for U in (Ul, Ur)]
        curv_l, curv_r = curvatures[d2f]
        dwl = spectral_derivative(wl, axis)[cells]
        dwr = spectral_derivative(wr, axis)[cells]
        mix += curv_l * dwl
        mix -= curv_r * dwr
    h = (Ur - Ul) * gg * (1.0 - gg) * mix

    curv1 = reference_mean_flux_curvature(flux.d2f[0], pp, utild)
    h += (Ur - Ul) * curv1 * (utild - pp) * dgg

    ddiff = spectral_derivative(wr - wl, 0)[cells]
    h -= 2.0 * ddiff * dgg
    return utild, h


def bitwise_equal(got, want) -> bool:
    """Equal values, signs of zero included."""
    got = np.broadcast_to(got, np.shape(want))
    return bool(np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)))


REFERENCE_FLUXES = {
    "burgers": (burgers, -0.5, 0.5),
    "cubic": (cubic, 0.7, 1.2),
    "linear_flux": (lambda n: linear_flux(n, [1.0, -0.5, 2.0][:n]), -0.5, 0.5),
}


class TestBuiltInPlaceReference:
    @settings(max_examples=40, deadline=None)
    @given(
        n_torus=st.lists(st.integers(4, 7), min_size=0, max_size=2),
        m1=st.sampled_from([4, 8]),
        flux_name=st.sampled_from(sorted(REFERENCE_FLUXES)),
        flat=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_ansatz_and_defect_are_bitwise_the_reference(self, n_torus, m1, flux_name, flat,
                                                         seed):
        # 1-d, 2-d and 3-d; a flat far field makes every derivative and
        # mix exactly zero, so the signs of those zeros are compared too
        make_flux, ul, ur = REFERENCE_FLUXES[flux_name]
        dspec = DomainSpec(n=1 + len(n_torus), L=2, n1=4 * m1, n_torus=n_torus)
        tspec, _ = far_field_grid(dspec)
        rng = np.random.default_rng(seed)
        far = np.stack([np.full(tspec.sizes, u) for u in (ul, ur)])
        if not flat:
            far += 0.2 * rng.standard_normal(far.shape)
        p0 = make_initial_state(dspec.L, dspec.n1, ul, ur)
        prof = ProfileState(p0.spec, p0.values + 0.05 * rng.standard_normal(dspec.n1),
                            t=0.5, ul=ul, ur=ur)
        flux = make_flux(dspec.n)
        got = assemble_bundle(far, prof, flux, dspec)
        want = reference_ansatz_and_defect(far, prof, flux, dspec)
        assert all(bitwise_equal(g, w) for g, w in zip(got, want))

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.sampled_from([1.0, 0.0, -0.0, 2.5]),
        shape=st.lists(st.integers(1, 6), min_size=0, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_a_constant_curvature_broadcasts_to_the_array_path(self, c, shape, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape) for _ in "ab")
        d2f = _const(c)
        got = mean_flux_curvature(d2f, a, b)
        assert isinstance(got, float)
        assert bitwise_equal(got, reference_mean_flux_curvature(d2f, a, b))
        # the same function unmarked takes the array path itself
        unmarked = lambda u: d2f(u)
        assert bitwise_equal(mean_flux_curvature(unmarked, a, b),
                             reference_mean_flux_curvature(d2f, a, b))


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
        u_tilde, h = flat_bundle(dspec, prof)
        prof_b = prof.values[:, None]
        assert np.max(np.abs(u_tilde - prof_b)) < 1e-14
        assert np.max(np.abs(h)) < 1e-13
        assert not weight_problems(weight(prof))

    def test_convex_combination_bounds(self):
        dspec = DomainSpec(n=2, L=5, n1=100, n_torus=(8,))
        fars, ps, flux = coupled_states(
            DomainSpec(n=2, L=5, n1=100, n_torus=(8,)), t0=0.05, dt=2.5e-3)
        u_tilde, _ = assemble_bundle(fars[0], ps[0], flux, dspec)
        far, cells = fars[0], far_field_grid(dspec)[1][2:-2]
        lo = np.minimum(far[0][cells], far[1][cells])
        hi = np.maximum(far[0][cells], far[1][cells])
        assert np.all(u_tilde >= lo - 1e-14)
        assert np.all(u_tilde <= hi + 1e-14)

    def test_wrong_far_field_shape_rejected(self):
        dspec = DomainSpec(n=2, L=4, n1=64, n_torus=(8,))
        prof = make_initial_state(dspec.L, dspec.n1, -0.5, 0.5)
        far = flat_far(dspec)
        for bad in (far[0], far[:, :, :4], np.stack([far[0], far[1], far[1]]),
                    flat_far(DomainSpec(n=2, L=4, n1=32, n_torus=(8,)))):
            with pytest.raises(ValueError, match="far field shape"):
                assemble_bundle(bad, prof, burgers(2), dspec)

    @pytest.mark.parametrize("L, n1", [(4, 128), (4, 32), (5, 80)])
    def test_profile_on_another_line_rejected(self, L, n1):
        # the ansatz reads the profile at its nodes; it interpolates nothing
        dspec = DomainSpec(n=2, L=4, n1=64, n_torus=(8,))
        with pytest.raises(ValueError, match="is not the x1 grid"):
            flat_bundle(dspec, make_initial_state(L, n1, -0.5, 0.5))

    def test_weight_is_the_rescaled_profile_at_every_node(self):
        # far states 0 and 1 make the ansatz 0 * (1 - g) + 1 * g = g exactly
        dspec = DomainSpec(n=2, L=6, n1=96, n_torus=(8,))
        p0 = make_initial_state(dspec.L, dspec.n1, -1.0, 3.0)
        prof = dataclasses.replace(p0, values=p0.values + 0.01 * np.sin(make_grid(dspec).x1))
        far = flat_far(dspec, 0.0, 1.0)
        u_tilde, _ = assemble_bundle(far, prof, burgers(2), dspec)
        g = (prof.values - prof.ul) / (prof.ur - prof.ul)
        assert np.array_equal(u_tilde, np.broadcast_to(g[:, None], dspec.shape))


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
            fars, ps, flux = coupled_states(dspec, t0=0.1, delta=delta, dt=delta / 8)
            snaps, defects = ansatz_snapshots(dspec, fars, ps, flux)
            mismatches.append(residual_mismatch(*snaps, defects[1], flux))
        order = np.log2(mismatches[0] / mismatches[1])
        assert order >= 1.9

    def test_residual_needs_equispaced_snapshots(self):
        dspec = DomainSpec(n=2, L=5, n1=100, n_torus=(10,))
        fars, ps, flux = coupled_states(dspec, t0=0.05, dt=2.5e-3)
        (b,), _ = ansatz_snapshots(dspec, fars, ps, flux)
        with pytest.raises(ValueError):
            discrete_residual(b, b, b, flux)

    def test_residual_needs_increasing_times(self):
        dspec = DomainSpec(n=2, L=5, n1=100, n_torus=(10,))
        fars, ps, flux = coupled_states(dspec, t0=0.05, delta=0.01, dt=2.5e-3)
        (b0, b1, b2), _ = ansatz_snapshots(dspec, fars, ps, flux)
        for triple in ((b1, b1, b1), (b2, b1, b0), (b0, b1, b1)):
            with pytest.raises(ValueError, match="strictly increase"):
                discrete_residual(*triple, flux)
        with pytest.raises(ValueError, match="equispaced"):
            discrete_residual(b0, b1, dataclasses.replace(b2, t=b2.t + 0.005), flux)

    def test_bundle_builds_one_spline_and_matches_public_pieces(self, monkeypatch):
        dspec = DomainSpec(n=3, L=5, n1=100, n_torus=(6, 8))
        fars, ps, flux = coupled_states(dspec, t0=0.05, dt=2.5e-3)
        builds = []

        class CountingSpline(ansatz.ProfileSpline):
            def __init__(self, *nodes):
                builds.append(nodes)
                super().__init__(*nodes)

        monkeypatch.setattr(ansatz, "ProfileSpline", CountingSpline)
        u_tilde, h = assemble_bundle(fars[0], ps[0], flux, dspec)
        assert len(builds) == 1
        # built once, from the profile at its own nodes, the cylinder's x1 cells
        x1, values = builds[0]
        assert np.array_equal(x1, make_grid(dspec).x1) and np.array_equal(values, ps[0].values)
        g = weight(ps[0])
        gg = g.reshape(-1, 1, 1)
        far, cells = fars[0], far_field_grid(dspec)[1][2:-2]
        ul, ur = far[0][cells], far[1][cells]
        assert np.array_equal(u_tilde, ul * (1.0 - gg) + ur * gg)
        assert np.array_equal(h, source_term(fars[0], ps[0], flux, dspec).values)
