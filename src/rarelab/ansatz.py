"""Far-field ansatz: weighted blend of the two torus solutions.

The ansatz interpolates between the torus solutions through a weight
that rescales the 1-d viscous profile onto (0, 1), so it carries the
far-field oscillations and leaves an x1-integrable perturbation.  It is
not an exact solution; `assemble_bundle` evaluates it and its defect
in closed form, and `discrete_residual` recomputes the same defect by
finite differences on three equispaced bundles.  Agreement of the two
at second order under refinement is the module's central correctness
check; it exercises every term of the closed form.

Formula-side derivatives are taken spectrally on the torus grid (exact
for resolved modes) and the weight's slope comes from the fine profile
grid, so the closed form is computed to higher accuracy than the
finite-difference residual it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DomainSpec, Field, derivative, laplacian, make_grid
from .fluxes import FluxSet
from .periodic import PeriodicState, spectral_derivative
from .profile1d import ProfileSpline, ProfileState

__all__ = [
    "AnsatzBundle",
    "mean_flux_curvature",
    "tile_to_cylinder",
    "source_term",
    "assemble_bundle",
    "discrete_residual",
    "residual_mismatch",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


@dataclass(frozen=True)
class AnsatzBundle:
    """Everything the perturbation bookkeeping needs at one instant."""

    g: np.ndarray              # mixing weight on the x1 axis, in (0, 1)
    dg: np.ndarray             # its x1 slope, positive
    profile_values: np.ndarray # 1-d profile sampled on the x1 axis
    u_tilde: Field
    h: Field
    t: float

    def check(self) -> list[str]:
        problems = []
        if not (np.all(self.g > 0.0) and np.all(self.g < 1.0)):
            problems.append("mixing weight leaves (0, 1)")
        if np.any(np.diff(self.g) < 0.0):
            problems.append("mixing weight is not increasing")
        return problems


def mean_flux_curvature(d2f, a, b):
    """Average of f'' along the straight segment from b to a.

    Five-point Gauss-Legendre on the unit interval: exact whenever f''
    is a polynomial of degree <= 9, and spectrally accurate otherwise.
    """
    b = np.asarray(b, dtype=float)
    span = np.asarray(a, dtype=float) - b
    acc = np.zeros(span.shape)
    x = np.empty(span.shape)
    for theta, w in zip(_GL_NODES, _GL_WEIGHTS):
        np.multiply(span, theta, out=x)
        x += b
        acc += w * np.asarray(d2f(x), dtype=float)
    return acc if acc.ndim else float(acc)


def tile_to_cylinder(state: PeriodicState, dspec: DomainSpec) -> np.ndarray:
    """Periodic extension of a torus state onto the cylinder grid.

    Alignment requirements (all exact index mappings, no interpolation):
    the torus direction-1 grid must be the half-cell-offset image of the
    cylinder x1 cells modulo the unit period, which needs an integer
    half-length and an integer number of x1 cells per period; transverse
    grids must coincide.
    """
    sizes = state.spec.sizes
    if sizes[1:] != dspec.n_torus:
        raise ValueError(f"transverse grids differ: {sizes[1:]} vs {dspec.n_torus}")
    if any(abs(o) > 1e-12 for o in state.spec.offsets[1:]):
        raise ValueError("transverse tiling needs zero-offset torus grids")
    if abs(state.spec.offsets[0] - 0.5) > 1e-12:
        raise ValueError("direction-1 tiling needs the half-cell-offset torus grid")
    m1 = sizes[0]
    if abs(m1 * dspec.dx1 - 1.0) > 1e-9 or abs(dspec.L - round(dspec.L)) > 1e-12:
        raise ValueError(
            f"cylinder grid (L={dspec.L}, dx1={dspec.dx1}) does not tile the unit period"
        )
    idx = np.arange(dspec.n1) % m1
    return state.values[idx]


def _ansatz_and_defect(ul_state, ur_state, profile, flux, dspec):
    """(g, dg, profile values, ansatz values, defect values) at one instant.

    Every term of the defect carries either a disturbance factor or the
    distance of the ansatz from the bare profile, so the defect inherits
    the exponential decay of the torus disturbances.
    """
    ts = (ul_state.t, ur_state.t, profile.t)
    if max(ts) - min(ts) > 1e-9:
        raise ValueError(f"time stamps differ: {ts}")
    if profile.ur == profile.ul:
        raise ValueError("degenerate end states: no rarefaction to rescale")
    # the weight is the profile rescaled onto (0, 1), from one spline build
    x1, spline, span = make_grid(dspec).x1, ProfileSpline(profile), profile.ur - profile.ul
    prof = spline.value(x1)
    g, dg = (prof - profile.ul) / span, spline.slope(x1) / span

    bshape = (-1,) + (1,) * (dspec.n - 1)
    gg, dgg, pp = g.reshape(bshape), dg.reshape(bshape), prof.reshape(bshape)

    Ul = tile_to_cylinder(ul_state, dspec)
    Ur = tile_to_cylinder(ur_state, dspec)
    utild = Ul * (1.0 - gg) + Ur * gg

    idx = np.arange(dspec.n1) % ul_state.spec.sizes[0]
    wl = ul_state.w
    wr = ur_state.w

    curvatures = {}
    mix = np.zeros_like(utild)
    for axis in range(dspec.n):
        d2f = flux.d2f[axis]
        if d2f not in curvatures:
            curvatures[d2f] = [mean_flux_curvature(d2f, U, utild) for U in (Ul, Ur)]
        curv_l, curv_r = curvatures[d2f]
        dwl = spectral_derivative(wl, axis)[idx]
        dwr = spectral_derivative(wr, axis)[idx]
        mix += curv_l * dwl
        mix -= curv_r * dwr
    h = (Ur - Ul) * gg * (1.0 - gg) * mix

    curv1 = mean_flux_curvature(flux.d2f[0], pp, utild)
    h += (Ur - Ul) * curv1 * (utild - pp) * dgg

    ddiff = spectral_derivative(wr - wl, 0)[idx]
    h -= 2.0 * ddiff * dgg
    return g, dg, prof, utild, h


def source_term(
    ul_state: PeriodicState,
    ur_state: PeriodicState,
    profile: ProfileState,
    flux: FluxSet,
    dspec: DomainSpec,
) -> Field:
    """Closed-form defect of the ansatz under the conservation law."""
    *_, h = _ansatz_and_defect(ul_state, ur_state, profile, flux, dspec)
    return Field(dspec, h, t=ul_state.t)


def assemble_bundle(
    ul_state: PeriodicState,
    ur_state: PeriodicState,
    profile: ProfileState,
    flux: FluxSet,
    dspec: DomainSpec,
) -> AnsatzBundle:
    g, dg, prof, utild, h = _ansatz_and_defect(ul_state, ur_state, profile, flux, dspec)
    t = ul_state.t
    return AnsatzBundle(
        g=g, dg=dg, profile_values=prof, u_tilde=Field(dspec, utild, t=t),
        h=Field(dspec, h, t=t), t=t,
    )


def discrete_residual(
    prev: AnsatzBundle, mid: AnsatzBundle, nxt: AnsatzBundle, flux: FluxSet
) -> Field:
    """Finite-difference defect of the stored ansatz snapshots.

    Time derivative by the centered difference of the bracketing
    snapshots, space derivatives by the second-order grid operators.
    """
    dt_lo = mid.t - prev.t
    dt_hi = nxt.t - mid.t
    if not (dt_lo > 0.0 and dt_hi > 0.0):
        raise ValueError(f"snapshot times {prev.t}, {mid.t}, {nxt.t} must strictly increase")
    if abs(dt_lo - dt_hi) > 1e-9 * max(dt_lo, dt_hi):
        raise ValueError("need equispaced snapshots for the centered difference")
    u = mid.u_tilde
    res = (nxt.u_tilde.values - prev.u_tilde.values) / (dt_lo + dt_hi)
    for axis in range(u.spec.n):
        fval = u.with_values(np.asarray(flux.f[axis](u.values), dtype=float))
        res = res + derivative(fval, axis).values
    res = res - laplacian(u).values
    return u.with_values(res)


def residual_mismatch(
    prev: AnsatzBundle, mid: AnsatzBundle, nxt: AnsatzBundle, flux: FluxSet
) -> float:
    """Max distance between the finite-difference defect and the closed form."""
    res = discrete_residual(prev, mid, nxt, flux)
    return float(np.max(np.abs(res.values - mid.h.values)))

