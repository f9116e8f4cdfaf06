"""Far-field ansatz: weighted blend of the two torus solutions.

The ansatz interpolates between the torus solutions through a weight
that rescales the 1-d viscous profile onto (0, 1), so it carries the
far-field oscillations and leaves an x1-integrable perturbation.  It is
not an exact solution; `assemble_bundle` evaluates it and its defect
in closed form, and `discrete_residual` recomputes the same defect by
finite differences on three equispaced bundles.  Agreement of the two
at second order under refinement is the module's central correctness
check; it exercises every term of the closed form.

The ansatz reads the solver's far-field sides, left and right, through
the row map of `far_field_grid`.  Formula-side derivatives are taken
spectrally on the torus grid (exact for resolved modes).  The ansatz
reads the profile at its own nodes, which must be the cylinder's x1
cells: the weight is the profile itself rescaled onto (0, 1), and its
slope the nodal slope of the profile's not-a-knot cubic spline, one
tridiagonal solve in `profile1d.ProfileSpline`.  A bundle keeps only
what the run and the residual check read: the ansatz and its defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DomainSpec, Field, derivative, laplacian, make_grid
from .fluxes import FluxSet
from .periodic import TorusSpec, spectral_derivative
from .profile1d import ProfileSpline, ProfileState

__all__ = [
    "AnsatzBundle",
    "mean_flux_curvature",
    "far_field_grid",
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
    """The ansatz and its closed-form defect at one instant."""

    u_tilde: Field
    h: Field
    t: float


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


def far_field_grid(spec: DomainSpec) -> tuple[TorusSpec, np.ndarray]:
    """The far-field torus of a cylinder grid and its row map.

    The torus direction-1 grid is the half-cell-offset image of the
    cylinder x1 cells modulo the unit period and the transverse grids
    coincide, so x1 cell i (i = -2 .. n1 + 1, both pairs of ghost cells
    included) lies exactly on torus row rows[i + 2]; no interpolation.
    That needs an integer number of x1 cells per period and an integer
    half-length; any other grid is a ValueError.
    """
    m1 = 1.0 / spec.dx1
    if abs(m1 - round(m1)) > 1e-9 or round(m1) < 4:
        raise ValueError(
            f"1/dx1 = {m1:.6g} must be an integer >= 4 so the unit period tiles the grid"
        )
    if abs(spec.L - round(spec.L)) > 1e-12:
        raise ValueError(f"L = {spec.L} must be an integer number of periods")
    tspec = TorusSpec(sizes=(round(m1), *spec.n_torus), offsets=(0.5,) + (0.0,) * (spec.n - 1))
    return tspec, np.arange(-2, spec.n1 + 2) % tspec.sizes[0]


def _ansatz_and_defect(far, profile, flux, dspec):
    """(ansatz values, defect values) at profile.t.

    `far` is the pair (left, right) of far-field sides, each a field on
    the torus of `far_field_grid(dspec)`, and `profile` lives on the x1
    line of `dspec`.  Every term of the defect carries either a
    disturbance factor or the distance of the ansatz from the bare
    profile, so the defect inherits the exponential decay of the torus
    disturbances.
    """
    tspec, rows = far_field_grid(dspec)
    if [np.shape(side) for side in far] != [tspec.sizes] * 2:
        raise ValueError(f"far field shape {[np.shape(s) for s in far]} != 2 x {tspec.sizes}")
    line = profile.spec
    if (line.L, line.n1) != (dspec.L, dspec.n1):
        raise ValueError(f"profile line (L, n1) = ({line.L}, {line.n1}) is not the x1 grid "
                         f"({dspec.L}, {dspec.n1}) of the cylinder")
    # the weight is the profile rescaled onto (0, 1), read at its nodes
    prof, span = profile.values, profile.ur - profile.ul
    g = (prof - profile.ul) / span
    dg = ProfileSpline(make_grid(line).x1, prof).slopes / span

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
            curvatures[d2f] = [mean_flux_curvature(d2f, U, utild) for U in (Ul, Ur)]
        curv_l, curv_r = curvatures[d2f]
        dwl = spectral_derivative(wl, axis)[cells]
        dwr = spectral_derivative(wr, axis)[cells]
        mix += curv_l * dwl
        mix -= curv_r * dwr
    h = (Ur - Ul) * gg * (1.0 - gg) * mix

    curv1 = mean_flux_curvature(flux.d2f[0], pp, utild)
    h += (Ur - Ul) * curv1 * (utild - pp) * dgg

    ddiff = spectral_derivative(wr - wl, 0)[cells]
    h -= 2.0 * ddiff * dgg
    return utild, h


def source_term(far, profile: ProfileState, flux: FluxSet, dspec: DomainSpec) -> Field:
    """Closed-form defect of the ansatz under the conservation law at profile.t."""
    _, h = _ansatz_and_defect(far, profile, flux, dspec)
    return Field(dspec, h, t=profile.t)


def assemble_bundle(far, profile: ProfileState, flux: FluxSet, dspec: DomainSpec) -> AnsatzBundle:
    """The ansatz and its defect at profile.t, the time of the far field."""
    utild, h = _ansatz_and_defect(far, profile, flux, dspec)
    t = profile.t
    return AnsatzBundle(u_tilde=Field(dspec, utild, t=t), h=Field(dspec, h, t=t), t=t)


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
        res = res + derivative(fval, axis)
    res = res - laplacian(u)
    return u.with_values(res)


def residual_mismatch(
    prev: AnsatzBundle, mid: AnsatzBundle, nxt: AnsatzBundle, flux: FluxSet
) -> float:
    """Max distance between the finite-difference defect and the closed form."""
    res = discrete_residual(prev, mid, nxt, flux)
    return float(np.max(np.abs(res.values - mid.h.values)))

