"""Far-field ansatz: weighted blend of the two torus solutions.

The ansatz interpolates between the torus solutions through a weight
that rescales the 1-d viscous profile onto (0, 1), so it carries the
far-field oscillations and leaves an x1-integrable perturbation.  It is
not an exact solution; `assemble_bundle` evaluates it and its defect
in closed form, as the pair of plain arrays (ansatz, defect) that a
cylinder record reads, and `discrete_residual` recomputes the same
defect by finite differences on three equispaced ansatz Fields.
Agreement of the two at second order under refinement
(`residual_mismatch`) is the module's central correctness check; it
exercises every term of the closed form.

The ansatz reads the solver's far-field sides, left and right, through
the row map of `far_field_grid`.  Formula-side derivatives are taken
spectrally on the torus grid (exact for resolved modes).  The ansatz
reads the profile at its own nodes, which must be the cylinder's x1
cells: the weight is the profile itself rescaled onto (0, 1), and its
slope the nodal slope of the profile's not-a-knot cubic spline, one
tridiagonal solve in `profile1d.ProfileSpline`.

The defect averages f'' between the far-field states at every cell; a
constant f'' (Burgers') is summed once and broadcast.  The defect is
built in place: a record peaks at five cylinder fields, the ansatz,
the jump Ur - Ul, the mixed term, the defect and one temporary.  An f''
that is not constant (cubic) averages into fields, each taken just
before its use and freed after it; such a record peaks at eight.
"""

from __future__ import annotations

import numpy as np

from .domain import DomainSpec, Field, derivative, laplacian, make_grid
from .fluxes import FluxSet
from .periodic import TorusSpec, spectral_derivative
from .profile1d import ProfileSpline, ProfileState

__all__ = [
    "mean_flux_curvature",
    "far_field_grid",
    "source_term",
    "assemble_bundle",
    "discrete_residual",
    "residual_mismatch",
]

# numpy.polynomial.legendre.leggauss(5) moved onto the unit interval,
# (x + 1) / 2 and w / 2, written out bitwise so that numpy.polynomial
# is not loaded for this one call
_GL_NODES = np.array([0.04691007703066802, 0.23076534494715845, 0.5,
                      0.7692346550528415, 0.9530899229693319])
_GL_WEIGHTS = np.array([0.11846344252809464, 0.23931433524968315, 0.28444444444444433,
                        0.23931433524968315, 0.11846344252809464])


def mean_flux_curvature(d2f, a, b):
    """Average of f'' along the straight segment from b to a.

    Five-point Gauss-Legendre on the unit interval: exact whenever f''
    is a polynomial of degree <= 9, and spectrally accurate otherwise.
    A constant f'' (one `fluxes` marks, as Burgers' is) is summed once,
    on its value: the same weighted sum in the same order as each cell
    of the array path, so the float returned broadcasts to it bitwise
    and no array of the segments' shape is made.
    """
    c = getattr(d2f, "constant", None)
    if c is not None:
        acc = 0.0
        for w in _GL_WEIGHTS:
            acc += w * c
        return float(acc)
    b = np.asarray(b, dtype=float)
    span = np.asarray(a, dtype=float) - b
    acc = np.zeros(span.shape)
    x = np.empty(span.shape)
    for theta, w in zip(_GL_NODES, _GL_WEIGHTS):
        np.multiply(span, theta, out=x)
        x += b
        acc += np.multiply(w, np.asarray(d2f(x), dtype=float), out=x)  # x is read: reuse it
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


def assemble_bundle(far, profile: ProfileState, flux: FluxSet,
                    dspec: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """(ansatz, defect), two arrays on the cylinder grid `dspec`, at
    profile.t, the time of the far field.

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

    # built in place, each product in its formula's order, so bitwise
    # the same: Ul and Ur are freed once their curvatures are taken, and
    # the curvatures once mix is summed
    cells = rows[2:-2]

    def on_cells(side, axis, out):
        # "clip": the rows are in range, and "raise" buffers a copy of out
        return np.take(spectral_derivative(side, axis), cells, axis=0, out=out, mode="clip")

    Ul, Ur = far[0][cells], far[1][cells]
    utild = Ul * (1.0 - gg)
    utild += Ur * gg
    curvatures = dict.fromkeys(flux.d2f[:dspec.n])
    for d2f in curvatures:
        curvatures[d2f] = [mean_flux_curvature(d2f, U, utild) for U in (Ul, Ur)]
    jump = np.subtract(Ur, Ul, out=Ur)
    del Ul, Ur

    wl = far[0] - profile.ul
    wr = far[1] - profile.ur
    mix = np.zeros_like(utild)
    tmp = np.empty_like(utild)
    for axis in range(dspec.n):
        curv_l, curv_r = curvatures[flux.d2f[axis]]
        mix += np.multiply(curv_l, on_cells(wl, axis, tmp), out=tmp)
        mix -= np.multiply(curv_r, on_cells(wr, axis, tmp), out=tmp)
    del curvatures, curv_l, curv_r
    h = jump * gg
    h *= 1.0 - gg
    h *= mix
    del mix, tmp

    jump *= mean_flux_curvature(flux.d2f[0], pp, utild)
    jump *= utild - pp
    jump *= dgg
    h += jump

    ddiff = np.multiply(2.0, on_cells(wr - wl, 0, jump), out=jump)
    ddiff *= dgg
    h -= ddiff
    return utild, h


def source_term(far, profile: ProfileState, flux: FluxSet, dspec: DomainSpec) -> Field:
    """Closed-form defect of the ansatz under the conservation law at profile.t."""
    _, h = assemble_bundle(far, profile, flux, dspec)
    return Field(dspec, h, t=profile.t)


def discrete_residual(prev: Field, mid: Field, nxt: Field, flux: FluxSet) -> Field:
    """Finite-difference defect of three ansatz snapshots, at mid.t.

    Time derivative by the centered difference of the bracketing
    snapshots, space derivatives by the second-order grid operators.
    """
    dt_lo = mid.t - prev.t
    dt_hi = nxt.t - mid.t
    if not (dt_lo > 0.0 and dt_hi > 0.0):
        raise ValueError(f"snapshot times {prev.t}, {mid.t}, {nxt.t} must strictly increase")
    if abs(dt_lo - dt_hi) > 1e-9 * max(dt_lo, dt_hi):
        raise ValueError("need equispaced snapshots for the centered difference")
    res = (nxt.values - prev.values) / (dt_lo + dt_hi)
    for axis in range(mid.spec.n):
        fval = mid.with_values(np.asarray(flux.f[axis](mid.values), dtype=float))
        res = res + derivative(fval, axis)
    res = res - laplacian(mid)
    return mid.with_values(res)


def residual_mismatch(prev: Field, mid: Field, nxt: Field, h: np.ndarray, flux: FluxSet) -> float:
    """Max distance between the finite-difference defect of three ansatz
    snapshots and h, the closed-form defect at the middle one."""
    res = discrete_residual(prev, mid, nxt, flux)
    return float(np.max(np.abs(res.values - h)))
