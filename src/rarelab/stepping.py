"""Time-stepping kernels shared by the 1-d, torus and cylinder solvers.

All three solvers take the same Strang step, written once here as
`strang_step`,

    u <- D(dt/2) A(dt) D(dt/2),

with the stiff diffusion D handled implicitly (trapezoidal rule, one
sweep per direction) and the advection A explicitly (Heun's method over
upwind-biased second-order conservative fluxes).  The implicit treatment
removes the dt <= dx^2/2 diffusion constraint; the advective CFL number
remains the only step-size restriction.  A step advances a tuple of
arrays together (the cylinder solution and its stacked far field), and
`step_schedule` fixes the step count and the steps to record.

The bounded x1 direction uses a banded tridiagonal solve (factoring
once with LAPACK gttrf/gttrs is no faster: either route copies the
C-ordered block to Fortran order).  A periodic direction's trapezoidal
operator is circulant, so the DFT diagonalises it and its sweep is a
real FFT, a precomputed multiplier and the inverse FFT along that axis.

The per-direction diffusion operators commute on a uniform grid with
constant viscosity, so sweeping directions one at a time loses no
accuracy; the whole step is second order in dt and dx.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_banded

from .errors import NumericalAbort
from .fluxes import FluxSet

__all__ = [
    "DiffusionSweep",
    "advective_rhs",
    "strang_step",
    "step_schedule",
    "max_advective_dt",
    "check_cfl",
]


class DiffusionSweep:
    """Trapezoidal half-step of 1-d diffusion along one axis.

    Dirichlet sweeps run along axis 0 and take ghost-cell values held
    fixed over the sub-step.  Periodic sweeps run along any axis as the
    Fourier multiplier (1 - alpha lam_k) / (1 + alpha lam_k) with
    lam_k = 2 - 2 cos(2 pi k / length).  The banded factors and the
    multiplier depend only on (length, alpha), so a sweep instance is
    built once per solver.
    """

    def __init__(self, length: int, h: float, dt: float, periodic: bool):
        self.length = length
        self.periodic = periodic
        self.alpha = a = dt / (2.0 * h * h)
        if periodic:
            lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(length // 2 + 1) / length)
            self._mult = (1.0 - a * lam) / (1.0 + a * lam)
        else:
            ab = np.zeros((3, length))
            ab[0, 1:] = -a
            ab[1, :] = 1.0 + 2.0 * a
            ab[2, :-1] = -a
            self._ab = ab

    def apply(self, u: np.ndarray, b_lo=None, b_hi=None, axis: int = 0) -> np.ndarray:
        """Advance along `axis`, where `u` has `length` cells."""
        if self.periodic:
            hat = np.fft.rfft(u, axis=axis)
            hat *= self._mult.reshape((-1,) + (1,) * (u.ndim - 1 - axis % u.ndim))
            return np.fft.irfft(hat, self.length, axis=axis)
        if axis != 0:
            raise ValueError("Dirichlet sweeps run along axis 0")
        if b_lo is None or b_hi is None:
            raise ValueError("Dirichlet sweep needs ghost values on both ends")
        u2 = u.reshape(self.length, -1)
        a = self.alpha
        rhs = (1.0 - 2.0 * a) * u2
        rhs[1:] += a * u2[:-1]
        rhs[:-1] += a * u2[1:]
        rhs[0] += 2.0 * a * np.ravel(b_lo)
        rhs[-1] += 2.0 * a * np.ravel(b_hi)
        return solve_banded((1, 1), self._ab, rhs).reshape(u.shape)


def _reconstruct_faces(um1, u0, up1, up2, flux_f, flux_df):
    """Upwind-biased second-order face flux (Fromm slopes, local
    Lax-Friedrichs dissipation on the reconstruction jump).  Temporaries
    are reused in place, but flux results never are: a flux may return
    its argument."""
    ul = up1 - um1
    ul *= 0.25
    ul += u0
    ur = up2 - u0
    ur *= 0.25
    np.subtract(up1, ur, out=ur)
    a = np.abs(flux_df(ul))
    np.maximum(a, np.abs(flux_df(ur)), out=a)
    face = flux_f(ul) + flux_f(ur)
    face *= 0.5
    a *= 0.5
    ur -= ul
    a *= ur
    face -= a
    return face


def _along(axis: int, start, stop) -> tuple:
    """Index tuple selecting start:stop along `axis` and everything else."""
    idx = [slice(None)] * (axis + 1)
    idx[axis] = slice(start, stop)
    return tuple(idx)


def advective_rhs(values: np.ndarray, flux: FluxSet, spacings, ghosts=None) -> np.ndarray:
    """-sum_i d/dx_i f_i(u) with conservative flux differencing.

    The trailing len(spacings) axes are spatial; leading axes, if any,
    stack independent fields.  `ghosts`, when given, is a pair of arrays
    of shape (2, *transverse) holding two ghost layers at the low/high
    end of the first spatial axis, which is then treated as bounded
    while every other axis wraps.  With ghosts=None all axes wrap (torus
    solver).  The N+1 faces of an axis come from four shifted views of
    the axis padded by two layers.
    """
    out = np.zeros_like(values)
    lead = values.ndim - len(spacings)
    for d, h in enumerate(spacings):
        axis = lead + d
        if d == 0 and ghosts is not None:
            lo, hi = ghosts
        else:
            lo, hi = values[_along(axis, -2, None)], values[_along(axis, None, 2)]
        p = np.concatenate([lo, values, hi], axis=axis)
        face = _reconstruct_faces(
            p[_along(axis, None, -3)], p[_along(axis, 1, -2)],
            p[_along(axis, 2, -1)], p[_along(axis, 3, None)],
            flux.f[d], flux.df[d],
        )
        diff = face[_along(axis, 1, None)] - face[_along(axis, None, -1)]
        diff /= h
        out -= diff
    return out


def strang_step(state: tuple, dt: float, ndim: int, sweep, rhs) -> tuple:
    """One step D(dt/2) A(dt) D(dt/2) of a tuple of arrays.

    `sweep(state, axis)` returns the state after the half-step diffusion
    sweep along spatial axis `axis`, for axis = 0 .. ndim-1 in turn;
    `rhs(state)` returns the advective right-hand side of every array.
    Advection is Heun's method over `rhs`.
    """
    for axis in range(ndim):
        state = sweep(state, axis)
    k1 = rhs(state)
    k2 = rhs(tuple(u + dt * k for u, k in zip(state, k1)))
    state = tuple(u + 0.5 * dt * (a + b) for u, a, b in zip(state, k1, k2))
    for axis in range(ndim):
        state = sweep(state, axis)
    return state


def step_schedule(span: float, dt_max: float, dt, t0: float, snapshot_times):
    """Uniform steps over [t0, t0 + span]: (steps, dt, record_indices).

    The step is the requested `dt` (or `dt_max` when dt is None),
    shrunk so a whole number of steps spans the interval.  A dt that
    divides the span up to roundoff (1e-12 relative) is kept, since
    span / (span / m) can exceed m by an ulp: a second schedule over the
    same span with the returned dt takes the same steps.  A requested
    dt above the stable `dt_max` aborts.  Snapshot times are rounded to
    the step grid; `record_indices` holds the step indices to record,
    the final step when no snapshot time is given.
    """
    if not span > 0:
        raise ValueError(f"the run must span a positive time, got {span}")
    if dt is not None and not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt is not None and dt > dt_max * (1.0 + 1e-12):
        raise NumericalAbort("cfl", t0, f"requested dt={dt:.3e} > stable {dt_max:.3e}")
    steps = max(1, math.ceil(span / (dt if dt is not None else dt_max) * (1.0 - 1e-12)))
    dt = span / steps
    record = set()
    for ts in snapshot_times:
        idx = int(round((ts - t0) / dt))
        if not 0 <= idx <= steps:
            raise ValueError(f"snapshot time {ts} outside [{t0}, {t0 + span}]")
        record.add(idx)
    return steps, dt, record or {steps}


def _advective_rate(flux: FluxSet, spacings, u) -> float:
    """sum_i max |f_i'(u)| / h_i over the values u."""
    return sum(float(np.max(np.abs(np.asarray(flux.df[axis](u), dtype=float)))) / h
               for axis, h in enumerate(spacings))


def max_advective_dt(flux: FluxSet, spacings, umin: float, umax: float, cfl: float) -> float:
    """Largest dt honouring the advective CFL number."""
    rate = _advective_rate(flux, spacings, np.linspace(umin, umax, 2001))
    return np.inf if rate == 0.0 else cfl / rate


def check_cfl(values: np.ndarray, flux: FluxSet, spacings, dt: float, t: float) -> None:
    """Abort when the realized Courant number leaves the stable range."""
    courant = dt * _advective_rate(flux, spacings, values)
    if courant > 1.0:
        raise NumericalAbort("cfl", t, f"advective Courant number {courant:.3f} exceeds 1")
