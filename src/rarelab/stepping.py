"""Time-stepping kernels shared by the 1-d, torus and cylinder solvers.

All three solvers take the same Strang step, written once here as
`strang_step`,

    u <- D(dt/2) A(dt) D(dt/2),

with the stiff diffusion D handled implicitly (trapezoidal rule, one
sweep per direction) and the advection A explicitly (Heun's method over
upwind-biased second-order conservative fluxes).  The implicit treatment
removes the dt <= dx^2/2 diffusion constraint; the advective CFL number
remains the only step-size restriction.  The x1 sweep, a Dirichlet solve
on the truncated line, is `DiffusionSweep`; the torus directions'
circulant sweeps are `periodic.TorusStepper`'s.  A step advances a tuple of
arrays together (the cylinder solution and its far field), and an array
may stack fields that step alike (the far field's two sides).
`step_schedule` fixes the steps and the records; `march`, the one loop
of every solver, steps from t = 0, checks each new state and yields the
records (a cylinder run's line march adds its hand-off step to each).

The per-direction diffusion operators commute on a uniform grid with
constant viscosity, so sweeping directions one at a time loses no
accuracy; the whole step is second order in dt and dx.

Layout.  Wherever a field has an x1 axis, the kernels take it as the
last, contiguous axis: the Dirichlet sweep runs along the last axis
only, and `advective_rhs` bounds the last axis when it is given ghosts.
The line and the profile have no other axis, but for a row each when a
cylinder run steps them as one; a cylinder run marches its field
x1-last, torus axes first.  Each torus stencil then reads whole
contiguous blocks instead of a short strided axis, and dpttrs takes the
sweep's right-hand side without a layout copy.  Torus fields have no x1
axis and keep their own order.  The last axis of a field with more than
one runs flat: its stencil passes, in `_face_flux` and in the sweep's
right-hand side, treat the rows as one contiguous run and rebuild or
skip the few cells where a row meets the next.  A pass over short rows
(192 cells on the 16 x 16 x 192 cylinder) cost about twice a pass over
one run of the same cells.  Other axes already pass over long
contiguous blocks; run flat, they would only add the spare cells at
each row's end (+15% work on a 16-cell torus axis).

The Dirichlet sweep's LAPACK routines come from `_lapack`, scipy's own
compiled module loaded without scipy.linalg's package init: a run that
imports this module loads nothing while it steps.
"""

from __future__ import annotations

import math

import numpy as np

from ._lapack import dpttrf, dpttrs
from .errors import NumericalAbort
from .fluxes import FluxSet, sample_range

__all__ = [
    "DiffusionSweep",
    "advective_rhs",
    "strang_step",
    "march",
    "step_schedule",
    "max_advective_dt",
    "check_cfl",
    "CFL",
    "MAX_STEPS",
]

MAX_STEPS = 10**7  # most steps a schedule may take
CFL = 0.4  # the advective Courant number of every march's stable step, a constant


class DiffusionSweep:
    """Trapezoidal half-step of 1-d diffusion along the last axis, the x1
    axis of every solver that has one, with Dirichlet ghost data.

    The sweep solves (I - alpha T) u' = (I + alpha T) u + 2 alpha b, with T
    the second-difference stencil [1, -2, 1], alpha = dt / (2 h^2) and b
    the ghost-cell values, held fixed over the sub-step, at the two ends.
    I - alpha T is symmetric positive definite and tridiagonal; its LDL^T
    factors come from LAPACK dpttrf when the sweep is built, and each
    sweep is one dpttrs solve of every line at once, each line bitwise
    its own solve.  A cylinder run factors it once per window of x1
    cells; its profile and planar line share the last window's.  The
    right-hand side is a C-ordered row per line.
    Its neighbour adds run over all rows as one flat run, after which
    each row's end cells, which the flat adds reach across, are set to
    their own two terms, (1 - 2 alpha) u_0 + alpha u_1 and its mirror,
    in the order a row by itself would add them; lines of at least 2
    cells are assumed.  It is handed over transposed: a Fortran-ordered
    column per line, which dpttrs solves in place with no layout copy
    either way.  Both are scipy's routines, bound through
    `_lapack` (the same function objects scipy.linalg.lapack exports, at
    a fraction of its import cost).  The torus axes' circulant sweeps are
    `periodic.TorusStepper`'s.
    """

    periodic = False  # read only by the benchmark's tracer, which files sweeps by it

    def __init__(self, length: int, h: float, dt: float):
        self.length = length
        self.alpha = a = dt / (2.0 * h * h)
        d, e, info = dpttrf(np.full(length, 1.0 + 2.0 * a), np.full(length - 1, -a))
        if info != 0:
            raise ValueError(f"dpttrf failed with info = {info}")
        self._d, self._e = d, e

    def apply(self, u: np.ndarray, b_lo, b_hi) -> np.ndarray:
        """Advance every line of `u` along its last axis, which has `length`
        cells, between the ghost values b_lo and b_hi (one per line)."""
        if u.shape[-1] != self.length:
            raise ValueError(f"a sweep of {self.length} cells got {u.shape[-1]} "
                             f"along axis {u.ndim - 1}")
        u2 = u.reshape(-1, self.length)
        a = self.alpha
        rhs = np.multiply(1.0 - 2.0 * a, u2, order="C")
        au = np.multiply(a, u2, order="C")
        # each row's end cells, (1 - 2a) u_0 + a u_1 and (1 - 2a) u_{L-1}
        # + a u_{L-2}, before the flat adds below reach across the rows
        first, last = rhs[:, 0] + au[:, 1], rhs[:, -1] + au[:, -2]
        flat, au = rhs.reshape(-1), au.reshape(-1)
        flat[1:] += au[:-1]
        flat[:-1] += au[1:]
        rhs[:, 0], rhs[:, -1] = first, last
        rhs[:, 0] += 2.0 * a * np.ravel(b_lo)
        rhs[:, -1] += 2.0 * a * np.ravel(b_hi)
        x, info = dpttrs(self._d, self._e, rhs.T, overwrite_b=True)
        if info != 0:
            raise ValueError(f"dpttrs failed with info = {info}")
        return x.T.reshape(u.shape)


def _along(axis: int, start, stop) -> tuple:
    """Index tuple selecting start:stop along `axis` and everything else."""
    idx = [slice(None)] * (axis + 1)
    idx[axis] = slice(start, stop)
    return tuple(idx)


def advective_rhs(values: np.ndarray, flux: FluxSet, spacings, ghosts=None) -> np.ndarray:
    """-sum_i d/dx_i f_i(u) with conservative flux differencing.

    Direction i has spacing spacings[i].  The leading axes beyond
    len(spacings) are a batch of fields stepped as one (the far field's
    two sides, a line and its profile), each bitwise its own call; the
    axes after them hold the directions.  With ghosts=None every
    direction wraps and direction i is the i-th of those axes (torus
    solver).  `ghosts`, when given, is a pair of arrays of shape
    (*transverse, 2) holding two ghost layers at the low/high end of the
    last axis, which is then direction 0 (x1) and bounded, while the
    others wrap, direction i + 1 on the i-th (the x1-last layout of the
    module docstring).  Directions are summed in order, x1 first,
    whichever axis holds them.

    Each direction's face fluxes come from `_face_flux`, which frees
    its padded copy and its reconstructions before it returns, and the
    faces are freed before the next direction starts: a direction holds
    the output, its faces and one difference beyond the helper's peak
    of about five fields.  Traced with ghosts on the 20 x 3200 and
    16 x 16 x 192 cylinders, a call peaks at 6.30 and 6.51 fields, and
    on the 20 x 1360 window of the 20 x 3200 one at 6.31
    (`tests/test_simulate_memory.py` bounds it).
    """
    axes = range(values.ndim - len(spacings), values.ndim)
    if ghosts is not None:
        axes = (values.ndim - 1, *axes[:-1])
    out = None
    for d, (axis, h) in enumerate(zip(axes, spacings)):
        if d == 0 and ghosts is not None:
            lo, hi = ghosts
        else:
            lo, hi = values[_along(axis, -2, None)], values[_along(axis, None, 2)]
        face = _face_flux(values, lo, hi, flux, d, axis)
        left, right = face[_along(axis, None, -1)], face[_along(axis, 1, None)]
        if out is None:  # the first direction: out = -(right - left) / 2h
            out = left - right
            out /= 2.0 * h
        else:
            diff = right - left
            diff /= 2.0 * h
            out -= diff
            del diff
        del face, left, right  # gone before the next direction's faces are built
    return out


def _face_flux(values: np.ndarray, lo, hi, flux: FluxSet, d: int, axis: int) -> np.ndarray:
    """Twice the flux of direction d through the N+1 faces of `axis`.

    The axis is padded by the two layers lo and hi at each end, in a
    copy that is freed as soon as the face states exist.  The last axis
    of a field with more than one runs flat (see the module's Layout):
    its padded rows of N+4 cells lie end to end in one buffer, followed
    by 3 zero cells, and each stencil pass below is one slice of it at
    an offset of 1 or 2.  That yields rows of N+4 faces, whose last 3
    mix two rows, or the last row and the zero cells; they are computed
    and left out of the view returned.  The zeros only keep them finite.
    A single row is contiguous already and keeps the plain copy, which
    spares it the flat buffer's set-up.

    Upwind-biased second order (Fromm slopes, taken once per cell) with
    local Lax-Friedrichs dissipation on the reconstruction jump:
    f(ul) + f(ur) - max|f'| (ur - ul).  The caller folds both halves into
    one divide by 2h, which halving's exactness keeps bitwise equal to
    halving each.  Temporaries are reused in place, and so is f(ul),
    which `FluxSet` lets no f share with its argument; wave speeds are
    not reused, since a df may return its argument.
    """
    rows = values.shape[:-1]
    flat = len(rows) > 0 and axis == len(rows)  # the last axis of a field with more than one
    if flat:
        size = math.prod(rows) * (values.shape[-1] + 4)
        p = np.empty(size + 3, dtype=np.result_type(lo, values, hi))
        np.concatenate([lo, values, hi], axis=-1, out=p[:size].reshape(*rows, -1))
        p[size:] = 0.0  # read only by spare faces, and kept finite there
    else:
        p = np.concatenate([lo, values, hi], axis=axis)
    at = 0 if flat else axis
    # the slope (u_{i+1} - u_{i-1}) / 4 of cells -1 .. N, then each
    # face's left and right states; ur takes the slopes' buffer
    slope = p[_along(at, 2, None)] - p[_along(at, None, -2)]
    slope *= 0.25
    ul = p[_along(at, 1, -2)] + slope[_along(at, None, -1)]
    ur = slope[_along(at, 1, None)]
    np.subtract(p[_along(at, 2, -1)], ur, out=ur)
    del p, slope  # the slopes' buffer lives on as ur
    a = np.abs(flux.df[d](ul))
    np.maximum(a, np.abs(flux.df[d](ur)), out=a)
    face = flux.f[d](ul)
    face += flux.f[d](ur)
    ur -= ul
    a *= ur
    face -= a
    return face.reshape(*rows, -1)[..., :-3] if flat else face


def strang_step(held: list, dt: float, ndim: int, sweep, rhs) -> tuple:
    """One step D(dt/2) A(dt) D(dt/2) of a tuple of arrays.

    The state is popped from `held`, a one-item list, so the step holds
    the only reference the caller handed it and frees the state after
    its first sweep, however the call is forwarded.
    `sweep(state, axis)` returns the state after the half-step diffusion
    sweep along spatial axis `axis`, for axis = 0 .. ndim-1 in turn;
    `rhs(state)` returns the advective right-hand side of every array,
    in arrays of its own that no one else holds, as `advective_rhs`
    returns them.  Advection is Heun's method over `rhs`, built in place:
    each stage u + dt k1 in the buffer of dt k1, and the update
    u + 0.5 dt (k1 + k2) in k2's buffer, which becomes the new state.
    IEEE addition and multiplication commute, so either is bitwise the
    expression written out.  No array the step is handed is written.
    """
    state = held.pop()
    for axis in range(ndim):
        state = sweep(state, axis)
    k1 = rhs(state)
    k2 = rhs(tuple(_heun_stage(u, k, dt) for u, k in zip(state, k1)))
    state = tuple(_heun_update(u, a, b, dt) for u, a, b in zip(state, k1, k2))
    for axis in range(ndim):
        state = sweep(state, axis)
    return state


def _heun_stage(u, k, dt: float):
    """u + dt k, in the buffer of dt k."""
    s = dt * k
    s += u
    return s


def _heun_update(u, a, b, dt: float):
    """u + 0.5 dt (a + b), in b's buffer."""
    b += a
    b *= 0.5 * dt
    b += u
    return b


def march(state: tuple, plan, ndim: int, sweep, rhs, check, keep):
    """Take a schedule's plan = (steps, dt, record) of Strang steps from
    `state` at time 0, yielding keep(k, state) at each recorded k; a
    consumer that stops takes no later step.  `check(state, t)` sees every
    new state, at t = (k + 1) dt, before it is kept or stepped again, so a
    NaN state aborts even on the last step.  Only the current state is
    held, in a one-item list that the step pops, so the step frees it
    after its first sweep; a start state the caller hands over goes the
    same way."""
    steps, dt, record = plan
    held = [state]
    del state
    for k in range(steps + 1):
        if k in record:
            yield keep(k, held[0])
        if k < steps:
            held.append(strang_step(held, dt, ndim, sweep, rhs))
            check(held[0], (k + 1) * dt)


def step_schedule(t_end: float, dt_max: float, dt, snapshot_times):
    """Uniform steps over [0, t_end]: (steps, dt, record_indices).

    The step is the requested `dt` (or `dt_max` when dt is None),
    shrunk so a whole number of steps spans the interval.  A dt that
    divides t_end up to roundoff (1e-12 relative) is kept, since
    t_end / (t_end / m) can exceed m by an ulp: a config's dt = 0.6 / 111
    over t_end = 0.6 takes its 111 steps, not 112 shorter ones.  A
    requested dt above the stable `dt_max` is an error.  Snapshot times are
    rounded to the step grid; `record_indices` holds the step indices to
    record, the final step when no snapshot time is given.  This is the
    one owner of the rules t_end > 0, dt > 0, at most `MAX_STEPS` steps
    and 0 <= snapshot <= t_end.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must exceed the start time 0, got {t_end:g}")
    if dt is not None and not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt is not None and dt > dt_max * (1.0 + 1e-12):
        raise ValueError(f"requested dt={dt:.3e} > stable {dt_max:.3e}")
    step = dt if dt is not None else dt_max
    span = t_end / step * (1.0 - 1e-12) if step > 0 else math.inf  # dt_max may underflow to 0
    if not span <= MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end:g} / {step:g} takes more than {MAX_STEPS} steps")
    steps = max(1, math.ceil(span))
    dt = t_end / steps
    record = set()
    for ts in snapshot_times:
        idx = round(ts / dt) if math.isfinite(ts / dt) else -1
        if not 0 <= idx <= steps:
            raise ValueError(f"snapshots entry {ts} lies outside [0, {t_end:g}]")
        record.add(idx)
    return steps, dt, record or {steps}


def _advective_rate(flux: FluxSet, spacings, u) -> float:
    """sum_i max |f_i'(u)| / h_i over the values u.  The peak is taken
    once per distinct derivative function, so a Burgers state is read
    once, not once per direction."""
    dfs = flux.df[:len(spacings)]
    peak = {df: float(np.max(np.abs(np.asarray(df(u), dtype=float)))) for df in set(dfs)}
    return sum(peak[df] / h for df, h in zip(dfs, spacings))


def max_advective_dt(flux: FluxSet, spacings, umin: float, umax: float) -> float:
    """Largest dt honouring the advective Courant number `CFL` over the
    `sample_range` samples of [umin, umax]."""
    u = sample_range(umin, umax)
    with np.errstate(over="ignore"):  # a non-finite speed is the error below
        rate = _advective_rate(flux, spacings, u)
    if not math.isfinite(rate):
        raise ValueError(f"the wave speed on [{umin:g}, {umax:g}] is not finite")
    return np.inf if rate == 0.0 else CFL / rate


def check_cfl(values: np.ndarray, flux: FluxSet, spacings, dt: float, t: float) -> float:
    """The realized advective Courant number of `values`; abort when it
    leaves the stable range or is not finite (a NaN or inf state)."""
    courant = dt * _advective_rate(flux, spacings, values)
    if not courant <= 1.0:
        detail = "exceeds 1" if math.isfinite(courant) else "is not finite"
        raise NumericalAbort("cfl", t, f"advective Courant number {courant:.3f} {detail}")
    return courant
