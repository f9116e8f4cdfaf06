"""The 1-d viscous rarefaction profile and its quantitative bounds.

The profile solves u_t + (f_1(u))_x = u_xx from hyperbolic-tangent data
joining the two end states ul < ur.  It replaces the Lipschitz inviscid
rarefaction fan as the smooth backbone that the multi-d experiments
perturb.  Its march takes the step of `pinned_line`, as a planar cylinder
run does, over the plan it is handed: `schedule`'s, or a run's own.
What the `profile` experiment measures of each recorded state is one
`profile_row`, built from one slope: the one-sided Oleinik slope bound,
the t^(-1+1/p) decay of the slope's L^p norms and the linear-in-time
growth of the integrated deviation from the end states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stepping
from ._lapack import dgtsv
from .domain import DomainSpec, Field, derivative, lp_norm, make_grid, write_table
from .fluxes import FluxSet, sample_range
from .stepping import DiffusionSweep, check_cfl, march, max_advective_dt, step_schedule

__all__ = [
    "ProfileState",
    "inviscid_rarefaction",
    "initial_profile",
    "make_initial_state",
    "schedule",
    "pinned_line",
    "check_profile",
    "evolve_profile",
    "ProfileSpline",
    "profile_row",
    "write_profile_series",
    "PROFILE_COLUMNS",
]

PROFILE_COLUMNS = ("t", "max_slope", "t_max_slope", "slope_l1", "slope_l2", "slope_linf",
                   "end_state_deviation")


@dataclass(frozen=True, kw_only=True)
class ProfileState(Field):
    """The viscous rarefaction profile at one instant: a Field on the line
    DomainSpec(n=1, L, n1), with the end states ul < ur it joins."""

    ul: float
    ur: float

    def __post_init__(self):
        super().__post_init__()
        if self.spec.n != 1:
            raise ValueError(f"a profile lives on a line (n = 1), got n = {self.spec.n}")
        if not self.ul < self.ur:
            raise ValueError(f"need ul < ur, got {self.ul}, {self.ur}")


def inviscid_rarefaction(x1, t: float, flux: FluxSet, ul: float, ur: float):
    """Self-similar entropy solution of the two-state dam-break problem.

    Constant states outside the fan; inside, the wave speed f_1' is
    inverted by bisection to 1e-12, or to one ulp where that is coarser.
    Requires t > 0 and f_1' strictly increasing on [ul, ur], probed at
    the distinct `sample_range` samples: a range a few ulps wide has
    fewer distinct floats than samples.
    """
    if t <= 0:
        raise ValueError(f"rarefaction fan needs t > 0, got t = {t}")
    if not ul < ur:
        raise ValueError(f"need ul < ur, got {ul}, {ur}")
    df = flux.df[0]
    probe = np.asarray(df(np.unique(sample_range(ul, ur))), dtype=float)
    if np.any(np.diff(probe) <= 0.0):
        raise ValueError("f_1' is not strictly increasing on [ul, ur]")

    x = np.asarray(x1, dtype=float)
    scalar = x.ndim == 0
    s = np.atleast_1d(x) / t
    sl, sr = float(df(np.float64(ul))), float(df(np.float64(ur)))
    out = np.empty_like(s)
    out[s <= sl] = ul
    out[s > sr] = ur
    fan = (s > sl) & (s <= sr)
    if np.any(fan):
        target = s[fan]
        lo = np.full_like(target, ul)
        hi = np.full_like(target, ur)
        mid = 0.5 * (lo + hi)
        while np.any((hi - lo > 1e-12) & (lo < mid) & (mid < hi)):
            below = np.asarray(df(mid), dtype=float) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            mid = 0.5 * (lo + hi)
        out[fan] = mid
    return float(out[0]) if scalar else out


def initial_profile(x1, ul: float, ur: float):
    """Hyperbolic-tangent data joining ul to ur, centered at the origin.

    np.tanh saturates to +-1 for large arguments, and ul and ur are
    halved (exactly) before they are added or subtracted, so nothing
    overflows; values reach ul/ur exactly beyond |x1| ~ 20.
    """
    x = np.asarray(x1, dtype=float)
    mid = 0.5 * ul + 0.5 * ur
    half = 0.5 * ur - 0.5 * ul
    out = mid + half * np.tanh(x)
    return float(out) if np.ndim(x1) == 0 else out


def make_initial_state(L: float, n1: int, ul: float, ur: float) -> ProfileState:
    """The tangent data on the line DomainSpec(n=1, L, n1)."""
    spec = DomainSpec(n=1, L=L, n1=n1)
    return ProfileState(spec, initial_profile(make_grid(spec).x1, ul, ur), ul=ul, ur=ur)


def schedule(p0: ProfileState, flux: FluxSet, t_end: float, snapshot_times):
    """(steps, dt, record_indices) of a march from p0 at t = 0 to t_end:
    `step_schedule` at the largest step the Courant number `stepping.CFL`
    allows on the end states' range; the edge mass judges the line's length.
    The snapshots must record a step after t = 0, and the plan records its
    last step as well, so a march reaches t_end whatever the snapshots."""
    dt_max = max_advective_dt(flux, (p0.spec.dx1,), p0.ul, p0.ur)
    steps, dt, record = step_schedule(t_end, dt_max, None, snapshot_times)
    if max(record) == 0:
        raise ValueError(f"snapshots must hold a time after t = 0 on the step grid, "
                         f"got {tuple(snapshot_times)}")
    return steps, dt, record | {steps}


def pinned_line(diffusion: DiffusionSweep, dx1: float, flux: FluxSet, lo, hi):
    """(sweep, rhs) of the 1-d `stepping.march` step of u_t + (f_1(u))_x = u_xx
    on lines of spacing dx1, their ghost cells pinned to lo and hi: the one
    pinned-end line step.  A state is one line, with numbers lo and hi, or
    a (rows, cells) array of lines stepped as one, with an array of end
    values per row; each row's step is bitwise that row's step alone.
    `diffusion` is the lines' Dirichlet half-step, built by the caller: the
    `profile` experiment builds its own, and a cylinder run's profile and
    planar line reuse the cylinder's, the same operator on the same cells."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    ghosts = tuple(np.repeat(end[..., None], 2, axis=-1) for end in (lo, hi))
    return (lambda state, axis: (diffusion.apply(state[0], b_lo=lo, b_hi=hi),),
            # looked up on the module, so a wrapper installed there sees the line
            lambda state: (stepping.advective_rhs(state[0], flux, (dx1,), ghosts),))


def check_profile(values, flux: FluxSet, dx1: float, dt: float, t: float) -> float:
    """The profile march's check of its new state `values` at time t: the
    Courant number on the line of spacing dx1, which aborts as `check_cfl`
    does.  A cylinder run's line march checks its profile row with it, so
    that the run's own Courant check, which the run counts per step and
    reports, reads the run's row alone."""
    return check_cfl(values, flux, (dx1,), dt, t)


def evolve_profile(p0: ProfileState, flux: FluxSet, plan, diffusion: DiffusionSweep):
    """The profile at each recorded step of plan = (steps, dt, record) from
    p0, yielded as the march reaches it; the march stops at the last record.

    Implicit trapezoidal diffusion, the caller's half-step `diffusion` on
    p0's cells at dt / 2, plus explicit second-order advection; ends are
    pinned to ul/ur, consistent with the exponentially small tails of the
    data.  The plan comes from `schedule`, or from a run that marches the
    profile beside its own state; the march starts at t = 0 (checked).
    """
    if p0.t != 0:
        raise ValueError(f"a profile march starts at t = 0, got a state at t = {p0.t}")
    _, dt, record = plan
    spec = p0.spec
    return march(
        (p0.values,), (max(record), dt, record), 1,
        *pinned_line(diffusion, spec.dx1, flux, p0.ul, p0.ur),
        lambda state, t: check_profile(state[0], flux, spec.dx1, dt, t),
        lambda k, state: ProfileState(spec, state[0], k * dt, ul=p0.ul, ur=p0.ur),
    )


class ProfileSpline:
    """The nodal slopes `.slopes` of the not-a-knot cubic spline through
    samples `values` at the nodes `x1`: the profile's slope at its own
    grid points, which is all the ansatz reads of it.

    The slopes solve de Boor's not-a-knot tridiagonal system (the third
    derivative is continuous across the second and the next-to-last node)
    with one LAPACK ``dgtsv``, scipy's routine bound through `_lapack`
    without scipy.linalg's package init.  Bands and right-hand side are
    built in the order ``scipy.interpolate.CubicSpline`` builds them, so
    every slope that spline stores (all but the last) is equal bit for
    bit.  Needs at least 4 nodes.  It is a class, not a function, only
    because the benchmark's tracer wraps its ``__init__``.
    """

    def __init__(self, x1, values):
        x, y = np.asarray(x1, dtype=float), np.asarray(values, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("profile nodes and values must be 1-d arrays of equal length")
        n = x.size
        if n < 4:
            raise ValueError(f"a profile spline needs at least 4 nodes, got {n}")
        h = np.diff(x)
        if not (np.all(np.isfinite(x)) and np.all(h > 0.0) and np.all(np.isfinite(y))):
            raise ValueError("profile nodes must be finite and strictly increasing, "
                             "and its values finite")
        sec = np.diff(y) / h
        d, du, dl, b = np.empty(n), np.empty(n - 1), np.empty(n - 1), np.empty(n)
        d[1:-1] = 2 * (h[:-1] + h[1:])
        du[1:] = h[:-1]
        dl[:-1] = h[1:]
        b[1:-1] = 3 * (h[1:] * sec[:-1] + h[:-1] * sec[1:])
        w = x[2] - x[0]
        d[0], du[0] = h[1], w
        b[0] = ((h[0] + 2 * w) * h[1] * sec[0] + h[0] ** 2 * sec[1]) / w
        w = x[-1] - x[-3]
        d[-1], dl[-1] = h[-2], w
        b[-1] = (h[-1] ** 2 * sec[-2] + (2 * w + h[-1]) * h[-2] * sec[-1]) / w
        *_, s, info = dgtsv(dl, d, du, b, True, True, True, True)
        if info != 0:
            raise ValueError(f"not-a-knot system: dgtsv info = {info}")
        self.slopes = s


def profile_row(p: ProfileState) -> dict:
    """The `PROFILE_COLUMNS` row of p, every entry from its one slope
    `derivative(p, 0)`.

    max_slope is the largest discrete slope, and t_max_slope its product
    with time.  For a convex flux that product stays bounded (Oleinik's
    one-sided entropy estimate).  For viscous Burgers the ceiling is
    exactly 1: the slope v = u_x solves v_t + u v_x + v^2 = v_xx, whose
    maximum principle gives u_x <= 1/t from any data.  The product is
    reported, not judged.  slope_l1, slope_l2 and slope_linf are the
    slope's L^p norms, which decay like t^(-1+1/p) (the L^1 norm is
    ur - ul for a monotone profile), and end_state_deviation integrates
    p - ul left of the origin and ur - p right of it, which grows at most
    linearly in t.  The decay laws speak of t > 0: a row at t = 0
    holds NaN norms and a NaN deviation.
    """
    slope = derivative(p, 0)
    max_slope = float(np.max(slope))
    if p.t > 0:
        left = make_grid(p.spec).x1 < 0
        deviation = float(np.sum(p.values[left] - p.ul)
                          + np.sum(p.ur - p.values[~left])) * p.spec.dx1
        slope = p.with_values(slope)
        norms = [lp_norm(slope, q) for q in (1.0, 2.0, np.inf)]
    else:
        deviation, norms = np.nan, [np.nan] * 3
    return dict(zip(PROFILE_COLUMNS, (p.t, max_slope, p.t * max_slope, *norms, deviation)))


def write_profile_series(states, path) -> list[dict]:
    """The CSV of each state's `profile_row`; returns the rows."""
    rows = [profile_row(st) for st in states]
    write_table(path, PROFILE_COLUMNS, (row.values() for row in rows))
    return rows
