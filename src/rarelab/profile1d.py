"""The 1-d viscous rarefaction profile and its quantitative bounds.

The profile solves u_t + (f_1(u))_x = u_xx from hyperbolic-tangent data
joining the two end states ul < ur.  It replaces the Lipschitz inviscid
rarefaction fan as the smooth backbone that the multi-d experiments
perturb.  Checks provided here: the one-sided Oleinik slope bound, the
linear-in-time growth of the integrated deviation from the end states,
and the t^(-1+1/p) decay of the slope's L^p norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import stepping
from .domain import DomainSpec, Field, derivative, lp_norm, make_grid, write_table
from .fluxes import FluxSet
from .stepping import DiffusionSweep, check_cfl, max_advective_dt, step_schedule, strang_step

__all__ = [
    "ProfileState",
    "inviscid_rarefaction",
    "initial_profile",
    "make_initial_state",
    "schedule",
    "evolve_profile",
    "oleinik_bound",
    "profile_norm_checks",
    "ProfileSpline",
    "write_profile_series",
]


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
    inverted by bisection to 1e-12.  Requires t > 0 and f_1' strictly
    increasing on [ul, ur].
    """
    if t <= 0:
        raise ValueError(f"rarefaction fan needs t > 0, got t = {t}")
    if not ul < ur:
        raise ValueError(f"need ul < ur, got {ul}, {ur}")
    df = flux.df[0]
    probe = np.asarray(df(np.linspace(ul, ur, 512)), dtype=float)
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
        while np.max(hi - lo) > 1e-12:
            mid = 0.5 * (lo + hi)
            below = np.asarray(df(mid), dtype=float) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out[fan] = 0.5 * (lo + hi)
    return float(out[0]) if scalar else out


def initial_profile(x1, ul: float, ur: float):
    """Hyperbolic-tangent data joining ul to ur, centered at the origin.

    np.tanh saturates to +-1 for large arguments, so the formula needs
    no explicit overflow guard; values reach ul/ur exactly beyond
    |x1| ~ 20.
    """
    x = np.asarray(x1, dtype=float)
    mid = 0.5 * (ul + ur)
    half = 0.5 * (ur - ul)
    out = mid + half * np.tanh(x)
    return float(out) if np.ndim(x1) == 0 else out


def make_initial_state(L: float, n1: int, ul: float, ur: float) -> ProfileState:
    """The tangent data on the line DomainSpec(n=1, L, n1)."""
    spec = DomainSpec(n=1, L=L, n1=n1)
    return ProfileState(spec, initial_profile(make_grid(spec).x1, ul, ur), ul=ul, ur=ur)


def schedule(p0: ProfileState, flux: FluxSet, t_end: float, dt, cfl: float, snapshot_times):
    """(steps, dt, record_indices) of a march from p0 to t_end: `step_schedule`
    under the CFL bound of the end states' range."""
    dt_max = max_advective_dt(flux, (p0.spec.dx1,), p0.ul, p0.ur, cfl)
    return step_schedule(t_end - p0.t, dt_max, dt, p0.t, snapshot_times)


def evolve_profile(
    p0: ProfileState,
    flux: FluxSet,
    t_end: float,
    dt: float | None = None,
    cfl: float = 0.4,
    snapshot_times=(),
) -> list[ProfileState]:
    """The profile at the requested times of a march from p0 to t_end.

    Implicit trapezoidal diffusion plus explicit second-order advection;
    ends are pinned to ul/ur, consistent with the exponentially small
    tails of the data.  Snapshot times are rounded to the step grid of
    [p0.t, t_end], and the march stops at the last of them.
    """
    spec, dx = p0.spec, p0.spec.dx1
    _, dt, record = schedule(p0, flux, t_end, dt, cfl, snapshot_times)
    last = max(record)

    sweep = DiffusionSweep(spec.n1, dx, dt / 2.0, periodic=False)
    ghosts = (np.full((2,), p0.ul), np.full((2,), p0.ur))

    def sweep_line(state, axis):
        return (sweep.apply(state[0], b_lo=p0.ul, b_hi=p0.ur),)

    def rhs(state):
        # looked up on the module, so a wrapper installed there sees the march
        return (stepping.advective_rhs(state[0], flux, (dx,), ghosts),)

    u = p0.values
    out = []
    for k in range(last + 1):
        if k in record:
            out.append(ProfileState(spec, u, p0.t + k * dt, ul=p0.ul, ur=p0.ur))
        if k < last:
            (u,) = strang_step((u,), dt, 1, sweep_line, rhs)
            # check each new state, so a state that turned NaN aborts the march
            check_cfl(u, flux, (dx,), dt, p0.t + (k + 1) * dt)
    return out


def oleinik_bound(p: ProfileState) -> tuple[float, float]:
    """Largest discrete slope and its product with time.

    For a convex flux the product t * max_slope stays bounded (Oleinik's
    one-sided entropy estimate).  For viscous Burgers the ceiling is
    exactly 1: the slope v = u_x solves v_t + u v_x + v^2 = v_xx, whose
    maximum principle gives u_x <= 1/t from any data.  The product is
    reported, not judged.
    """
    max_slope = float(np.max(derivative(p, 0)))
    return max_slope, p.t * max_slope


def profile_norm_checks(p: ProfileState, ps) -> dict:
    """Slope norms and the integrated end-state deviation at one time.

    Returns the deviation integral (grows at most linearly in t), the
    L^p norms of the slope for each requested p, and their ratios to
    t^(-1+1/p).  Requires t > 0 for the ratios to make sense.
    """
    if p.t <= 0:
        raise ValueError("norm checks need t > 0")
    left = make_grid(p.spec).x1 < 0
    ut1 = float(np.sum(p.values[left] - p.ul) + np.sum(p.ur - p.values[~left])) * p.spec.dx1
    slope = p.with_values(derivative(p, 0))
    norms = {q: lp_norm(slope, q) for q in ps}
    ratios = {q: norms[q] / p.t ** (-1.0 + 1.0 / q) for q in ps}
    return {"t": p.t, "ut1": ut1, "norms": norms, "ratios": ratios}


class ProfileSpline:
    """Not-a-knot cubic interpolant of samples `values` at the nodes `x1`,
    clamped to the end states ul/ur outside them.

    Downstream modules sample a profile's values and slopes through this
    object on grids of their own; the cylinder run samples the profile at
    its own x1 cell centres, which are the profile's grid points.

    The nodal slopes solve de Boor's not-a-knot tridiagonal system (the
    third derivative is continuous across the second and the next-to-last
    node) with one LAPACK ``dgtsv``.  Bands, right-hand side, Hermite
    coefficients and the power-form sums are built in the order
    ``scipy.interpolate.CubicSpline`` builds them, so values and slopes
    equal that spline's bit for bit.  Needs at least 4 nodes.
    """

    def __init__(self, x1, values, ul: float, ur: float):
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
        t = (s[:-1] + s[1:] - 2 * sec) / h
        # power-form coefficients per interval, highest first; each sum
        # starts from +0.0 as scipy's does, so a -0.0 node value reads +0.0
        self._c = (t / h, (sec - s[:-1]) / h - t, s[:-1] + 0.0, y[:-1] + 0.0)
        self._x, self._ul, self._ur = x, ul, ur
        self._lo = float(x[0])
        self._hi = float(x[-1])

    def _pieces(self, x):
        """The clamped points' offsets from their interval's left node, and
        that interval's coefficients (the last interval is closed)."""
        x1 = self._x
        xc = np.clip(x, self._lo, self._hi)
        i = np.clip(np.searchsorted(x1, xc, "right") - 1, 0, x1.size - 2)
        return xc - x1[i], [c[i] for c in self._c]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        z, (c0, c1, c2, c3) = self._pieces(x)
        out = c3 + c2 * z + c1 * (z * z) + c0 * (z * z * z)
        out = np.where(x < self._lo, self._ul, out)
        out = np.where(x > self._hi, self._ur, out)
        return out

    def slope(self, x):
        x = np.asarray(x, dtype=float)
        z, (c0, c1, c2, _) = self._pieces(x)
        out = c2 + 2 * c1 * z + 3 * c0 * (z * z)
        return np.where((x < self._lo) | (x > self._hi), 0.0, out)


def write_profile_series(states, path) -> None:
    """CSV time series: slope bound, slope L^1, L^2, L^inf norms, deviation integral."""
    ps = (1.0, 2.0, np.inf)
    names = ["t", "max_slope", "t_max_slope"]
    names += ["slope_linf" if np.isinf(q) else f"slope_l{q:g}" for q in ps]
    names.append("end_state_deviation")
    rows = []
    for st in states:
        rep = (profile_norm_checks(st, ps) if st.t > 0
               else {"norms": dict.fromkeys(ps, np.nan), "ut1": np.nan})
        rows.append([st.t, *oleinik_bound(st), *(rep["norms"][q] for q in ps), rep["ut1"]])
    write_table(path, names, rows)
