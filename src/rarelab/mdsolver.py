"""Full solver on the truncated cylinder, with far-field coupling.

Solves the conservation law for the solution u itself (not for the
perturbation): the perturbation is obtained by subtracting the
separately assembled ansatz, which keeps a single discretization shared
with the torus and profile solvers.  The line boundary carries
time-dependent Dirichlet data read from the two torus solutions, which
is what the exact solution approaches at the two far fields; ghost
cells are filled by exact index tiling, never interpolation.

The far field is two torus fields, left and right, each stepped by the
calls of a torus run, in lockstep with the cylinder: the x1 sweep reads
the far field averaged over its own matching sweep, and each Heun stage
reads ghost rows from the matching far-field stage, so a cylinder field
that equals a tiled torus field stays equal to it away from the fan.
As in the profile and torus solvers, `schedule` checks a config and
draws its plan, and `run` marches the plan it is handed.  The triple
(cylinder, left, right) is one state of `stepping.march`, the loop the
profile and torus solvers run too; `run` supplies its per-step check
(Courant number, maximum principle) and its snapshot record.  The
march holds the cylinder field x1-last, torus axes first,
the layout `stepping`'s kernels run fastest on; the far-field sides
keep their torus layout.  The field is transposed once at the start,
and each record takes an x1-first copy, which the ansatz, tau, the
norm row and the hand-off's torus average all read: a torus mean over
the transposed view rounds differently, and every `Field` and artifact
keeps the x1-first layout.  Each record pulls the next profile from
`evolve_profile`'s march of the run's own plan on the same x1 grid, so
the profile sits at the record's time and one profile is held.  Both
phases build their norm row in one place: a column per
`rates.PHI_SERIES` entry of phi = u - u_tilde, and |u - p|_inf against
that profile p itself, tiled over the torus.

The truncation is monitored, not trusted: a tail-mass guard aborts the
run when the perturbation (or the fan's slope profile, the profile's
own x1 derivative) puts more than the configured fraction of its mass
into the outer decade of the x1 range (`TAIL_FLOOR` exempts a
perturbation at roundoff).

Planar hand-off.  The periodic part of the perturbation dies out, so the
solution tends to the planar wave, the torus average v(x1) of the
cylinder state (the level-0 part of the split).  At each record the
cylinder march measures tau, the larger of max|v - A v| on the cylinder
(A averages over the torus axes) and max|w - mean w| on each far-field
side, which must be constant, not only planar: a mode with only k_1
nonzero is planar on the cylinder from t = 0, but its far field still
moves the Dirichlet data.  A record with tau below `PLANAR_TOL` returns
the line's start state beside its norm row, and `run` stops the
cylinder march there; a second, 1-d march takes the plan's remaining steps
from that record's torus average with the profile's step,
`profile1d.pinned_line`, its ends at the far-field means.  The line is
the cylinder state to roundoff and stays so: a planar state with
constant Dirichlet data takes a Strang step whose torus sweeps and torus
fluxes do nothing.  Line records are the cylinder records of a planar
field: the torus has measure 1, so the norms on the line are the norms
on the cylinder, the ansatz is the profile and its defect is 0.  The
hand-off is decided at records only, so a run whose only snapshot is
t_end never hands off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ansatz import assemble_bundle, far_field_grid
from .domain import (
    DomainSpec, Field, derivative, gradient, lp_norm, magnitude, make_grid, tail_mass,
    write_table,
)
from .errors import ConfigError, NumericalAbort
from .fluxes import FluxSet
from .periodic import TorusStepper
from .profile1d import evolve_profile, make_initial_state, pinned_line
from .rates import PHI_SERIES
from .stepping import (
    CFL, DiffusionSweep, advective_rhs, check_cfl, march, max_advective_dt, step_schedule,
)

__all__ = [
    "SolverConfig",
    "Trajectory",
    "schedule",
    "run",
    "trig_polynomial",
    "mode_problems",
    "write_norm_table",
    "NORM_COLUMNS",
    "TAIL_THRESHOLD",
]

NORM_COLUMNS = ("t", *PHI_SERIES, "u_minus_profile_linf", "h_l1", "tail_mass")

TAIL_FLOOR = 1e-10  # |phi|_1 at roundoff: its tail mass signals nothing
TAIL_THRESHOLD = 0.25  # the outer-decade mass share of a run that does not set its own
PLANAR_TOL = 1e-13  # tau below this hands the run off to the line; 0 never does


@dataclass(frozen=True)
class SolverConfig:
    """Everything one cylinder experiment needs.

    w0_modes lists (k_1, ..., k_n, amplitude) rows; each row contributes
    amplitude * prod over nonzero k of sin(2 pi k_d x_d).  A row needs at
    least one nonzero wavenumber, which is what keeps the disturbance
    average at zero, and wavenumbers the grid carries (`mode_problems`).
    v0 is an optional integrable 1-d profile added to the initial data.
    """

    spec: DomainSpec
    flux: FluxSet
    ul: float
    ur: float
    t_end: float
    snapshot_times: tuple[float, ...]
    w0_modes: tuple[tuple[float, ...], ...] = ()
    v0: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cfl: float = CFL
    tail_threshold: float = TAIL_THRESHOLD
    dt: float | None = None


@dataclass
class Trajectory:
    """A run's norm series and its run-wide checks.

    `max_courant` is the largest realized advective Courant number of
    the states the steps produced, always taken with the cylinder's
    spacings, on the line too.  `boundary_mismatch` is measured only
    before the hand-off, while the far field exists.  `planar_at` is
    {"step", "t", "tau"} of the record after which the run marched the
    line, or None when it never handed off.
    """

    series: dict[str, np.ndarray]
    steps: int
    dt: float
    max_principle_violation: float = 0.0
    boundary_mismatch: float = 0.0
    max_courant: float = 0.0
    planar_at: Optional[dict] = None


def trig_polynomial(modes, coords) -> np.ndarray:
    """Sample sum over rows of amp * prod sin(2 pi k_d x_d) on a grid.

    Each sine is taken on its own coordinate vector and the factors
    multiply by broadcasting, in the order amp * s_1 * s_2 ...: each
    value is bitwise that of the product over full coordinate meshes,
    and no full-grid coordinate or sine is made."""
    n = len(coords)
    out = np.zeros(tuple(len(x) for x in coords))
    for row in modes:
        *ks, amp = row
        if len(ks) != n:
            raise ValueError(f"mode row {row} needs {n} wavenumbers + amplitude")
        term = float(amp)
        for axis, (k, x) in enumerate(zip(ks, coords)):
            if k != 0:  # the sine along `axis`, broadcast over the later axes
                s = np.sin(2.0 * np.pi * k * np.asarray(x))
                term = term * s.reshape((-1,) + (1,) * (n - 1 - axis))
        out += term
    return out


def mode_problems(modes, sizes) -> list[str]:
    """Findings for the mode rows a grid of sizes[d] points per unit period
    in direction d cannot carry: every wavenumber must be an integer with
    2|k_d| < sizes[d], or its samples alias to a lower mode or to zero."""
    problems = []
    for row in modes:
        ks = row[:-1]
        if any(k != round(k) for k in ks):
            problems.append(f"w0_modes row {row} needs integer wavenumbers")
        elif any(2 * abs(k) >= m for k, m in zip(ks, sizes)):
            problems.append(f"w0_modes row {row} needs 2|k_d| below the grid's "
                            f"{tuple(sizes)} points per unit period")
    return problems


def _disturbance_bound(config: SolverConfig) -> float:
    amp = sum(abs(row[-1]) for row in config.w0_modes)
    if config.v0 is not None:
        grid = make_grid(config.spec)
        amp += float(np.max(np.abs(np.asarray(config.v0(grid.x1), dtype=float))))
    return amp


def schedule(config: SolverConfig):
    """(steps, dt, record_indices) of a run, and the one check of its
    config: every finding is raised as one `ConfigError`, joined by "; ",
    before `step_schedule` runs under the CFL bound of the initial data's
    range.  Step k is recorded at time k * dt, the snapshot times rounded
    to the step grid."""
    problems = []
    spec, flux, ul, ur = config.spec, config.flux, config.ul, config.ur
    if spec.n < 2:
        problems.append("cylinder runs need n >= 2 (one line + torus directions)")
    if not ul < ur:
        problems.append(f"need ul < ur, got {ul} >= {ur}")
    if not 0.0 < config.tail_threshold < 1.0:
        problems.append(f"tail threshold must lie in (0, 1), got {config.tail_threshold}")

    for row in config.w0_modes:
        if len(row) != spec.n + 1:
            problems.append(f"mode row {row} needs {spec.n} wavenumbers + amplitude")
        elif all(k == 0 for k in row[:-1]):
            problems.append(
                f"mode row {row} is constant and violates the zero-average requirement"
            )

    try:
        with np.errstate(over="ignore"):  # a non-finite speed is a finding, not a warning
            speed = max(abs(float(flux.df[0](np.float64(u)))) for u in (ul, ur))
        if spec.L < speed * config.t_end + 10.0:
            problems.append(
                f"L = {spec.L} < fan speed {speed:.3g} * t_end + margin 10 = "
                f"{speed * config.t_end + 10.0:.6g}: the fan would reach the boundary"
            )
    except Exception as e:  # flux not evaluable
        problems.append(f"flux evaluation failed: {e}")

    try:
        tspec, _ = far_field_grid(spec)
    except ValueError as e:
        problems.append(str(e))
    else:
        problems += mode_problems(config.w0_modes, tspec.sizes)

    amp = _disturbance_bound(config)
    lo, hi = min(ul, ur) - amp, max(ul, ur) + amp
    try:
        flux.check_convexity(lo, hi)
    except ValueError as e:
        problems.append(str(e))
    try:  # the Courant range: the step bound's own rule
        dt_max = max_advective_dt(flux, (spec.dx1, *spec.dx_torus), lo, hi, config.cfl)
    except ValueError as e:
        problems.append(str(e))
    if problems:
        raise ConfigError("; ".join(problems))
    return step_schedule(config.t_end, dt_max, config.dt, config.snapshot_times)


def run(config: SolverConfig, plan) -> Trajectory:
    """Advance the cylinder solution over plan = (steps, dt, record), the
    `schedule` of this config, and log the perturbation against the
    concurrently assembled ansatz.  The profile marches that same plan."""
    spec, flux = config.spec, config.flux
    ul, ur = config.ul, config.ur
    spacings = (spec.dx1, *spec.dx_torus)
    steps, dt, snap = plan

    grid = make_grid(spec)

    # the 1-d backbone on the cylinder's x1 grid, on the run's plan, pulled at each record
    p0 = make_initial_state(spec.L, spec.n1, ul, ur)
    profiles = evolve_profile(p0, flux, plan)

    # far field: the left and right torus solutions; the row map gives the
    # torus row of every x1 cell, and the ghost cells read the first and
    # last two rows of their side.  The torus stepper also sweeps the
    # cylinder's torus axes, whose grid the far field shares.
    tspec, far_rows = far_field_grid(spec)
    stepper = TorusStepper(tspec, dt)
    w0 = trig_polynomial(config.w0_modes, tspec.coordinates())
    lo_rows, hi_rows = far_rows[:2], far_rows[-2:]

    # initial data: the profile's tangent data + optional 1-d bump + modes
    col = (-1,) + (1,) * (spec.n - 1)
    u = np.broadcast_to(p0.values.reshape(col), spec.shape).copy()
    if config.v0 is not None:
        u = u + np.asarray(config.v0(grid.x1), dtype=float).reshape(col)
    u = u + trig_polynomial(config.w0_modes, (grid.x1, *grid.torus))
    u = np.ascontiguousarray(np.moveaxis(u, 0, -1))  # the march's x1-last layout
    dirichlet = DiffusionSweep(spec.n1, spec.dx1, dt / 2.0)

    # a cylinder state is (cylinder, left side, right side); a line state is (line,)
    traj = Trajectory(series={}, steps=steps, dt=dt)
    torus_axes = tuple(range(1, spec.n))

    def sweep(state, axis):
        v, wl, wr = state
        wl_new, wr_new = stepper.sweep_axis(wl, axis), stepper.sweep_axis(wr, axis)
        if axis > 0:
            return stepper.sweep_axis(v, axis, axis - 1), wl_new, wr_new
        # trapezoidal Dirichlet data: the ghost rows averaged over the
        # far field's own matching x1 sweep
        b_lo = 0.5 * wl[lo_rows[1]] + 0.5 * wl_new[lo_rows[1]]
        b_hi = 0.5 * wr[hi_rows[0]] + 0.5 * wr_new[hi_rows[0]]
        return dirichlet.apply(v, b_lo=b_lo, b_hi=b_hi), wl_new, wr_new

    def rhs(state):
        v, wl, wr = state
        ghosts = (np.moveaxis(wl[lo_rows], 0, -1), np.moveaxis(wr[hi_rows], 0, -1))
        return (advective_rhs(v, flux, spacings, ghosts=ghosts),
                *(advective_rhs(w, flux, tspec.spacings) for w in (wl, wr)))

    # handed over, not kept: no name here holds the start state while it is stepped
    start = [(u, ul + w0, ur + w0)]
    del u
    # extremes of the state before the step; each step's new extremes
    # are the next step's old ones
    extremes = [min(np.min(s) for s in start[0]), max(np.max(s) for s in start[0])]

    def check(state, t):
        # the schedule already bounds the initial state's Courant number;
        # the line is checked with the cylinder's spacings, so its Courant
        # number is that of the planar cylinder field it stands for
        traj.max_courant = max(traj.max_courant, check_cfl(state[0], flux, spacings, dt, t))
        lo, hi = min(np.min(s) for s in state), max(np.max(s) for s in state)
        traj.max_principle_violation = max(traj.max_principle_violation,
                                           float(hi - extremes[1]), float(extremes[0] - lo))
        extremes[:] = lo, hi

    def sample(grid, v, ansatz, h, prof):
        """The norm row of state v on `grid`, the cylinder or the line, with
        perturbation phi = v - ansatz, ansatz defect h (None on the line:
        it is 0) and profile prof, after the tail guards of phi and of the
        fan's slope profile; v, the ansatz and h are plain arrays."""
        t = prof.t
        phi = Field(grid, v - ansatz, t)
        fields = dict(phi=phi, grad_phi=Field(grid, magnitude(gradient(phi)), t))
        tails = tail_mass(phi)
        tiled = prof.values.reshape((-1,) + (1,) * (v.ndim - 1))  # constant along the torus
        row = dict(t=t, **{name: lp_norm(fields[which], p)
                           for name, (which, p) in PHI_SERIES.items()},
                   u_minus_profile_linf=float(np.max(np.abs(v - tiled))),
                   h_l1=0.0 if h is None else lp_norm(Field(grid, h, t), 1), tail_mass=tails)
        # the slope profile is constant along the torus: guard it on the line
        slope_tail = tail_mass(Field(prof.spec, derivative(prof, 0), t))
        for what, mass in (("perturbation", tails if row["phi_l1"] > TAIL_FLOOR else 0.0),
                           ("fan slope", slope_tail)):
            if mass > config.tail_threshold:
                raise NumericalAbort("tail", t, f"{what} tail mass {mass:.3e} exceeds "
                                                f"{config.tail_threshold:.3e}")
        return row

    def record(k, state):
        """(norm row, the line's start state if record k hands off, else None)"""
        prof, (v, wl, wr) = next(profiles), state
        v = np.ascontiguousarray(np.moveaxis(v, -1, 0))  # x1-first, as every reader takes it
        t = prof.t
        ansatz, h = assemble_bundle((wl, wr), prof, flux, spec)
        # Dirichlet data is enforced exactly at ghost cells by the index map;
        # cross-check it against a coordinate-based lookup of the torus grid
        m1 = tspec.sizes[0]
        for w, idx, row in ((wl, -1, lo_rows[1]), (wr, spec.n1, hi_rows[0])):
            x_ghost = -spec.L + (idx + 0.5) * spec.dx1
            j = int(round((x_ghost % 1.0) * m1 - 0.5)) % m1
            mismatch = float(np.max(np.abs(w[row] - w[j])))
            traj.boundary_mismatch = max(traj.boundary_mismatch, mismatch)
        # tau: the torus part of the cylinder and the far field's distance
        # from its constants; the last record has no step left to hand off
        tau = max(float(np.max(np.abs(v - np.mean(v, axis=torus_axes, keepdims=True)))),
                  *(float(np.max(np.abs(w - np.mean(w)))) for w in (wl, wr)))
        line = None
        if tau < PLANAR_TOL and k < steps:
            traj.planar_at = dict(step=k, t=t, tau=tau)
            line = (np.mean(v, axis=torus_axes), *(float(np.mean(w)) for w in (wl, wr)))
        return sample(spec, v, ansatz, h, prof), line

    def record_line(state):
        # the ansatz of a constant far field is the profile, and its
        # defect is 0
        prof = next(profiles)
        return sample(p0.spec, state[0], prof.values, None, prof)

    rows, line = [], None
    for row, line in march(start.pop(), plan, spec.n, sweep, rhs, check, record):
        rows.append(row)
        if line is not None:
            break  # the cylinder march takes no later step
    if line is not None:
        # the remaining steps, from the record that handed off; the line
        # march counts from there, so its check adds the record's time t
        k, t = traj.planar_at["step"], traj.planar_at["t"]
        rows += march(line[:1], (steps - k, dt, {i - k for i in snap if i > k}), 1,
                      *pinned_line(p0.spec, flux, dt, *line[1:]),
                      lambda state, s: check(state, t + s),
                      lambda _, state: record_line(state))
    traj.series = {key: np.array([r[key] for r in rows]) for key in rows[0]}
    return traj


def write_norm_table(traj: Trajectory, path) -> None:
    """The norm-table CSV with the documented column set."""
    write_table(path, NORM_COLUMNS, zip(*(traj.series[c] for c in NORM_COLUMNS)))
