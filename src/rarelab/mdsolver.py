"""Full solver on the truncated cylinder, with far-field coupling.

Solves the conservation law for the solution u itself (not for the
perturbation): the perturbation is obtained by subtracting the
separately assembled ansatz, which keeps a single discretization shared
with the torus and profile solvers.  The line boundary carries
time-dependent Dirichlet data read from the two torus solutions, which
is what the exact solution approaches at the two far fields; ghost
cells are filled by exact index tiling, never interpolation.

The two torus solutions form one stacked (2, m1, ...) far-field array
that takes the same Strang step as the cylinder, in lockstep: the x1
sweep reads the far field averaged over its own matching sweep, and
each Heun stage reads ghost rows from the matching far-field stage, so
a cylinder field that equals a tiled torus field stays equal to it away
from the fan.

The truncation is monitored, not trusted: a tail-mass guard aborts the
run when the perturbation (or the fan's slope profile) puts more than
the configured fraction of its mass into the outer decade of the x1
range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ansatz import assemble_bundle, far_field_grid
from .domain import (
    DomainSpec, Field, gradient, lp_norm, magnitude, make_grid, tail_mass, write_table,
)
from .errors import ConfigError, NumericalAbort
from .fluxes import FluxSet
from .periodic import TorusStepper
from .profile1d import evolve_profile, initial_profile, make_initial_state
from .stepping import (
    DiffusionSweep, advective_rhs, check_cfl, max_advective_dt, step_schedule, strang_step,
)

__all__ = [
    "SolverConfig",
    "Trajectory",
    "validate_config",
    "run",
    "trig_polynomial",
    "write_norm_table",
    "NORM_COLUMNS",
]

NORM_COLUMNS = (
    "t",
    "phi_l1",
    "phi_l2",
    "phi_l4",
    "phi_linf",
    "grad_phi_l2",
    "grad_phi_l4",
    "u_minus_profile_linf",
    "h_l1",
    "tail_mass",
)


@dataclass(frozen=True)
class SolverConfig:
    """Everything one cylinder experiment needs.

    w0_modes lists (k_1, ..., k_n, amplitude) rows; each row contributes
    amplitude * prod over nonzero k of sin(2 pi k_d x_d).  A row needs at
    least one nonzero wavenumber, which is what keeps the disturbance
    average at zero.  v0 is an optional integrable 1-d profile added to
    the initial data.
    """

    spec: DomainSpec
    flux: FluxSet
    ul: float
    ur: float
    w0_modes: tuple[tuple[float, ...], ...] = ()
    v0: Optional[Callable[[np.ndarray], np.ndarray]] = None
    t_end: float = 10.0
    snapshot_times: tuple[float, ...] = ()
    cfl: float = 0.4
    tail_threshold: float = 0.25
    tail_floor: float = 1e-10
    dt: float | None = None


@dataclass
class Trajectory:
    series: dict[str, np.ndarray]
    steps: int
    dt: float
    max_principle_violation: float = 0.0
    boundary_mismatch: float = 0.0


def trig_polynomial(modes, coords) -> np.ndarray:
    """Sample sum over rows of amp * prod sin(2 pi k_d x_d) on a grid."""
    mesh = np.meshgrid(*coords, indexing="ij")
    shape = mesh[0].shape if len(mesh) == 1 else np.broadcast(*mesh).shape
    out = np.zeros(shape)
    for row in modes:
        *ks, amp = row
        if len(ks) != len(mesh):
            raise ValueError(f"mode row {row} needs {len(mesh)} wavenumbers + amplitude")
        term = np.full(shape, float(amp))
        for k, x in zip(ks, mesh):
            if k != 0:
                term = term * np.sin(2.0 * np.pi * k * x)
        out += term
    return out


def _disturbance_bound(config: SolverConfig) -> float:
    amp = sum(abs(row[-1]) for row in config.w0_modes)
    if config.v0 is not None:
        grid = make_grid(config.spec)
        amp += float(np.max(np.abs(np.asarray(config.v0(grid.x1), dtype=float))))
    return amp


def validate_config(config: SolverConfig) -> list[str]:
    """Dry-run check of every invariant; returns human-readable findings."""
    problems = []
    spec = config.spec
    if spec.n < 2:
        problems.append("cylinder runs need n >= 2 (one line + torus directions)")
    if not config.ul < config.ur:
        problems.append(f"need ul < ur, got {config.ul} >= {config.ur}")
    if not 0.0 < config.cfl <= 0.5:
        problems.append(f"cfl must lie in (0, 0.5], got {config.cfl}")
    if not 0.0 < config.tail_threshold < 1.0:
        problems.append(f"tail threshold must lie in (0, 1), got {config.tail_threshold}")
    if config.t_end <= 0:
        problems.append(f"t_end must be positive, got {config.t_end}")
    if config.dt is not None and not config.dt > 0:
        problems.append(f"dt must be positive, got {config.dt}")

    for row in config.w0_modes:
        if len(row) != spec.n + 1:
            problems.append(f"mode row {row} needs {spec.n} wavenumbers + amplitude")
        elif all(k == 0 for k in row[:-1]):
            problems.append(
                f"mode row {row} is constant and violates the zero-average requirement"
            )

    try:
        speed = max(
            abs(float(config.flux.df[0](np.float64(config.ul)))),
            abs(float(config.flux.df[0](np.float64(config.ur)))),
        )
        if spec.L < speed * config.t_end + 10.0:
            problems.append(
                f"L = {spec.L} < fan speed {speed:.3g} * t_end + margin 10 = "
                f"{speed * config.t_end + 10.0:.6g}: the fan would reach the boundary"
            )
    except Exception as e:  # flux not evaluable
        problems.append(f"flux evaluation failed: {e}")

    try:
        far_field_grid(spec)
    except ValueError as e:
        problems.append(str(e))

    amp = _disturbance_bound(config)
    try:
        config.flux.check_convexity(min(config.ul, config.ur) - amp,
                                    max(config.ul, config.ur) + amp)
    except ValueError as e:
        problems.append(str(e))

    for ts in config.snapshot_times:
        if not 0.0 <= ts <= config.t_end:
            problems.append(f"snapshot time {ts} outside [0, {config.t_end}]")
    return problems


def run(config: SolverConfig) -> Trajectory:
    """Advance the cylinder solution and log the perturbation against the
    concurrently assembled ansatz."""
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    spec, flux = config.spec, config.flux
    ul, ur = config.ul, config.ur
    n1 = spec.n1

    amp = _disturbance_bound(config)
    spacings = (spec.dx1, *spec.dx_torus)
    dt_max = max_advective_dt(flux, spacings, min(ul, ur) - amp, max(ul, ur) + amp,
                              config.cfl)
    steps, dt, snap = step_schedule(config.t_end, dt_max, config.dt, 0.0,
                                    config.snapshot_times)

    grid = make_grid(spec)

    # 1-d backbone on the cylinder's x1 grid with its dt, sampled at the
    # snapshot instants
    profiles = evolve_profile(
        make_initial_state(spec.L, n1, ul, ur), flux, config.t_end, dt=dt,
        cfl=config.cfl, snapshot_times=tuple(idx * dt for idx in sorted(snap)),
    )
    prof_at = dict(zip(sorted(snap), profiles))

    # far field: [left, right] torus solutions; the row map gives the
    # torus row of every x1 cell, and the ghost cells read the first and
    # last two rows of their side
    tspec, far_rows = far_field_grid(spec)
    stepper = TorusStepper(tspec, flux, dt)
    w0 = trig_polynomial(config.w0_modes, tspec.coordinates())
    far = np.stack([ul + w0, ur + w0])
    lo_rows, hi_rows = far_rows[:2], far_rows[-2:]

    # initial data: exact tangent backbone + optional 1-d bump + modes
    col = (-1,) + (1,) * (spec.n - 1)
    u = np.broadcast_to(initial_profile(grid.x1, ul, ur).reshape(col), spec.shape).copy()
    if config.v0 is not None:
        u = u + np.asarray(config.v0(grid.x1), dtype=float).reshape(col)
    u = u + trig_polynomial(config.w0_modes, (grid.x1, *grid.torus))

    sweeps = [DiffusionSweep(n1, spec.dx1, dt / 2.0, periodic=False)]
    sweeps += [DiffusionSweep(m, h, dt / 2.0, periodic=True)
               for m, h in zip(spec.n_torus, spec.dx_torus)]

    def sweep(state, axis):
        v, w = state
        w_new = stepper.sweep_axis(w, axis - spec.n)
        if axis > 0:
            return sweeps[axis].apply(v, axis=axis), w_new
        # trapezoidal Dirichlet data: the ghost rows averaged over the
        # far field's own matching x1 sweep
        b_lo = 0.5 * w[0, lo_rows[1]] + 0.5 * w_new[0, lo_rows[1]]
        b_hi = 0.5 * w[1, hi_rows[0]] + 0.5 * w_new[1, hi_rows[0]]
        return sweeps[0].apply(v, b_lo=b_lo, b_hi=b_hi), w_new

    def rhs(state):
        v, w = state
        return (advective_rhs(v, flux, spacings, ghosts=(w[0, lo_rows], w[1, hi_rows])),
                advective_rhs(w, flux, tspec.spacings))

    traj = Trajectory(series={}, steps=steps, dt=dt)
    line = DomainSpec(n=1, L=spec.L, n1=n1)
    rows: list[dict] = []

    def record(k, v, w):
        t = k * dt
        bundle = assemble_bundle(w, t, prof_at[k], flux, spec)
        phi = Field(spec, v - bundle.u_tilde.values, t)
        grad_phi = Field(spec, magnitude(c.values for c in gradient(phi)), t)
        prof_b = bundle.profile_values.reshape(col)
        tails = tail_mass(phi)
        rows.append(dict(
            t=t,
            phi_l1=lp_norm(phi, 1),
            phi_l2=lp_norm(phi, 2),
            phi_l4=lp_norm(phi, 4),
            phi_linf=lp_norm(phi, np.inf),
            grad_phi_l2=lp_norm(grad_phi, 2),
            grad_phi_l4=lp_norm(grad_phi, 4),
            u_minus_profile_linf=float(np.max(np.abs(v - prof_b))),
            h_l1=lp_norm(bundle.h, 1),
            tail_mass=tails,
            max_u=float(np.max(v)),
            min_u=float(np.min(v)),
        ))
        # Dirichlet data is enforced exactly at ghost cells by the index map;
        # cross-check it against a coordinate-based lookup of the torus grid
        m1 = tspec.sizes[0]
        for side, idx, row in ((0, -1, lo_rows[1]), (1, n1, hi_rows[0])):
            x_ghost = -spec.L + (idx + 0.5) * spec.dx1
            j = int(round((x_ghost % 1.0) * m1 - 0.5)) % m1
            mismatch = float(np.max(np.abs(w[side, row] - w[side, j])))
            traj.boundary_mismatch = max(traj.boundary_mismatch, mismatch)
        if tails > config.tail_threshold and rows[-1]["phi_l1"] > config.tail_floor:
            raise NumericalAbort(
                "tail", t,
                f"perturbation tail mass {tails:.3e} exceeds {config.tail_threshold:.3e}")
        # the slope profile is constant along the torus: guard it on the line
        slope_tail = tail_mass(Field(line, np.abs(bundle.dg), t))
        if slope_tail > config.tail_threshold:
            raise NumericalAbort(
                "tail", t,
                f"fan slope tail mass {slope_tail:.3e} exceeds {config.tail_threshold:.3e}")

    # extremes of the state before the step; each step's new extremes
    # are the next step's old ones
    viol = 0.0
    old_lo, old_hi = min(np.min(u), np.min(far)), max(np.max(u), np.max(far))
    for k in range(steps + 1):
        if k in snap:
            record(k, u, far)
        if k == steps:
            break
        check_cfl(u, flux, spacings, dt, k * dt)
        u, far = strang_step((u, far), dt, spec.n, sweep, rhs)
        new_lo, new_hi = min(np.min(u), np.min(far)), max(np.max(u), np.max(far))
        viol = max(viol, float(new_hi - old_hi), float(old_lo - new_lo))
        old_lo, old_hi = new_lo, new_hi

    traj.max_principle_violation = viol
    traj.series = {key: np.array([r[key] for r in rows]) for key in rows[0]}
    return traj


def write_norm_table(traj: Trajectory, path) -> None:
    """The norm-table CSV with the documented column set."""
    write_table(path, NORM_COLUMNS, zip(*(traj.series[c] for c in NORM_COLUMNS)))
