"""Full solver on the truncated cylinder, with far-field coupling.

Solves the conservation law for the solution u itself (not for the
perturbation): the perturbation is obtained by subtracting the
separately assembled ansatz, which keeps a single discretization shared
with the torus and profile solvers.  The line boundary carries
time-dependent Dirichlet data read from the two torus solutions, which
is what the exact solution approaches at the two far fields; ghost
cells are filled by exact index tiling, never interpolation.

The far field is two torus fields, left and right, held as one
(2, m1, *torus) array and stepped by the calls of a torus run, one call
for both sides (`advective_rhs` takes the leading axis as a batch, and
`TorusStepper.sweep_axis` sweeps direction d on array axis d + 1), each
side bitwise its own run, in lockstep with the cylinder: the x1 sweep
reads the far field averaged over its own matching sweep, and each Heun
stage reads ghost rows from the matching far-field stage, so a cylinder
field that equals a tiled torus field stays equal to it away from the
fan.  As in the profile and torus solvers, `schedule` checks a config
and draws its plan, and `run` marches the plan it is handed.  The pair
(cylinder, far field) is one state of `stepping.march`, the loop the
profile and torus solvers run too; `run` supplies its per-step check
(Courant number, maximum principle), and the march yields it each
state to record.  The march holds the cylinder field x1-last, torus
axes first, the layout `stepping`'s kernels run fastest on; the
far-field sides keep their torus layout.  The field is transposed once
at the start, and each record takes the window's field x1-first (see
"Cylinder window"), which the ansatz, tau, the norm row and the
hand-off's torus average all read: a torus mean over the transposed
view rounds differently, and every `Field` and artifact keeps the
x1-first layout.  Each cylinder record pulls the next profile from
`evolve_profile`'s march of its segment's plan (see "Cylinder window"),
so the profile sits at the record's time and one profile is held.  Both
phases build their
norm row in one place: a column per `rates.PHI_SERIES` entry of phi = u
- u_tilde, and |u - p|_inf against that profile p itself, tiled over
the torus.

Cylinder window.  Away from the fan the solution is its far field tiled
along x1, so the run holds only the x1 cells of a window [-W, W], W(t)
= `cylinder_window`: min(L, ceil(S + reach(t))), where the line data
p0 + v0 is its end states bit for bit beyond |x1| = S, and reach(t) =
speed t + `WINDOW_MARGIN` sqrt(t) is how far the fan, a bump and their
viscous layers spread by time t: speed is the largest |f_1'| on the
solution's range (a bump's amplitude moves it, not only the end
states), and at WINDOW_MARGIN sqrt(t) a unit heat kernel's tail is
`TAIL_FLOOR`, the floor the self-check below enforces.  W is whole
unit periods, so a window's ghost cells and Dirichlet data are the
line's, and its grid, the `DomainSpec` of half-length W, has the line's
dx1.  The window grows with the reach: step k of every march, the
cylinder's, its profile's and, after the hand-off, the line's, holds
W(t_{k+1}), capped at W(t_end), the last window, which the manifest
reports.  One loop carries the run over the window segments, the steps
that hold one window.  A segment first takes the edge mass of each
array it is handed at the old width, as a record does, then widens it
by whole periods of what lies beyond (`_widen`): the cylinder by the
far field's rows, which by `far_field_grid`'s row map are what it holds
there, the profile by ul and ur, and the [line; profile] pair by the
far-field means and ul and ur, one array for both rows.  It then builds
the window's one Dirichlet factorization, which every array of the
segment steps on, and marches; the profile's march, from the first
window's slice of the whole line's tangent data (bitwise the same data
there), takes that segment's plan beside the cylinder's, and each march
counts time from its segment's start.  Each record is built on the
window alone: the ansatz, phi, the norm row and tau.  Beyond it the
cylinder is the far field's rows and the profile its end states to
`TAIL_FLOOR`, so the ansatz there is the far-field side and phi is 0 to
roundoff: the window's norms are the whole line's up to the order of
the sums.  What lies beyond keeps its part in the rest: |u - p|_inf and
tau take the larger of the window's value and the far field's, for
|u - p|_inf max|w - ul| and max|w - ur| of the far field's rows (on the
line, the far-field means' distance from them) and, for tau, each
side's torus part, and the line's maximum principle reads the far-field
means beside the line; the tail mass keeps the outer decade of [-L, L]
and reads 0 where it lies beyond the window.  This is the one model at
every width: the far field lies beyond every window, a window at L
included, whose pinned ends it is.  L decides only the cap on W and
what an edge mass does.

The truncation is measured, not trusted: at each record the profile and
the cylinder or the line take their edge mass (`domain.edge_mass`)
against what lies beyond their pinned ends (ul and ur, the far-field
rows, the far-field means), and the run reports the largest and the
first record above `domain.EDGE_TOL`.  On a window short of L, a side's
edge mass above `TAIL_FLOOR`, phi's roundoff floor, at a record or a
widening, aborts the run ("window"), the cylinder's or the line's sides
judged before the profile's: a mass, since the Dirichlet solves leave
ulp-sized deviations there.  At L, where the line's own truncation
lies, the mass only feeds the report.

Planar hand-off.  The periodic part of the perturbation dies out, so the
solution tends to the planar wave, the torus average v(x1) of the
cylinder state (the level-0 part of the split).  At each record the
cylinder march measures tau, the larger of max|v - A v| on the cylinder
(A averages over the torus axes) and max|w - mean w| on each far-field
side, which must be constant, not only planar: a mode with only k_1
nonzero is planar on the cylinder from t = 0, but its far field still
moves the Dirichlet data.  A record with tau below `PLANAR_TOL` returns
the line's start state beside its norm row, and ends its segment there:
the state becomes that record's torus average and its profile, on the
same window, as one (2, n) state [line; profile], and the segment loop
goes on with the plan's remaining steps.  A line segment takes one
`profile1d.pinned_line` step for both rows, the line's ends at the
far-field means and the profile's at ul and ur, its diffusion the
segment's x1 sweep, each row bitwise its own 1-d march.  Its check
reads the line row with `check_cfl`, once per step as on the cylinder,
and beside the far-field means for the maximum principle, and the
profile row with `profile1d.check_profile`, as the profile's own march
did.  The line is the cylinder state to roundoff and stays so: a
planar state with constant Dirichlet data takes a Strang step whose
torus sweeps and torus fluxes do nothing.  Line records are the
cylinder records of a planar field: the torus has measure 1, so the
norms on the line are the norms on the cylinder, the ansatz is the
profile row and its defect is 0.  The hand-off is decided at records
only, so a run whose only snapshot is t_end never hands off.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .ansatz import assemble_bundle, far_field_grid
from .domain import (
    DomainSpec, Field, edge_mass, gradient, lp_norm, magnitude, make_grid, tail_mass, truncation,
    write_table,
)
from .errors import ConfigError, NumericalAbort
from .fluxes import FluxSet
from .periodic import TorusStepper
from .profile1d import (
    ProfileState, check_profile, evolve_profile, initial_profile, pinned_line,
)
from .rates import PHI_SERIES
from .stepping import (
    DiffusionSweep, advective_rhs, check_cfl, march, max_advective_dt, step_schedule,
)

__all__ = [
    "SolverConfig",
    "schedule",
    "cylinder_window",
    "run",
    "trig_polynomial",
    "mode_problems",
    "write_norm_table",
    "NORM_COLUMNS",
]

NORM_COLUMNS = ("t", *PHI_SERIES, "u_minus_profile_linf", "h_l1", "tail_mass")

TAIL_FLOOR = 1e-10  # the edge mass of phi's roundoff: a window edge above it has moved
PLANAR_TOL = 1e-13  # tau below this hands the run off to the line; 0 never does
# sqrt(t) lengths at which a unit-viscosity heat kernel's tail, erfc(z) <
# exp(-z^2) at z = WINDOW_MARGIN / 2, falls to TAIL_FLOOR (`cylinder_window`)
WINDOW_MARGIN = 2.0 * math.sqrt(math.log(1.0 / TAIL_FLOOR))


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
    dt: float | None = None


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
    """One finding for each mode row that a grid of sizes[d] points per unit
    period in direction d cannot carry: a row needs a wavenumber per
    direction and an amplitude, a nonzero wavenumber (a constant row breaks
    the zero average), integer wavenumbers and 2|k_d| < sizes[d], or its
    samples alias to a lower mode or to zero.  Infinite sizes judge every
    rule but the last, on a grid that is not known."""
    problems = []
    for row in modes:
        ks = row[:-1]
        if len(ks) != len(sizes):
            problems.append(f"mode row {row} needs {len(sizes)} wavenumbers + amplitude")
        elif all(k == 0 for k in ks):
            problems.append(
                f"mode row {row} is constant and violates the zero-average requirement"
            )
        elif any(k != round(k) for k in ks):
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
    before `step_schedule` runs at the Courant number `stepping.CFL` on
    the initial data's range.  Step k is recorded at time k * dt, the
    snapshot times rounded to the step grid."""
    problems = []
    spec, flux, ul, ur = config.spec, config.flux, config.ul, config.ur
    if spec.n < 2:
        problems.append("cylinder runs need n >= 2 (one line + torus directions)")
    if not ul < ur:
        problems.append(f"need ul < ur, got {ul} >= {ur}")

    with np.errstate(over="ignore"):  # a non-finite speed is the Courant rule's finding
        speed = max(abs(float(flux.df[0](np.float64(u)))) for u in (ul, ur))

    try:
        sizes = far_field_grid(spec)[0].sizes
    except ValueError as e:  # the rows still answer to the rules of any grid
        problems.append(str(e))
        sizes = (math.inf,) * spec.n
    problems += mode_problems(config.w0_modes, sizes)

    # one range, one finding per cause: the Courant rule judges a range too
    # wide to sample or a speed that is not finite, and convexity the rest
    amp = _disturbance_bound(config)
    lo, hi = min(ul, ur) - amp, max(ul, ur) + amp
    if math.isfinite(speed) and math.isfinite(hi - lo):
        try:
            flux.check_convexity(lo, hi)
        except ValueError as e:
            problems.append(str(e))
    try:
        dt_max = max_advective_dt(flux, (spec.dx1, *spec.dx_torus), lo, hi)
    except ValueError as e:
        problems.append(str(e))
    if problems:
        raise ConfigError("; ".join(problems))
    return step_schedule(config.t_end, dt_max, config.dt, config.snapshot_times)


def cylinder_window(config: SolverConfig, x1: np.ndarray,
                    line: np.ndarray) -> Callable[[float], int]:
    """W, the function of time whose value W(t) is the integer half-length
    of the x1 window [-W(t), W(t)] that `run`'s cylinder march holds up
    to time t: min(L, ceil(S + reach(t))), for the line data `line` = p0
    + v0 at the cell centers x1.  W(t) never shrinks as t grows.

    S is the largest |x1| at which the line data differs from ul (left of
    0) or ur (right of 0), bit for bit.  The reach speed * t +
    WINDOW_MARGIN * sqrt(t) is how far the fan, a bump and their viscous
    layers spread by time t: speed is the largest |f_1'| on the
    solution's range, the line data's range widened by the modes'
    amplitudes, which `schedule` checks f_1 convex on, so the range's ends
    give it.  The rule reads `WINDOW_MARGIN` once, when it is made."""
    moved = np.where(x1 < 0.0, line != config.ul, line != config.ur)
    support = float(np.max(np.abs(x1[moved]))) if moved.any() else 0.0
    amp = sum(abs(row[-1]) for row in config.w0_modes)
    ends = (float(np.min(line)) - amp, float(np.max(line)) + amp)
    speed = max(abs(float(config.flux.df[0](np.float64(u)))) for u in ends)
    L, margin = round(config.spec.L), WINDOW_MARGIN
    return lambda t: min(L, math.ceil(support + (speed * t + margin * math.sqrt(t))))


def _widen(a: np.ndarray, left: np.ndarray, right: np.ndarray, periods: int) -> np.ndarray:
    """The x1-last array `a` with `periods` unit periods added on each side
    of its x1 window, where `left` and `right`, x1-last too, are one period
    of what lies beyond each side: for the cylinder its far field's rows
    0 .. m1 - 1 in order, which by `far_field_grid`'s row map are what the
    cylinder holds there, and for the profile and the line their ends."""
    return np.concatenate((np.tile(left, periods), a, np.tile(right, periods)), axis=-1)


def run(config: SolverConfig, plan) -> tuple[dict, dict]:
    """Advance the cylinder solution over plan = (steps, dt, record), the
    `schedule` of this config, and log the perturbation against the
    concurrently assembled ansatz.  The profile marches beside it, each
    window segment's plan cut from the run's.

    Returns (series, checks): the norm table's columns, one array per
    `NORM_COLUMNS` entry, and the run-wide checks in the order
    max_principle_violation, boundary_mismatch, max_courant, planar_at,
    cylinder_window, edge_mass, truncated_at.
    `max_courant` is the largest realized advective Courant number of
    the states the steps produced, always taken with the cylinder's
    spacings, on the line too, whose profile row it does not read.
    `boundary_mismatch` is measured only before the hand-off, while the
    far field exists.  `planar_at` is {"step", "t", "tau"} of the record
    after which the run marched the line, or None when it never handed
    off.  `cylinder_window` is {"L", "n1"}, the half-length and the x1
    cells of the last window the run held, W(t_end) (module docstring),
    W = L on a line no longer than the data's support and the reach.
    `edge_mass` and `truncated_at` are `domain.truncation` of the
    records.  A record or a widening at which a march has carried mass
    to the edge of a window short of L raises `NumericalAbort`
    "window"."""
    spec, flux = config.spec, config.flux
    ul, ur = config.ul, config.ur
    spacings = (spec.dx1, *spec.dx_torus)
    steps, dt, snap = plan

    # the line data, on the whole line: its tangent data + optional 1-d bump
    grid = make_grid(spec)
    tangent = initial_profile(grid.x1, ul, ur)
    line = tangent
    if config.v0 is not None:
        line = line + np.asarray(config.v0(grid.x1), dtype=float)

    # far field: the left and right torus solutions, one (2, m1, *torus) array;
    # the ghost cells read the first and last two torus rows of their side.
    # The torus stepper also sweeps the cylinder's torus axes, whose grid
    # the far field shares.
    tspec, far_rows = far_field_grid(spec)
    stepper = TorusStepper(tspec, dt)
    w0 = trig_polynomial(config.w0_modes, tspec.coordinates())
    lo_rows, hi_rows = far_rows[:2], far_rows[-2:]
    m1, L = tspec.sizes[0], round(spec.L)

    # step k holds W(t_{k+1}), at most W(t_end): the cylinder and its
    # profile, or after the hand-off the line and the profile.  A window's
    # ghost cells lie on the line's ghost rows and its outermost period on
    # each side on the far field's rows in order.
    rule = cylinder_window(config, grid.x1, line)
    W = rule(config.t_end)

    def width_at(k):
        return min(rule((k + 1) * dt), W)

    def window(width):
        """the cylinder grid on [-width, width], the line's cells there; its
        n = 1 restriction is the profile's and the line's grid"""
        return replace(spec, L=spec.L - (L - width), n1=spec.n1 - 2 * (L - width) * m1)

    # initial data: the first step's window of the line data + modes, and of
    # the tangent data, the profile's
    n1 = window(width_at(0)).n1
    first = slice((spec.n1 - n1) // 2, (spec.n1 + n1) // 2)
    col = (-1,) + (1,) * (spec.n - 1)
    u = line[first].reshape(col) + trig_polynomial(config.w0_modes, (grid.x1[first], *grid.torus))
    u = np.ascontiguousarray(np.moveaxis(u, 0, -1))  # the march's x1-last layout
    prof = tangent[first]

    # a cylinder state is (cylinder, far field); a line state is ([line; profile],)
    checks = dict(max_principle_violation=0.0, boundary_mismatch=0.0, max_courant=0.0,
                  planar_at=None, cylinder_window=dict(L=W, n1=window(W).n1))
    torus_axes = tuple(range(1, spec.n))

    def cylinder_sweep(dirichlet):
        def sweep(state, axis):
            v, far = state
            far_new = stepper.sweep_axis(far, axis, axis + 1)
            if axis > 0:
                return stepper.sweep_axis(v, axis, axis - 1), far_new
            # trapezoidal Dirichlet data: the ghost rows averaged over the
            # far field's own matching x1 sweep
            b_lo = 0.5 * far[0, lo_rows[1]] + 0.5 * far_new[0, lo_rows[1]]
            b_hi = 0.5 * far[1, hi_rows[0]] + 0.5 * far_new[1, hi_rows[0]]
            return dirichlet.apply(v, b_lo=b_lo, b_hi=b_hi), far_new
        return sweep

    def rhs(state):
        v, far = state
        ghosts = (np.moveaxis(far[0, lo_rows], 0, -1), np.moveaxis(far[1, hi_rows], 0, -1))
        return (advective_rhs(v, flux, spacings, ghosts=ghosts),
                advective_rhs(far, flux, tspec.spacings))

    # handed over, not kept: no name here holds the start state while it is stepped
    held = [(u, np.stack((ul + w0, ur + w0)))]
    del u
    # extremes of the state before the step; each step's new extremes
    # are the next step's old ones
    extremes = [min(np.min(s) for s in held[0]), max(np.max(s) for s in held[0])]

    def check(state, t):
        # the schedule already bounds the initial state's Courant number;
        # the line is checked with the cylinder's spacings, so its Courant
        # number is that of the planar cylinder field it stands for
        checks["max_courant"] = max(checks["max_courant"],
                                    check_cfl(state[0], flux, spacings, dt, t))
        lo, hi = min(np.min(s) for s in state), max(np.max(s) for s in state)
        checks["max_principle_violation"] = max(checks["max_principle_violation"],
                                                float(hi - extremes[1]), float(extremes[0] - lo))
        extremes[:] = lo, hi

    def check_line(state, t):
        line, prof = state[0]
        check((line, *means), t)
        check_profile(prof, flux, spec.dx1, dt, t)

    edges = []  # (t, edge mass) of each record

    def edge(state, prof, width, t):
        """The larger edge mass of what a state holds on [-width, width],
        x1-first: the profile `prof` against ul and ur, and the cylinder
        against the far field's rows or, after the hand-off, the line
        against the far-field means.  A side above `TAIL_FLOOR` on a window
        short of the line aborts the run, the march's sides judged first."""
        masses = {"profile": edge_mass(prof, (ul, ur), m1, spec.dx1)}
        if means is None:
            masses["cylinder"] = edge_mass(np.moveaxis(state[0], -1, 0), state[1], m1,
                                           spec.cell_volume)
        else:
            masses["line"] = edge_mass(state[0][0], means, m1, spec.dx1)
        for name in reversed(masses):
            for side, mass in zip(("left", "right"), masses[name]):
                if width < L and mass > TAIL_FLOOR:
                    raise NumericalAbort("window", t, (
                        f"the {name}'s {side} edge, {width - 1} < |x1| < {width}, differs from "
                        f"what lies beyond the window by {mass:.3e} in mass, above "
                        f"{TAIL_FLOOR:.0e}"))
        return max(max(sides) for sides in masses.values())

    def sample(grid, t, v, ansatz, h, prof, far):
        """The norm row at time t of state v on `grid`, the window of the
        cylinder or of the line, with perturbation phi = v - ansatz, ansatz
        defect h (None on the line: it is 0) and profile prof, all plain
        arrays.  Beyond the window lie `far`, the left and right far field
        or its means, against the profile's end states."""
        phi = Field(grid, v - ansatz, t)
        fields = dict(phi=phi, grad_phi=Field(grid, magnitude(gradient(phi)), t))
        tiled = prof.reshape((-1,) + (1,) * (v.ndim - 1))  # constant along the torus
        linf = max(float(np.max(np.abs(v - tiled))),
                   *(float(np.max(np.abs(w - end))) for w, end in zip(far, (ul, ur))))
        return dict(t=t, **{name: lp_norm(fields[which], p)
                            for name, (which, p) in PHI_SERIES.items()},
                    u_minus_profile_linf=linf,
                    h_l1=0.0 if h is None else lp_norm(Field(grid, h, t), 1),
                    tail_mass=tail_mass(phi, spec.n1))

    def torus_part(a):
        return float(np.max(np.abs(a - np.mean(a, axis=torus_axes, keepdims=True))))

    def record(k, state, prof, width):
        """(norm row, the line's start state and the far-field means if
        record k hands off, else None) of a cylinder state on [-width,
        width] and its profile `prof`, pulled from the segment's march"""
        march_v, far = state
        v = np.ascontiguousarray(np.moveaxis(march_v, -1, 0))  # x1-first, as every reader takes it
        t, vspec = k * dt, window(width)
        edges.append((t, edge(state, prof.values, width, t)))
        ansatz, h = assemble_bundle(far, replace(prof, t=t), flux, vspec)
        # Dirichlet data is enforced exactly at ghost cells by the index map;
        # cross-check it against a coordinate-based lookup of the torus grid
        for w, idx, row in ((far[0], -1, lo_rows[1]), (far[1], vspec.n1, hi_rows[0])):
            x_ghost = -vspec.L + (idx + 0.5) * vspec.dx1
            j = int(round((x_ghost % 1.0) * m1 - 0.5)) % m1
            mismatch = float(np.max(np.abs(w[row] - w[j])))
            checks["boundary_mismatch"] = max(checks["boundary_mismatch"], mismatch)
        # tau: the torus part of the cylinder, beyond the window that of the
        # far field's rows, and the far field's distance from its constants;
        # the last record has no step left to hand off
        tau = max(torus_part(v), *(float(np.max(np.abs(w - np.mean(w)))) for w in far),
                  *(torus_part(w) for w in far))
        handoff = None
        if tau < PLANAR_TOL and k < steps:
            checks["planar_at"] = dict(step=k, t=t, tau=tau)
            handoff = ((np.stack((np.mean(v, axis=torus_axes), prof.values)),),
                       tuple(float(np.mean(w)) for w in far))
        return sample(vspec, t, v, ansatz, h, prof.values, far), handoff

    def record_line(k, state, width):
        line, prof = state[0]
        t = k * dt
        edges.append((t, edge(state, prof, width, t)))
        # the ansatz of a constant far field is the profile, its defect 0
        return sample(replace(window(width), n=1, n_torus=()), t, line, prof, None, prof, means)

    # one loop over the window segments (module docstring), steps a .. b - 1
    # on one window, b found by bisection, since the window never shrinks;
    # a record that hands off ends its segment, and the line takes the rest
    ends = np.repeat([[ul], [ur]], m1, axis=-1)  # one period beyond each side of the profile
    rows, means, sweep, a = [], None, None, 0
    while a < steps:
        width = width_at(a)
        b = bisect_right(range(steps), width, key=width_at, lo=a + 1)
        periods = width - held[0][0].shape[-1] // (2 * m1)
        if periods:
            state = held.pop()
            edge(state, prof if means is None else state[0][1], width - periods, a * dt)
            if means is None:
                held.append((_widen(state[0], *np.moveaxis(state[1], 1, -1), periods), state[1]))
                prof = _widen(prof, *ends, periods)
            else:
                held.append((_widen(state[0], *ends, periods),))
            del state
        if periods or sweep is None:
            sweep = DiffusionSweep(window(width).n1, spec.dx1, dt / 2.0)
        # recording the states at a + 1 .. b (and at 0 on the cylinder); each
        # march counts time from the segment's start
        seg = (b - a, dt, {i - a for i in snap if a < i <= b or i == a == 0 and means is None}
               | {b - a})
        if means is None:
            profiles = evolve_profile(ProfileState(replace(window(width), n=1, n_torus=()), prof,
                                                   ul=ul, ur=ur), flux, seg, sweep)
            step = (spec.n, cylinder_sweep(sweep), rhs, lambda state, s: check(state, a * dt + s))
        else:
            step = (1, *pinned_line(sweep, spec.dx1, flux, *zip(means, (ul, ur))),
                    lambda state, s: check_line(state, a * dt + s))
        handoff = None
        for k, state in march(held.pop(), seg, *step, lambda k, state: (a + k, state)):
            if means is None:
                pulled = next(profiles)
                prof = pulled.values
                if k in snap:
                    row, handoff = record(k, state, pulled, width)
                    rows.append(row)
            elif k in snap:
                rows.append(record_line(k, state, width))
            if k == b and handoff is None:
                held.append(state)  # the next segment's start
            del state  # the march alone holds it while it steps
            if handoff is not None:
                break  # the cylinder march takes no later step
        a = k
        if handoff is not None:
            start, means = handoff
            held.append(start)
            # one period of the far-field means and the end states beyond each side
            ends = np.repeat(np.transpose([means, (ul, ur)])[..., None], m1, axis=-1)
    checks.update(truncation(edges))
    return {key: np.array([r[key] for r in rows]) for key in rows[0]}, checks


def write_norm_table(series: dict, path) -> None:
    """The norm-table CSV of a run's `series`, with the documented column set."""
    write_table(path, NORM_COLUMNS, zip(*(series[c] for c in NORM_COLUMNS)))
