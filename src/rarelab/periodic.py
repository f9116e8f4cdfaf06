"""Fully periodic solutions on the unit torus and their decay toward the mean.

The far field of the cylinder experiments is carried by two torus
solutions started from the same zero-average disturbance around the two
end states.  Conservation form keeps the disturbance average at zero,
and dissipation drives the disturbance to zero exponentially fast; the
rate is measured (by a log-linear fit), never assumed.

A torus run is the shared march of `stepping`.  `TorusStepper` holds
only the diffusion sweeps, which also sweep the cylinder's two far-field
sides, each a torus field, and the cylinder's own torus axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, fftfreq, ifft  # bound here: numpy loads numpy.fft on first use

from .domain import MAX_CELLS, magnitude, write_table
from .errors import ConfigError
from .fluxes import FluxSet
from .rates import log_linear_fit
from .stepping import (
    CFL, DiffusionSweep, advective_rhs, check_cfl, march, max_advective_dt, step_schedule,
)

__all__ = [
    "TorusSpec",
    "PeriodicState",
    "TorusStepper",
    "schedule",
    "solve_periodic",
    "spectral_derivative",
    "w_sup_norms",
    "fit_exponential_decay",
    "write_periodic_series",
    "PERIODIC_COLUMNS",
]

PERIODIC_COLUMNS = ("t", "w_sup", "grad_w_sup", "mean_drift")


@dataclass(frozen=True)
class TorusSpec:
    """Uniform grid on the unit torus in each of `ndim` directions.

    Coordinates along direction d are (j + offsets[d]) / sizes[d].  A
    half-cell offset in the first direction lines the torus grid up with
    the cell-centered line axis of the cylinder grid.  A grid holds at
    most `domain.MAX_CELLS` points.
    """

    sizes: tuple[int, ...]
    offsets: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(m) for m in self.sizes))
        if not self.offsets:
            object.__setattr__(self, "offsets", (0.0,) * len(self.sizes))
        if len(self.offsets) != len(self.sizes):
            raise ValueError("offsets and sizes must have equal length")
        if any(m < 4 for m in self.sizes):
            raise ValueError(f"torus sizes must be at least 4, got {self.sizes}")
        if math.prod(self.sizes) > MAX_CELLS:
            raise ValueError(f"torus sizes {self.sizes} hold more than {MAX_CELLS} points")

    @property
    def ndim(self) -> int:
        return len(self.sizes)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(1.0 / m for m in self.sizes)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        return tuple(
            (np.arange(m) + off) / m for m, off in zip(self.sizes, self.offsets)
        )


@dataclass(frozen=True)
class PeriodicState:
    spec: TorusSpec
    values: np.ndarray
    t: float
    ubar: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.spec.sizes:
            raise ValueError(f"values shape {v.shape} != torus shape {self.spec.sizes}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def w(self) -> np.ndarray:
        """Disturbance relative to the background constant."""
        return self.values - self.ubar

    def mean_drift(self) -> float:
        return abs(float(np.mean(self.values)) - self.ubar)


class TorusStepper:
    """The half-step diffusion sweeps of a torus grid; they also sweep a
    cylinder field along the torus axes it shares with that grid."""

    def __init__(self, spec: TorusSpec, dt: float):
        self.sweeps = [
            DiffusionSweep(m, h, dt / 2.0, periodic=True)
            for m, h in zip(spec.sizes, spec.spacings)
        ]

    def sweep_axis(self, values: np.ndarray, axis: int, at: int | None = None) -> np.ndarray:
        """Half-step sweep along torus direction `axis`, which lies on array
        axis `at` of `values`, or on axis `axis` when `at` is None, as in a
        torus field.  Direction 0 of a cylinder field is its line, so a
        cylinder field takes the sweeps of directions 1 and up; it marches
        x1-last, which puts direction d on array axis d - 1."""
        return self.sweeps[axis].apply(values, axis=axis if at is None else at)


def schedule(w0: np.ndarray, ubar: float, flux: FluxSet, spec: TorusSpec, t_end: float,
             snapshot_times, dt: float | None = None):
    """(steps, dt, record_indices) of a torus run from ubar + w0: `step_schedule`
    under the CFL bound (Courant number `CFL`) of the data's range.  The
    disturbance must average to zero (to 1e-12): a nonzero average belongs
    in the background constant, not the disturbance."""
    mean = float(np.mean(w0))
    if abs(mean) > 1e-12:
        raise ConfigError(f"disturbance mean {mean:.3e} violates the zero-average requirement")
    amp = float(np.max(np.abs(w0)))
    dt_max = max_advective_dt(flux, spec.spacings, ubar - amp, ubar + amp, CFL)
    return step_schedule(t_end, dt_max, dt, snapshot_times)


def solve_periodic(w0: np.ndarray, ubar: float, flux: FluxSet, spec: TorusSpec,
                   plan) -> list[PeriodicState]:
    """The torus solution from data ubar + w0 on the grid `spec` at each
    recorded step of plan = (steps, dt, record), which `schedule` draws."""
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != spec.sizes:
        raise ConfigError(f"w0 shape {w0.shape} does not match torus {spec.sizes}")
    dt = plan[1]
    stepper = TorusStepper(spec, dt)
    return list(march(
        (ubar + w0,), plan, spec.ndim,
        lambda state, axis: (stepper.sweep_axis(state[0], axis),),
        lambda state: (advective_rhs(state[0], flux, spec.spacings),),
        lambda state, t: check_cfl(state[0], flux, spec.spacings, dt, t),
        lambda k, state: PeriodicState(spec, state[0], k * dt, ubar),
    ))


def spectral_derivative(values: np.ndarray, axis: int) -> np.ndarray:
    """Exact derivative of the trigonometric interpolant along one axis.

    Unit period per direction; the unpaired highest mode of an even-size
    grid contributes nothing to a real derivative and is dropped.
    """
    m = values.shape[axis]
    k = fftfreq(m, d=1.0 / m)
    mult = 2.0j * np.pi * k
    if m % 2 == 0:
        mult[m // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = m
    hat = fft(values, axis=axis) * mult.reshape(shape)
    return np.real(ifft(hat, axis=axis))


def w_sup_norms(state: PeriodicState) -> tuple[float, float]:
    """(sup |w|, sup |grad w|) with the gradient taken spectrally."""
    w = state.w
    grad = magnitude(spectral_derivative(w, axis) for axis in range(w.ndim))
    return float(np.max(np.abs(w))), float(np.max(grad))


def fit_exponential_decay(times, norms, window) -> tuple[float, float]:
    """Fit norms ~ C exp(-2 a t) on the window; returns (a, r^2).

    The factor 2 matches the convention that the disturbance decays at
    twice the rate the induced source term does.  At least 4 points must
    fall inside the window and all of them must be positive.
    """
    slope, _, r2, _ = log_linear_fit(times, times, norms, window)
    return -0.5 * slope, r2


def write_periodic_series(states, path) -> list[tuple[float, float]]:
    """CSV time series (t, sup |w|, sup |grad w|, mean drift); returns the
    `w_sup_norms` pair of every state."""
    norms = [w_sup_norms(st) for st in states]
    write_table(path, PERIODIC_COLUMNS,
                ((st.t, sup, gsup, st.mean_drift()) for st, (sup, gsup) in zip(states, norms)))
    return norms

