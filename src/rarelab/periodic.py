"""Fully periodic solutions on the unit torus and their decay toward the mean.

The far field of the cylinder experiments is carried by two torus
solutions started from the same zero-average disturbance around the two
end states.  Conservation form keeps the disturbance average at zero,
and dissipation drives the disturbance to zero exponentially fast; the
rate is measured (by a log-linear fit), never assumed.  A run records
plain (t, values) pairs, as the cylinder's far field holds its two sides;
the disturbance is values - ubar.

A torus run is the shared march of `stepping`.  `TorusStepper` owns the
circulant diffusion sweeps of every torus direction: a torus run's, the
cylinder's two far-field sides' (each a torus field) and the cylinder's
own torus axes'.  It applies each as a matrix product rather than an
FFT, which is faster on the short torus axes the solvers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, fftfreq, ifft, irfft  # bound here: numpy loads numpy.fft on first use

from .domain import MAX_CELLS, magnitude, write_table
from .errors import ConfigError
from .fluxes import FluxSet
from .rates import log_linear_fit
from .stepping import CFL, advective_rhs, check_cfl, march, max_advective_dt, step_schedule

__all__ = [
    "TorusSpec",
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


class TorusStepper:
    """The half-step diffusion sweeps of a torus grid; they also sweep a
    cylinder field along the torus axes it shares with that grid.

    A sweep solves (I - alpha T) u' = (I + alpha T) u along one direction,
    with T the periodic stencil [1, -2, 1] and alpha = (dt / 2) / (2 h^2).
    T is circulant, so the whole operator is the circulant C, built once
    per direction, whose first column is the inverse DFT of the multiplier
    (1 - alpha lam_k) / (1 + alpha lam_k), lam_k = 2 - 2 cos(2 pi k / m).
    A sweep is a matrix product with C, one for all lines along the axis:
    O(m^2) flops per line against the FFT's O(m log m), but a real FFT
    pays its per-line overhead on each short line.  On the torus axes the
    solvers use (4 to a few dozen cells) the product is several times
    faster; at m = 256 the FFT is faster again.
    """

    def __init__(self, spec: TorusSpec, dt: float):
        self._ops = []
        for m, h in zip(spec.sizes, spec.spacings):
            a = dt / 2.0 / (2.0 * h * h)
            lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(m // 2 + 1) / m)
            col = irfft((1.0 - a * lam) / (1.0 + a * lam), m)
            i = np.arange(m)
            self._ops.append(col[(i[:, None] - i[None, :]) % m])

    def sweep_axis(self, values: np.ndarray, axis: int, at: int | None = None) -> np.ndarray:
        """Half-step sweep along torus direction `axis`, which lies on array
        axis `at` of `values`, or on axis `axis` when `at` is None, as in a
        torus field.  Direction 0 of a cylinder field is its line, so a
        cylinder field takes the sweeps of directions 1 and up; it marches
        x1-last, which puts direction d on array axis d - 1."""
        op = self._ops[axis]
        m, at = len(op), (axis if at is None else at) % values.ndim
        if values.shape[at] != m:
            raise ValueError(f"a sweep of {m} cells got {values.shape[at]} along axis {at}")
        # C order first, so any input layout reaches BLAS the same way
        values = np.ascontiguousarray(values)
        if at == values.ndim - 1:
            out = values.reshape(-1, m) @ op.T
        else:
            out = op @ values.reshape(-1, m, math.prod(values.shape[at + 1:]))
        return out.reshape(values.shape)


def schedule(w0: np.ndarray, ubar: float, flux: FluxSet, spec: TorusSpec, t_end: float,
             snapshot_times, dt: float | None = None):
    """(steps, dt, record_indices) of a torus run from ubar + w0: `step_schedule`
    under the CFL bound (Courant number `CFL`) of the data's range.  The
    disturbance must average to zero, to 1e-12 of its largest value, so
    that roundoff in the mean of a large one passes: a nonzero average
    belongs in the background constant, not the disturbance."""
    mean, amp = float(np.mean(w0)), float(np.max(np.abs(w0)))
    if abs(mean) > 1e-12 * amp:
        raise ConfigError(f"disturbance mean {mean:.3e} violates the zero-average requirement")
    dt_max = max_advective_dt(flux, spec.spacings, ubar - amp, ubar + amp, CFL)
    return step_schedule(t_end, dt_max, dt, snapshot_times)


def solve_periodic(w0: np.ndarray, ubar: float, flux: FluxSet, spec: TorusSpec,
                   plan) -> list[tuple[float, np.ndarray]]:
    """(t, values) of the torus solution from data ubar + w0 on the grid
    `spec` at each recorded step of plan = (steps, dt, record), which
    `schedule` draws.  `values` is the march's own array, not a copy: each
    sweep and Heun stage builds a new one, so none is written once kept."""
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
        lambda k, state: (k * dt, state[0]),
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


def w_sup_norms(w: np.ndarray) -> tuple[float, float]:
    """(sup |w|, sup |grad w|) of a disturbance w = values - ubar; the gradient is spectral."""
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


def write_periodic_series(states, ubar: float, path) -> list[tuple[float, float]]:
    """CSV time series (t, sup |w|, sup |grad w|, |mean - ubar|) of the
    (t, values) pairs of a torus run around `ubar`; returns the
    `w_sup_norms` pair of every state."""
    norms = [w_sup_norms(v - ubar) for _, v in states]
    write_table(path, PERIODIC_COLUMNS,
                ((t, sup, gsup, abs(float(np.mean(v)) - ubar))
                 for (t, v), (sup, gsup) in zip(states, norms)))
    return norms
