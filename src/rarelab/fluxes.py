"""Per-direction flux functions with first and second derivatives.

The governing equation is u_t + sum_i d/dx_i f_i(u) = Laplacian(u).
Everything downstream assumes the line-direction flux f_1 is uniformly
convex on the working range: f_1'' >= A0 = 1, the one floor that
`FluxSet.check_convexity` checks.  Transverse fluxes are unconstrained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["A0", "FluxSet", "burgers", "cubic", "linear_flux"]

A0 = 1.0  # the convexity floor f_1'' must reach on the working range

FluxFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FluxSet:
    """Fluxes f_i and derivatives for each of the n directions.

    Attributes:
        f: flux evaluators, one per direction.
        df: first derivatives (wave speeds).
        d2f: second derivatives (curvatures).
    """

    f: tuple[FluxFn, ...]
    df: tuple[FluxFn, ...]
    d2f: tuple[FluxFn, ...]

    def check_convexity(self, umin: float, umax: float) -> None:
        """Verify f_1''(u) >= A0 on [umin, umax] at 2001 samples.  A range
        whose width overflows has no samples (np.linspace's would be NaN),
        and a sample of f_1'' that is not finite fails too."""
        if not math.isfinite(umax - umin):
            raise ValueError(f"the range [{umin}, {umax}] is too wide to sample f_1''")
        with np.errstate(over="ignore", invalid="ignore"):  # judged below, not warned about
            d2f = np.asarray(self.d2f[0](np.linspace(umin, umax, 2001)), dtype=float)
        if not np.isfinite(d2f).all():
            raise ValueError(f"f_1'' is not finite on [{umin}, {umax}]")
        low = float(np.min(d2f))
        if low < A0 - 1e-12:
            raise ValueError(f"f_1'' dips to {low:.6g} < a0 = {A0:.6g} on [{umin}, {umax}]")


def _const(c: float) -> FluxFn:
    """u -> c everywhere, marked: its `constant` attribute carries c, so
    `ansatz.mean_flux_curvature` averages a constant f'' once, not per cell."""
    fn = lambda u: np.full_like(np.asarray(u, dtype=float), c)
    fn.constant = c
    return fn


def burgers(n: int) -> FluxSet:
    """f_i(u) = u^2 / 2 in every direction."""
    f = lambda u: 0.5 * np.asarray(u, dtype=float) ** 2
    df = lambda u: np.asarray(u, dtype=float)
    return FluxSet(f=(f,) * n, df=(df,) * n, d2f=(_const(1.0),) * n)


def cubic(n: int) -> FluxSet:
    """f_i(u) = u^3 / 3; f_1'' = 2u reaches the floor A0 = 1 only on u >= 1/2."""
    f = lambda u: np.asarray(u, dtype=float) ** 3 / 3.0
    df = lambda u: np.asarray(u, dtype=float) ** 2
    d2f = lambda u: 2.0 * np.asarray(u, dtype=float)
    return FluxSet(f=(f,) * n, df=(df,) * n, d2f=(d2f,) * n)


def linear_flux(n: int, speeds: Sequence[float]) -> FluxSet:
    """f_i(u) = c_i u.  Degenerate in the line direction (f_1'' = 0):
    useful for exercising validation failure paths."""
    if len(speeds) != n:
        raise ValueError(f"linear flux wants {n} speeds, got {len(speeds)}")
    fs, dfs, d2fs = [], [], []
    for c in speeds:
        fs.append(lambda u, c=c: c * np.asarray(u, dtype=float))
        dfs.append(_const(c))
        d2fs.append(_const(0.0))
    return FluxSet(f=tuple(fs), df=tuple(dfs), d2f=tuple(d2fs))
