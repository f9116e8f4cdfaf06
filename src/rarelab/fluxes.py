"""Per-direction flux functions with first and second derivatives.

The governing equation is u_t + sum_i d/dx_i f_i(u) = Laplacian(u).
Everything downstream assumes the line-direction flux f_1 is uniformly
convex on the working range: f_1'' >= a0 > 0.  Transverse fluxes are
unconstrained (any smooth function works).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["FluxSet", "burgers", "cubic", "linear_flux"]

FluxFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FluxSet:
    """Fluxes f_i and derivatives for each of the n directions.

    Attributes:
        f: flux evaluators, one per direction.
        df: first derivatives (wave speeds).
        d2f: second derivatives (curvatures).
        a0: convexity floor claimed for f_1'' on the working range.
    """

    f: tuple[FluxFn, ...]
    df: tuple[FluxFn, ...]
    d2f: tuple[FluxFn, ...]
    a0: float = 1.0

    @property
    def n(self) -> int:
        return len(self.f)

    def check_convexity(self, umin: float, umax: float) -> None:
        """Verify f_1''(u) >= a0 > 0 on [umin, umax] at 2001 samples."""
        if not self.a0 > 0:
            raise ValueError(f"convexity floor a0 must be positive, got {self.a0}")
        u = np.linspace(umin, umax, 2001)
        curv = np.asarray(self.d2f[0](u), dtype=float)
        low = float(np.min(curv))
        if low < self.a0 - 1e-12:
            raise ValueError(
                f"f_1'' dips to {low:.6g} < a0 = {self.a0:.6g} on [{umin}, {umax}]"
            )


def _const(c: float) -> FluxFn:
    return lambda u: np.full_like(np.asarray(u, dtype=float), c)


def burgers(n: int) -> FluxSet:
    """f_i(u) = u^2 / 2 in every direction."""
    f = lambda u: 0.5 * np.asarray(u, dtype=float) ** 2
    df = lambda u: np.asarray(u, dtype=float)
    return FluxSet(f=(f,) * n, df=(df,) * n, d2f=(_const(1.0),) * n, a0=1.0)


def cubic(n: int) -> FluxSet:
    """f_i(u) = u^3 / 3; f_1'' = 2u reaches the floor a0 = 1 only on u >= 1/2."""
    f = lambda u: np.asarray(u, dtype=float) ** 3 / 3.0
    df = lambda u: np.asarray(u, dtype=float) ** 2
    d2f = lambda u: 2.0 * np.asarray(u, dtype=float)
    return FluxSet(f=(f,) * n, df=(df,) * n, d2f=(d2f,) * n, a0=1.0)


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
    return FluxSet(f=tuple(fs), df=tuple(dfs), d2f=tuple(d2fs), a0=1.0)
