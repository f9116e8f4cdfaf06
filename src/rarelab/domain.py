"""Discretized cylinder domain: a truncated line times a flat torus.

The computational domain is [-L, L] x T^{n-1}, where each torus direction
has period 1.  The line direction (axis 0, "x1") uses cell-centered
coordinates; torus directions use the uniform grid {j/m}.  All norms are
midpoint-rule quadratures over the truncation; the measure of the
truncated domain is 2L since every torus factor has measure 1.

One set of grid operators serves every module.  `derivative` (one first
partial), `gradient` (the list of them), `second_derivative` and
`laplacian` take a Field and return arrays; `magnitude` is the pointwise
Euclidean length of such arrays.

Truncation caveat: fields of interest decay in |x1| (perturbations are
integrable along the line by construction), so the truncated norm is a
proxy for the norm over the unbounded cylinder.  The quality of the proxy
is monitored, not proven: `tail_mass` reports the fraction of |f| living
in the outer 10% of the x1 range and experiments keep it small.

All reductions use numpy's pairwise summation on arrays with a fixed
layout, so results are reproducible and independent of any worker count.

A Field is an input, a solver state, a split part or a measured
magnitude, never an intermediate derivative.  It takes ownership of an
array that owns its data and is C-contiguous: it makes that array
read-only in place and keeps it, so a caller that writes to it afterwards
gets a ValueError.  Any other input (a view, a Fortran-ordered or
non-float array, a list) is copied.  Each operator result is one fresh
array, so wrapping it with `Field.with_values` costs no copy.
`magnitude` takes ownership the same way: it overwrites the arrays it
is handed and returns the first one, so a caller passes it operator
results it no longer needs, never an array it reads later.  Arrays it
may not overwrite (read-only, or sharing memory) it leaves untouched.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainSpec",
    "Grid",
    "Field",
    "make_grid",
    "lp_norm",
    "derivative",
    "gradient",
    "magnitude",
    "overwritable",
    "second_derivative",
    "laplacian",
    "tail_mass",
    "write_snapshot",
    "read_snapshot",
    "write_table",
]


@dataclass(frozen=True)
class DomainSpec:
    """Geometry of the truncated cylinder grid.

    Attributes:
        n: spatial dimension, 1 to 3 (n=1 means a bare line, used for
           1-d profile snapshots).
        L: half-length of the x1 truncation, finite and > 0.
        n1: number of x1 cells (cell centers at -L + (i+1/2)*dx1).
        n_torus: cells per torus direction, one entry per direction.
    """

    n: int
    L: float
    n1: int
    n_torus: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_torus", tuple(int(m) for m in self.n_torus))
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if len(self.n_torus) != self.n - 1:
            raise ValueError(
                f"need {self.n - 1} torus cell counts for n={self.n}, "
                f"got {len(self.n_torus)}"
            )
        if not 0 < self.L < np.inf:
            raise ValueError(f"half-length L must be positive and finite, got {self.L}")
        if self.n1 < 4:
            raise ValueError(f"n1 must be at least 4, got {self.n1}")
        if any(m < 4 for m in self.n_torus):
            raise ValueError(f"torus cell counts must be at least 4, got {self.n_torus}")

    @property
    def dx1(self) -> float:
        return 2.0 * self.L / self.n1

    @property
    def dx_torus(self) -> tuple[float, ...]:
        return tuple(1.0 / m for m in self.n_torus)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n1, *self.n_torus)

    @property
    def num_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        vol = self.dx1
        for h in self.dx_torus:
            vol *= h
        return vol

    def spacing(self, axis: int) -> float:
        return self.dx1 if axis == 0 else self.dx_torus[axis - 1]


@dataclass(frozen=True)
class Grid:
    x1: np.ndarray
    torus: tuple[np.ndarray, ...]


def make_grid(spec: DomainSpec) -> Grid:
    """Coordinate arrays: x1 cell centers in (-L, L), torus points in [0, 1)."""
    x1 = -spec.L + (np.arange(spec.n1) + 0.5) * spec.dx1
    torus = tuple(np.arange(m) / m for m in spec.n_torus)
    return Grid(x1=x1, torus=torus)


@dataclass(frozen=True)
class Field:
    """Scalar samples on a DomainSpec grid at one instant: an input, a
    solver state, a split part or a measured magnitude.

    Values are stored as a read-only float array of shape
    (n1, *n_torus); axis 0 is the line direction.  An array that owns
    its data and is C-contiguous is taken over: it is made read-only in
    place and kept, not copied.  Any other input is copied.
    """

    spec: DomainSpec
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.spec.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.spec.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        if v.base is not None or not v.flags.c_contiguous:
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray, t: float | None = None) -> "Field":
        return Field(self.spec, values, self.t if t is None else t)


def lp_norm(f: Field, p: float) -> float:
    """L^p norm over the truncated domain by midpoint quadrature.

    p = inf is the max of |f| (a separate code path, not a large-p limit).
    At p = 2 and p = inf no |f| array is formed: v*v equals |v|*|v| and
    the larger of max(v) and -min(v) equals max|v|, bitwise; the sup of
    an all-zero field is +0.0 whatever the signs of its zeros.
    """
    v = f.values
    if np.isinf(p):
        return max(float(v.max()), -float(v.min())) + 0.0
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if p == 1:
        acc = float(np.sum(np.abs(v)))
    elif p == 2:
        acc = float(np.sum(v * v))
    else:
        a = np.abs(v)
        a **= p
        acc = float(np.sum(a))
    return (acc * f.spec.cell_volume) ** (1.0 / p)


def derivative(f: Field, axis: int) -> np.ndarray:
    """First partial along one axis, second order everywhere.

    Central differences; torus directions wrap, the line direction falls
    back to one-sided second-order stencils at the two truncation ends.
    The result is built in one array by slices: bitwise the rolled
    difference on a torus axis and np.gradient(edge_order=2) on the line.
    """
    v = f.values
    h = f.spec.spacing(axis)
    out = np.empty_like(v)
    w, o = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(w[2:], w[:-2], out=o[1:-1])
    if axis == 0:
        o[1:-1] /= 2.0 * h
        # np.gradient's one-sided ends, term for term
        o[0] = (-1.5 / h) * w[0] + (2.0 / h) * w[1] + (-0.5 / h) * w[2]
        o[-1] = (0.5 / h) * w[-3] + (-2.0 / h) * w[-2] + (1.5 / h) * w[-1]
    else:
        np.subtract(w[1], w[-1], out=o[0])
        np.subtract(w[0], w[-2], out=o[-1])
        out /= 2.0 * h
    return out


def gradient(f: Field) -> list[np.ndarray]:
    """All first partials, one array per direction."""
    return [derivative(f, axis) for axis in range(f.spec.n)]


def overwritable(arrays: list[np.ndarray]) -> bool:
    """Whether an in-place pass may overwrite every one of arrays: each
    is writable and no two may share memory.  An array handed twice, or
    two overlapping views, would be overwritten before it is read again."""
    return all(a.flags.writeable for a in arrays) and not any(
        np.may_share_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])


def magnitude(components) -> np.ndarray:
    """Pointwise Euclidean length sqrt(sum c**2) of equal-shape arrays.

    Takes ownership of its components, as operator results are handed
    to it: each one is squared in place, the squares are added in order
    into the first, and the square root is taken there, so the result is
    the first component's buffer.  When they are not all `overwritable`
    (a Field's read-only values, an array handed twice) none is written
    and the result is a new array.  Bitwise np.sqrt(sum(c * c)) either way.
    """
    comps = list(components)
    if not overwritable(comps):
        return np.sqrt(sum(c * c for c in comps))
    acc = np.multiply(comps[0], comps[0], out=comps[0])
    for c in comps[1:]:
        acc += np.multiply(c, c, out=c)
    return np.sqrt(acc, out=acc)


def second_derivative(f: Field, axis: int) -> np.ndarray:
    """Second partial along one axis, second order everywhere.

    A torus axis uses the wrapped stencil (v[i+1] - 2 v[i]) + v[i-1],
    built by slices in one array.
    """
    v = f.values
    h = f.spec.spacing(axis)
    if axis == 0:
        d2 = np.empty_like(v)
        d2[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
        # one-sided 4-point stencils keep O(h^2) at the truncation ends
        d2[0] = 2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]
        d2[-1] = 2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]
        d2 /= h**2
        return d2
    out = 2.0 * v
    w, o = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(w[2:], o[1:-1], out=o[1:-1])
    np.subtract(w[1], o[0], out=o[0])
    np.subtract(w[0], o[-1], out=o[-1])
    np.add(o[1:], w[:-1], out=o[1:])
    np.add(o[0], w[-1], out=o[0])
    out /= h**2
    return out


def laplacian(f: Field) -> np.ndarray:
    return sum(second_derivative(f, axis) for axis in range(f.spec.n))


def tail_mass(f: Field) -> float:
    """Fraction of the |f| mass in the outer 10% of the x1 range.

    Returns 0 for an identically zero field.  Used as the diagnostic
    guarding against structure reaching the truncation boundary.
    """
    a = np.abs(f.values)
    total = float(np.sum(a))
    if total == 0.0:
        return 0.0
    k = max(1, int(round(f.spec.n1 * 0.1 / 2.0)))
    outer = float(np.sum(a[:k])) + float(np.sum(a[-k:]))
    return outer / total


# --- snapshot I/O ------------------------------------------------------------
#
# Binary layout: little-endian 64-bit header values
#   n (int), L (float), n1 (int), n_torus[0..n-2] (int), t (float)
# followed by the row-major float64 values.

def write_snapshot(f: Field, path) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<qd{f.spec.n}qd", f.spec.n, f.spec.L, *f.spec.shape, f.t))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_snapshot(path) -> Field:
    with open(path, "rb") as fh:
        n, L = struct.unpack("<qd", fh.read(16))
        n1, *n_torus, t = struct.unpack(f"<{n}qd", fh.read(8 * n + 8))
        spec = DomainSpec(n=n, L=L, n1=n1, n_torus=n_torus)
        values = np.frombuffer(fh.read(spec.num_points * 8), dtype="<f8")
    return Field(spec=spec, values=values.reshape(spec.shape), t=t)


def write_table(path, names, rows) -> None:
    """CSV: a header of column names, then one line per row with every
    value at full precision (%.17g)."""
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

