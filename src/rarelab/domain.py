"""Discretized cylinder domain: a truncated line times a flat torus.

The computational domain is [-L, L] x T^{n-1}, where each torus direction
has period 1.  The line direction (axis 0, "x1") uses cell-centered
coordinates; torus directions use the uniform grid {j/m}.  All norms are
midpoint-rule quadratures over the truncation; the measure of the
truncated domain is 2L since every torus factor has measure 1.

One set of grid operators serves every module.  `derivative` (one first
partial), `gradient` (the list of them), `second_derivative` and
`laplacian` take a Field and return arrays; `magnitude` is the pointwise
Euclidean length of such arrays.  `derivative` and `gradient` take a
window of x1 rows, and `slabs` lists the windows of about SLAB_CELLS
cells that cover a grid, so a quantity built from first partials can be
built a slab at a time without holding a full-grid partial.

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

A Field's values never change, so it keeps its norms: `lp_norm` computes
each (field, p) once.  `with_values` starts a new Field with none kept.
`array_norms` runs the same norm formulas on a bare array; handed a
fresh array it may overwrite, it measures it in place, so a temporary
such as a gradient magnitude is measured without a second full-grid
array and without ever becoming a Field.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainSpec",
    "Grid",
    "Field",
    "make_grid",
    "lp_norm",
    "array_norms",
    "derivative",
    "gradient",
    "check_gradient_grid",
    "magnitude",
    "overwritable",
    "slabs",
    "second_derivative",
    "laplacian",
    "tail_mass",
    "write_snapshot",
    "read_snapshot",
    "write_table",
    "write_json",
    "MAX_CELLS",
    "SLAB_CELLS",
]

MAX_CELLS = 10**7  # most cells a grid may hold

# Cells per slab of `slabs`.  A slab's n partials and one more array of
# its size are the temporaries of a slab-built quantity, 128 KiB each at
# 2**14 cells: at n = 3 the four fit in a core's L2 cache and hold half a
# 128 x 32 x 32 field.  Smaller slabs pay more per-call overhead than
# they save: for |grad(|u|**p)| on a 128 x 48 x 48 field, 2**13 took
# 8.5 ms, 2**14 6.4 ms and 2**15 5.9 ms, against 9.6 ms for the
# full-grid partials.
SLAB_CELLS = 2**14


@dataclass(frozen=True)
class DomainSpec:
    """Geometry of the truncated cylinder grid.

    Attributes:
        n: spatial dimension, 1 to 3 (n=1 means a bare line, used for
           1-d profile snapshots).
        L: half-length of the x1 truncation, finite and > 0.
        n1: number of x1 cells (cell centers at -L + (i+1/2)*dx1).
        n_torus: cells per torus direction, one entry per direction.

    A grid holds at most MAX_CELLS cells.
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
        if self.n1 * math.prod(self.n_torus) > MAX_CELLS:
            raise ValueError(f"the grid {self.shape} holds more than {MAX_CELLS} cells")

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
    place and kept, not copied.  Any other input is copied.  The values
    never change, so the Field keeps each L^p norm `lp_norm` takes of it,
    and each one `decomp.grad_norm` takes of its gradient magnitude.
    """

    spec: DomainSpec
    values: np.ndarray
    t: float = 0.0
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.spec, values, self.t)


def lp_norm(f: Field, p: float) -> float:
    """L^p norm over the truncated domain by midpoint quadrature, for
    p >= 1 or p = inf; computed once per (f, p) and kept on f."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if p not in f._norms:
        f._norms[p] = _lp_norm(f, p)
    return f._norms[p]


def _lp_norm(f: Field, p: float) -> float:
    """The norm itself, by `array_norms` on the Field's values."""
    return array_norms(f.values, (p,), f.spec.cell_volume)[0]


def array_norms(values: np.ndarray, ps, cell_volume: float,
                overwrite: bool = False) -> list[float]:
    """L^p norms, one per p in ps (each >= 1 or inf), of values on a grid
    of the given cell volume: the formulas of every norm in the lab.

    p = inf is the max of |v| (a separate code path, not a large-p
    limit), taken first and with no array formed: the larger of max(v)
    and -min(v), which is max|v| bitwise, +0.0 for an all-zero array
    whatever the signs of its zeros.  p = 1 sums |v|; p = 2 sums v*v,
    bitwise |v|*|v|; any other p sums |v|**p.  Each finite p's sum is
    scaled by the cell volume and raised to 1/p.

    Without `overwrite` values is only read, and each finite p forms one
    array: |v|, then its power in place (p = 2 forms v*v alone).  With
    `overwrite` values is a fresh array the caller gives up: |v| and
    then the last power are formed in it, in place, so measuring it
    forms no full-grid array unless two powers are asked; every power
    but the last is formed in a copy.

    A finite p whose plain sum overflows, or underflows to 0 though v
    is not all zero, is measured as max|v| times the norm of
    |v| / max|v|, with no warning.  A power is formed in place in a
    given-up array only when that cannot happen (`_power_sum_is_safe`),
    so |v| is still there to rescale; every norm whose plain sum is
    finite and positive is the plain one.
    """
    for p in ps:
        if not p >= 1:
            raise ValueError(f"p must be >= 1 or inf, got {p}")
    finite = [p for p in dict.fromkeys(ps) if not np.isinf(p)]
    powers = [p for p in finite if p != 1]
    norms, sup = {}, None
    if any(np.isinf(p) for p in ps):
        sup = norms[np.inf] = _sup(values)

    def settle(p, acc, source):
        # source holds v or |v| whenever the plain sum can fail
        nonlocal sup
        if not 0.0 < acc < np.inf:
            if sup is None:
                sup = _sup(source)
            if 0.0 < sup < np.inf:
                return _rescaled_norm(source, p, sup, cell_volume)
        return (acc * cell_volume) ** (1.0 / p)

    v, mine = values, overwrite  # whether v may be written
    if any(p != 2 for p in finite):
        v, mine = np.abs(v, out=v if mine else None), True
    if 1 in finite:
        with np.errstate(over="ignore"):
            norms[1] = settle(1, float(np.sum(v)), v)
    for i, p in enumerate(powers):
        in_place = mine and i == len(powers) - 1
        if in_place and overwrite:
            if sup is None:
                sup = _sup(v)
            in_place = _power_sum_is_safe(sup, p, v.size)
        with np.errstate(over="ignore"):
            if p == 2:
                w = np.multiply(v, v, out=v if in_place else None)
            else:
                w = v if in_place else v.copy()
                w **= p
            acc = float(np.sum(w))
        del w
        # a power formed in place in v leaves values unwritten
        norms[p] = settle(p, acc, values if in_place else v)
    return [norms[p] for p in ps]


def _sup(values: np.ndarray) -> float:
    """max|values| with no array formed: the larger of max and -min, +0.0
    for an all-zero array whatever the signs of its zeros."""
    return max(float(values.max()), -float(values.min())) + 0.0


def _power_sum_is_safe(sup: float, p: float, size: int) -> bool:
    """Whether the sum of |v|**p over `size` cells with max|v| = sup is
    sure to be finite and, for a nonzero v, positive: each term is at
    most sup**p < 2**1000 / size and the largest at least 2**-1000."""
    if sup == 0.0:
        return True
    if not sup < np.inf:
        return False
    e = p * math.log2(sup)
    return -1000.0 < e and e + math.log2(size) < 1000.0


def _rescaled_norm(values: np.ndarray, p: float, sup: float, cell_volume: float) -> float:
    """sup * the L^p norm of |values| / sup, for 0 < sup = max|values| < inf."""
    a = np.abs(values)
    a /= sup
    a **= p
    return sup * (float(np.sum(a)) * cell_volume) ** (1.0 / p)


def derivative(f: Field, axis: int, rows: tuple[int, int] | None = None) -> np.ndarray:
    """First partial along one axis, second order everywhere.

    Central differences; torus directions wrap, the line direction falls
    back to one-sided second-order stencils at the two truncation ends.
    The result is built in one array by slices: bitwise the rolled
    difference on a torus axis and np.gradient(edge_order=2) on the line.

    `rows = (start, stop)`, with 0 <= start < stop <= n1, builds only
    those x1 rows of the partial, with the same stencils, so the window
    is bitwise the slice derivative(f, axis)[start:stop].
    """
    v = f.values
    h = f.spec.spacing(axis)
    start, stop = (0, f.spec.n1) if rows is None else rows
    if axis == 0:
        out = np.empty((stop - start, *v.shape[1:]))
        lo, hi = max(start, 1), min(stop, f.spec.n1 - 1)  # rows with both neighbours
        inner = out[lo - start:hi - start]
        np.subtract(v[lo + 1:hi + 1], v[lo - 1:hi - 1], out=inner)
        inner /= 2.0 * h
        # np.gradient's one-sided ends, term for term
        if start == 0:
            out[0] = (-1.5 / h) * v[0] + (2.0 / h) * v[1] + (-0.5 / h) * v[2]
        if stop == f.spec.n1:
            out[-1] = (0.5 / h) * v[-3] + (-2.0 / h) * v[-2] + (1.5 / h) * v[-1]
        return out
    v = v[start:stop]
    out = np.empty_like(v)
    w, o = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(w[2:], w[:-2], out=o[1:-1])
    np.subtract(w[1], w[-1], out=o[0])
    np.subtract(w[0], w[-2], out=o[-1])
    out /= 2.0 * h
    return out


def gradient(f: Field, rows: tuple[int, int] | None = None) -> list[np.ndarray]:
    """All first partials, one array per direction; `rows` is
    `derivative`'s window, so each is bitwise the slice of the full one."""
    return [derivative(f, axis, rows) for axis in range(f.spec.n)]


def check_gradient_grid(spec: DomainSpec) -> None:
    """Raise ValueError unless the squared gradient of a field bounded by
    1 is finite on the grid: its x1 partial reaches 4/dx1 at a one-sided
    end (`derivative`'s coefficients -3/2, 2 and -1/2 over dx1), and
    `magnitude` squares it."""
    end = 4.0 / spec.dx1
    if not end * end < math.inf:
        raise ValueError(f"L = {spec.L:g} with n1 = {spec.n1} gives dx1 = {spec.dx1:g}, where "
                         f"the squared gradient (4/dx1)**2 of a unit field overflows")


def slabs(spec: DomainSpec) -> list[tuple[int, int]]:
    """The (start, stop) windows of x1 rows, in order, that cover the
    grid: each holds SLAB_CELLS cells or fewer, and at least one row."""
    step = max(1, SLAB_CELLS // (spec.num_points // spec.n1))
    return [(start, min(start + step, spec.n1)) for start in range(0, spec.n1, step)]


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


def write_json(obj, path) -> None:
    """Strict JSON of obj, indented by 2: str keys, lists for tuples, Python
    numbers for numpy scalars, non-finite floats as "inf", "-inf", "nan"."""
    def ready(x):
        if isinstance(x, dict):
            return {str(k): ready(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [ready(v) for v in x]
        if isinstance(x, np.generic):
            x = x.item()
        return str(x) if isinstance(x, float) and not np.isfinite(x) else x

    with open(path, "w") as fh:
        json.dump(ready(obj), fh, indent=2, allow_nan=False)
