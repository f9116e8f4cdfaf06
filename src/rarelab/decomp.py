"""Constructive splitting of a cylinder field by iterated torus averaging.

A field on the cylinder splits into a purely 1-d part plus, for every
subset of torus directions, a component that depends only on x1 and
those directions and averages to zero along each of them.  The zero
slice averages are what make the lower-dimensional interpolation
inequalities applicable to each component; the top-level component
absorbs the remainder, so reconstruction is exact on grid functions.

Averages are plain grid means (exact sums), so membership and
reconstruction are machine-precision statements, not quadrature ones.

`decompose` builds each part once, as a Field on the part's own
cylinder: the line for the 1-d part, x1 times its own torus directions
for a component.  Every consumer reads those Fields; `broadcast` tiles
one back onto the full grid where a full-grid array is needed.

`decompose` works row by row in x1: the torus means, each level's
remainder and the top part are built a slab of rows at a time
(`domain.slabs`), each straight into its part's array, so the split
never holds a full-grid remainder or lower sum.

A split keeps the field it splits, so the measurements that take it
(`norm_bound_ratio`, `ineqlab.gn_ratio`) can check it is `decompose(u)`
of the very u they measure.  u and every part keep their own L^p norms
(`domain.lp_norm`) and those of their gradient magnitude (`grad_norm`),
as floats, so no measurement here takes a norm twice.  The first
|grad f| request builds it slab by slab into one array
(`gradient_norms`), measures it at 1, 2, inf and the p asked, and frees
it.

Norms of the parts are taken on each part's own cylinder.  That
is exact, not an approximation.  Every torus factor has measure 1, so
the L^p norm of a part tiled onto the full grid equals its norm on its
own cylinder; along an absent direction the central difference of a
constant is exactly 0, so the gradient magnitude is bitwise the same at
every point.  Only the order of the quadrature sums changes.  The part
norms sum to at most 3**(n-1) times the field's (`norm_bound_ratio`).
"""

from __future__ import annotations

import dataclasses
from itertools import combinations

import numpy as np

from .domain import (
    DomainSpec, Field, array_norms, gradient, lp_norm, magnitude, slabs, write_json,
    write_snapshot,
)

__all__ = [
    "DecompositionResult",
    "decompose",
    "reconstruct",
    "check_membership",
    "norm_bound_ratio",
    "grad_norm",
    "level_sum",
    "gradient_norms",
    "dump_components",
]


@dataclasses.dataclass(frozen=True)
class DecompositionResult:
    """A field and its parts, each part a Field on its own cylinder.

    `parts` maps each sorted subset of torus directions (2-based,
    matching x2..xn) to the part that depends on x1 and those directions
    only, in level order.  The empty subset is the 1-d part on the line;
    the top subset is on the full grid.  `field` is the field split.
    """

    field: Field
    parts: dict[tuple[int, ...], Field]

    @property
    def spec(self) -> DomainSpec:
        return self.field.spec

    @property
    def t(self) -> float:
        return self.field.t

    def broadcast(self, subset: tuple[int, ...]) -> np.ndarray:
        """A part tiled back onto the full grid, as a read-only view."""
        return np.broadcast_to(_lift(self.spec, subset, self.parts[subset].values),
                               self.spec.shape)

    def check_split_of(self, u: Field) -> None:
        """Raise ValueError unless this is the split of u itself."""
        if self.spec != u.spec:
            raise ValueError(f"decomposition grid {self.spec} differs from field grid {u.spec}")
        if self.field is not u:
            raise ValueError("decomposition splits another field: pass decompose(u)")


def _lift(spec: DomainSpec, subset: tuple[int, ...], comp: np.ndarray) -> np.ndarray:
    """View of an array over (x1 rows, *subset directions) with a length-1
    axis for each other torus direction, so it broadcasts on the grid, or
    on a slab of its rows."""
    shape = [comp.shape[0]] + [1] * (spec.n - 1)
    for pos, d in enumerate(subset):
        shape[d - 1] = comp.shape[1 + pos]
    return comp.reshape(shape)


def _average_keep(values: np.ndarray, keep: tuple[int, ...], spec: DomainSpec) -> np.ndarray:
    """Average over every torus axis not in `keep`; squeeze those axes."""
    drop = tuple(ax for ax in range(1, spec.n) if (ax + 1) not in keep)
    return values.mean(axis=drop, keepdims=False) if drop else values


def decompose(u: Field) -> DecompositionResult:
    """Split u into the 1-d average plus zero-slice-average components.

    Level k components average (u minus all lower levels) over the
    complementary torus directions; levels are processed in increasing
    order with the running lower-level sum reused across subsets.  That
    sum adds the parts as broadcasting views: the additions, in the order,
    of adding each part tiled onto a full-grid copy.  The top part is
    u minus the sum of every lower level.

    Every step is row by row in x1, so each slab of rows (`slabs`) is
    split on its own, straight into the parts' arrays: a slab's remainder
    and lower sum are its only temporaries, and every value is bitwise
    the one the whole grid at once would give.
    """
    spec = u.spec
    if spec.n == 1:
        return DecompositionResult(field=u, parts={(): Field(spec, u.values, u.t)})
    torus_dirs = tuple(range(2, spec.n + 1))
    levels = [list(combinations(torus_dirs, k)) for k in range(spec.n)]
    specs = {s: DomainSpec(n=1 + len(s), L=spec.L, n1=spec.n1,
                           n_torus=[spec.n_torus[d - 2] for d in s])
             for level in levels for s in level}
    arrays = {s: np.empty(part.shape) for s, part in specs.items()}
    for start, stop in slabs(spec):
        _split_rows(u.values[start:stop], {s: a[start:stop] for s, a in arrays.items()},
                    levels, spec)
    return DecompositionResult(field=u, parts={
        s: Field(part, arrays[s], u.t) for s, part in specs.items()})


def _split_rows(rows: np.ndarray, out: dict, levels: list, spec: DomainSpec) -> None:
    """Split a slab of x1 rows into the same rows of every part, `out`."""
    u0 = out[()][...] = rows.mean(axis=tuple(range(1, spec.n)))
    lower_sum = _lift(spec, (), u0)
    for level in levels[1:-1]:
        remainder = rows - lower_sum
        for s in level:
            out[s][...] = _average_keep(remainder, s, spec)
        del remainder  # so the lower sum is not built beside it
        for s in level:
            lower_sum = lower_sum + _lift(spec, s, out[s])
    np.subtract(rows, lower_sum, out=out[levels[-1][0]])


def _sum_parts(d: DecompositionResult, subsets) -> np.ndarray:
    """Sum of the given parts on the full grid: zero plus each part, in
    order.  Each part is added as a broadcasting view, in place once the
    sum has all of its axes, so no part is tiled onto the full grid."""
    acc = np.zeros((1,) * d.spec.n)
    for s in subsets:
        part = _lift(d.spec, s, d.parts[s].values)
        if np.broadcast_shapes(acc.shape, part.shape) == acc.shape:
            acc += part
        else:
            acc = acc + part
    return acc if acc.shape == d.spec.shape else np.broadcast_to(acc, d.spec.shape).copy()


def reconstruct(d: DecompositionResult) -> Field:
    """Sum the 1-d part and all tiled components back into a Field."""
    return Field(d.spec, _sum_parts(d, d.parts), d.t)


def check_membership(d: DecompositionResult) -> dict:
    """Largest slice average of each component along each of its own
    directions; all of them vanish for a decomposition built here."""
    detail = {subset: {direction: float(np.max(np.abs(part.values.mean(axis=1 + pos))))
                       for pos, direction in enumerate(subset)}
              for subset, part in d.parts.items() if subset}
    worst = max((sl for per_dir in detail.values() for sl in per_dir.values()), default=0.0)
    return {"max_slice_average": worst, "per_component": detail}


def level_sum(d: DecompositionResult, k: int) -> np.ndarray:
    """Sum of all level-k components on the full grid (level 0 = 1-d part)."""
    return _sum_parts(d, (s for s in d.parts if len(s) == k))


def norm_bound_ratio(u: Field, d: DecompositionResult, m: int, p: float) -> float:
    """(sum of component norms) / (norm of u), at derivative order m.

    At most 3**(n-1): with A_d the grid mean over x_d, part S is u under
    I - A_d for each d in S and A_d for every other torus direction.
    A_d commutes with every grid derivative (along x_d both orders give
    0), so at m = 1 part S is that product applied to grad u.  A_d
    contracts the L^p norm of a vector's Euclidean length (|A_d v| <=
    A_d |v| pointwise, then Jensen), so I - A_d at most doubles it, and
    2**|S| summed over the subsets S of the n-1 torus directions is
    3**(n-1).  A constant field at m = 1 has no denominator; that case
    is reported as NaN.  `d` must be decompose(u).  At m = 1 the
    norms are the ones u and each part keep (`grad_norm`), each gradient
    magnitude built once, slab by slab, whatever the number of calls at
    p = 1, 2 and inf.

    Each part is measured on its own cylinder, not tiled onto the full
    grid.  The result is the same up to the order of the quadrature sums,
    and bitwise the same at p = inf: the torus factors have measure 1,
    and the derivative along a direction the part does not depend on is
    exactly 0.
    """
    if m not in (0, 1):
        raise ValueError(f"derivative order must be 0 or 1, got {m}")
    d.check_split_of(u)

    nrm = grad_norm if m == 1 else lp_norm
    denom = nrm(u, p)
    if denom == 0.0:
        return float("nan")
    return sum(nrm(part, p) for part in d.parts.values()) / denom


def grad_norm(f: Field, p: float) -> float:
    """L^p norm of |grad f|, kept on f beside its L^p norms.  The first
    request measures |grad f| at 1, 2, inf and p and keeps those norms;
    a later p builds |grad f| again and keeps its norm too."""
    if ("grad", p) not in f._norms:
        ps = tuple(q for q in dict.fromkeys((1.0, 2.0, np.inf, p))
                   if ("grad", q) not in f._norms)
        f._norms.update((("grad", q), x) for q, x in zip(ps, gradient_norms(f, ps)))
    return f._norms[("grad", p)]


def gradient_norms(f: Field, ps) -> list[float]:
    """L^p norms of |grad f|, one per p in ps.  |grad f| is built a slab
    of x1 rows at a time into one array, each slab from that slab's
    partials (`gradient`'s row window), and measured in place
    (`array_norms`), so neither a full-grid partial nor a second
    full-grid array is held.  Bitwise lp_norm(Field(magnitude(gradient(f))), p)."""
    out = np.empty(f.spec.shape)
    for rows in slabs(f.spec):
        out[rows[0]:rows[1]] = magnitude(gradient(f, rows))
    return array_norms(out, ps, f.spec.cell_volume, overwrite=True)


def dump_components(d: DecompositionResult, outdir) -> dict:
    """One snapshot file per component plus a JSON manifest of norms."""
    import os

    manifest = {"t": d.t, "n": d.spec.n, "components": []}
    for subset in d.parts:
        f = Field(d.spec, d.broadcast(subset), d.t)
        name = "component_" + ("_".join(str(s) for s in subset) or "0") + ".field"
        write_snapshot(f, os.path.join(outdir, name))
        manifest["components"].append(
            {"subset": list(subset), "file": name,
             "l2": lp_norm(f, 2), "linf": lp_norm(f, np.inf)}
        )
    write_json(manifest, os.path.join(outdir, "decomposition.json"))
    return manifest
