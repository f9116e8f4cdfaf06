"""Empirical studies of the interpolation inequalities on the cylinder.

The plain n-dimensional Gagliardo-Nirenberg inequality fails on the
cylinder: dilating a 1-d bump sends the Sobolev-quotient to infinity at
a known power of the dilation.  Splitting a field by torus averaging
(see `decomp`) repairs it: each split level satisfies the inequality of
its own effective dimension.  This module measures all of those
quotients on corpora of fields and reproduces the two dilation scalings
with their exact exponents.

All constants are treated as existence statements: the lab records
corpus maxima and verifies boundedness and scale invariance, never a
specific constant.  No field is assumed to decay along the line, so
`solve_theta` always excludes the exceptional family that needs it.
"""

from __future__ import annotations

import numpy as np

from .decomp import DecompositionResult, decompose, grad_norm, level_sum
from .domain import (
    DomainSpec, Field, array_norms, derivative, gradient, lp_norm, magnitude, make_grid,
    overwritable, second_derivative, slabs,
)

__all__ = [
    "solve_theta",
    "gn_ratio",
    "interpolation_ratio",
    "check_interpolation_exponents",
    "dilated_sobolev_ratio",
    "dilated_gn_ratio",
    "dilation_slope",
    "gaussian_bump",
    "hat_bump",
    "dilated_line_field",
    "chain_rule_power_gradient",
]


def _inv(x: float) -> float:
    return 0.0 if np.isinf(x) else 1.0 / x


def solve_theta(j: int, m: int, p: float, q: float, r: float, k: int):
    """Interpolation weight for the effective-dimension-(k+1) inequality.

    Solves 1/p = j/(k+1) + (1/r - m/(k+1)) theta + (1 - theta)/q for
    theta and returns None when the result leaves [j/m, 1] or hits one
    of the two exceptional parameter families:

    1) j = 0, r m < k+1, q = infinity (needs decay of u along the line);
    2) theta = 1 with 1 < r < infinity and m - j - (k+1)/r a
       non-negative integer.
    """
    if j < 0 or m < 1 or j >= m:
        raise ValueError(f"need 0 <= j < m with m >= 1, got j={j}, m={m}")
    for name, val in (("p", p), ("q", q), ("r", r)):
        if not (val >= 1.0 or np.isinf(val)):
            raise ValueError(f"{name} must be >= 1 or infinity, got {val}")
    dim = k + 1
    coeff = _inv(r) - m / dim - _inv(q)
    rhs = _inv(p) - j / dim - _inv(q)
    if abs(coeff) < 1e-14:
        if abs(rhs) > 1e-14:
            return None
        theta = j / m  # any weight works; report the smallest admissible
    else:
        theta = rhs / coeff
    if theta < j / m - 1e-12 or theta > 1.0 + 1e-12:
        return None
    theta = min(max(theta, j / m), 1.0)
    if j == 0 and np.isinf(q) and not np.isinf(r) and r * m < dim:
        return None
    if 1.0 < r < np.inf and theta >= 1.0 - 1e-12:
        gap = m - j - dim / r
        if gap >= -1e-12 and abs(gap - round(gap)) < 1e-12:
            return None
    return float(theta)


def _deriv_norm(f: Field, order: int, p: float) -> float:
    """L^p norm of the pointwise Euclidean size of all order-th partial
    derivatives of f, kept on f up to order 1.  A magnitude is measured
    in its own array (`array_norms`), never wrapped in a Field."""
    if order == 0:
        return lp_norm(f, p)
    if order == 1:
        return grad_norm(f, p)
    if order == 2:
        # `magnitude` of the Hessian, row by row: the pure second partial
        # first, then the mixed ones.  Each component is squared and added
        # into the first one's buffer and freed, and each first partial
        # once its row is done, so the sum is magnitude's bit for bit
        # and at most one partial and one component are held beside it.
        def add_square(acc, c):
            sq = np.multiply(c, c, out=c)
            if acc is None:
                return sq
            acc += sq
            return acc

        acc = None
        for i in range(f.spec.n):
            acc = add_square(acc, second_derivative(f, i))
            partial = f.with_values(derivative(f, i))
            for j in range(f.spec.n):
                if j != i:
                    acc = add_square(acc, derivative(partial, j))
            del partial
        hessian = np.sqrt(acc, out=acc)
        return array_norms(hessian, (p,), f.spec.cell_volume, overwrite=True)[0]
    raise ValueError(f"derivative order {order} not supported (max 2)")


def gn_ratio(u: Field, j: int, m: int, p: float, q: float, r: float,
             d: DecompositionResult | None = None) -> dict:
    """Per-level interpolation quotients for one exponent set.

    For each split level k the left side uses the level sum; the right
    side uses the whole field with the level's own weight.  Levels with
    an infeasible weight are skipped; a zero right side is flagged.

    A level with a single part (level 0 and the top level) is measured
    on that part's own cylinder, which is exact up to the order of the
    quadrature sums, as in `decomp.norm_bound_ratio`.  A level of several
    parts is summed onto the full grid on each call and measured in that
    array.  A given `d` must be decompose(u), whose parts keep their
    norms, as u does (`decomp.grad_norm`).
    """
    if d is None:
        d = decompose(u)
    else:
        d.check_split_of(u)
    rhs_m = _deriv_norm(u, m, r)
    rhs_0 = lp_norm(u, q)
    out = {"ratios": {}, "theta": {}, "flags": []}
    for k in range(u.spec.n):
        theta = solve_theta(j, m, p, q, r, k)
        out["theta"][k] = theta
        if theta is None:
            out["flags"].append(f"level {k}: infeasible exponents, skipped")
            continue
        level = [s for s in d.parts if len(s) == k]
        if len(level) == 1:
            lhs = _deriv_norm(d.parts[level[0]], j, p)
        elif j == 0:
            lhs = array_norms(level_sum(d, k), (p,), u.spec.cell_volume, overwrite=True)[0]
        else:
            lhs = _deriv_norm(Field(u.spec, level_sum(d, k), u.t), j, p)
        if lhs == 0.0:
            out["ratios"][k] = 0.0
            continue
        denom = rhs_m**theta * rhs_0 ** (1.0 - theta)
        if denom == 0.0:
            out["ratios"][k] = float("inf")
            out["flags"].append(f"level {k}: zero right-hand side")
            continue
        out["ratios"][k] = lhs / denom
    return out


def chain_rule_power_gradient(values: np.ndarray, derivs, power: float) -> list[np.ndarray]:
    """Components of grad(|v|**power) for finite power >= 1, without
    differencing across the sign kink: power * |v|**(power-1) * sign(v)
    * grad(v).  Where v vanishes the factor is 0 for power > 1 and has
    magnitude 1 for power = 1, since |grad |v|| = |grad v| across a
    simple zero.

    Takes ownership of the partials, as `magnitude` does: each one is
    scaled in place and returned, unless they are not all `overwritable`,
    when none is written and the results are new arrays.  The factor is
    one array, built in the order of np.where(|v| > 0, power *
    |v|**(power-1) * sign(v), at_zero); off the zeros it is never NaN or
    negative, so copying v's sign onto it is bitwise the product with
    sign(v).
    """
    if not 1.0 <= power < np.inf:
        raise ValueError(f"power must be finite and >= 1, got {power}")
    factor = np.abs(values, dtype=float)
    zero = ~(factor > 0.0)
    factor **= power - 1.0
    factor *= power
    np.copysign(factor, values, out=factor)
    factor[zero] = 1.0 if power == 1.0 else 0.0
    derivs = list(derivs)
    outs = derivs if overwritable(derivs) else [None] * len(derivs)
    return [np.multiply(factor, dv, out=o) for dv, o in zip(derivs, outs)]


def _power_gradient_magnitude(u: Field, power: float) -> np.ndarray:
    """|grad(|u|**power)| in one new array, bitwise
    magnitude(chain_rule_power_gradient(u.values, gradient(u), power)).

    It is built a slab of x1 rows at a time (`slabs`), each from that
    slab's rows of the partials (`gradient`'s row window), so no
    full-grid partial is ever held.
    """
    out = np.empty(u.spec.shape)
    for start, stop in slabs(u.spec):
        partials = chain_rule_power_gradient(u.values[start:stop], gradient(u, (start, stop)),
                                             power)
        out[start:stop] = magnitude(partials)
        del partials  # so the next slab's partials are not built beside these
    return out


def _power_gradient_norm(u: Field, power: float) -> float:
    """L^2 norm of |grad(|u|**power)|, measured in the array that holds it.
    At power 1 the chain-rule factor is +-1 (1 at zeros), which the
    magnitude squares away: the norm is u's own kept |grad u|_2."""
    if power == 1.0:
        return grad_norm(u, 2.0)
    return array_norms(_power_gradient_magnitude(u, power), (2.0,), u.spec.cell_volume,
                       overwrite=True)[0]


def check_interpolation_exponents(p: float, q: float) -> None:
    """Raise ValueError unless 2 <= p < inf and 1 <= q <= p, the exponent
    range of `interpolation_ratio`."""
    if not (2.0 <= p < np.inf):
        raise ValueError(f"p must lie in [2, inf), got {p}")
    if not (1.0 <= q <= p):
        raise ValueError(f"q must lie in [1, p], got {q}")


def interpolation_ratio(u: Field, p: float, q: float) -> dict:
    """Quotient of the norm against the split-level gradient-power sum.

    The right side is a sum over levels k of
    |grad(|u|^(p/2))|_2 ** (2 g_k / (1 + g_k p)) * |u|_q ** (1/(1 + g_k p))
    with g_k = (k+1)/2 (1/q - 1/p); both exponents scale so the quotient
    is invariant under u -> lambda u.

    |u|^(p/2) can overflow where u does not (p = 2000 and |u| = 2).  Then
    the quotient is taken of u / max|u|, whose power stays at most 1, and
    both sides are scaled back by max|u|: the exponents of each summand
    add up to 1, so each side is homogeneous of degree 1 in u.
    """
    check_interpolation_exponents(p, q)
    with np.errstate(over="ignore", invalid="ignore"):
        gnorm = _power_gradient_norm(u, p / 2.0)
    scale, v = 1.0, u
    if not np.isfinite(gnorm):
        scale = lp_norm(u, np.inf)
        v = u.with_values(u.values / scale)
        gnorm = _power_gradient_norm(v, p / 2.0)
    uq = lp_norm(v, q)
    lhs = lp_norm(v, p)
    rhs = 0.0
    detail = {}
    for k in range(u.spec.n):
        gk = 0.5 * (k + 1) * (_inv(q) - _inv(p))
        e_grad = 2.0 * gk / (1.0 + gk * p)
        e_q = 1.0 / (1.0 + gk * p)
        rhs += gnorm**e_grad * uq**e_q
        detail[k] = {"gamma": gk, "grad_exponent": e_grad, "norm_exponent": e_q}
    out = {"lhs": scale * lhs, "rhs": scale * rhs, "detail": detail}
    out["ratio"] = float("nan") if rhs == 0.0 else lhs / rhs
    if rhs == 0.0:
        out["flag"] = "zero right-hand side"
    return out


# --- dilation counterexamples ------------------------------------------------

HALFWIDTH = 8.0  # the sampled line is [-HALFWIDTH d, HALFWIDTH d] at dilation d


def gaussian_bump(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2)


def hat_bump(x):
    """Piecewise-linear hat; its norms are exactly computable by hand."""
    x = np.asarray(x, dtype=float)
    return np.maximum(0.0, 1.0 - np.abs(x))


def dilated_line_field(d: float, profile=gaussian_bump, points: int = 4001) -> Field:
    """The 1-d profile stretched by d, sampled on a grid scaled with d.

    Scaling the grid with the dilation keeps the sample values identical
    across d, so measured norms carry d-independent quadrature errors
    and dilation exponents come out exact.
    """
    if d <= 0:
        raise ValueError(f"dilation must be positive, got {d}")
    spec = DomainSpec(n=1, L=HALFWIDTH * d, n1=points)
    vals = np.asarray(profile(make_grid(spec).x1 / d), dtype=float)
    edge = max(abs(vals[0]), abs(vals[-1]))
    body = float(np.max(np.abs(vals)))
    if body > 0 and edge > 1e-10 * body:
        raise ValueError(
            f"profile tails {edge:.3e} exceed 1e-10 of the peak: widen the grid"
        )
    return Field(spec, vals)


def dilated_sobolev_ratio(d: float, profile=gaussian_bump, n: int = 2, points: int = 4001) -> dict:
    """Sobolev quotient of the dilated bump on the n-cylinder.

    Returns the measured quotient |z|_{n/(n-1)} / |grad z|_1 (the torus
    factors contribute measure one), its value at d = 1 (`at_d1`) and
    the predicted d**((n-1)/n) growth of that constant.
    """
    if n < 2:
        raise ValueError("the cylinder setting needs n >= 2")
    f = dilated_line_field(d, profile, points)
    p = n / (n - 1.0)
    num = lp_norm(f, p)
    den = lp_norm(f.with_values(gradient(f)[0]), 1)
    ref = dilated_line_field(1.0, profile, points)
    c_ref = lp_norm(ref, p) / lp_norm(ref.with_values(gradient(ref)[0]), 1)
    return {
        "d": d,
        "measured": num / den,
        "predicted": d ** ((n - 1.0) / n) * c_ref,
        "at_d1": c_ref,
        "exponent": (n - 1.0) / n,
    }


def dilated_gn_ratio(d: float, theta: float, profile=gaussian_bump, points: int = 4001) -> dict:
    """Two-norm interpolation quotient of the dilated bump.

    |z|_2 / (|grad z|_2^theta |z|_1^(1-theta)) grows like
    d**((3 theta - 1)/2); the quotient is dilation-free only at
    theta = 1/3.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    f = dilated_line_field(d, profile, points)
    num = lp_norm(f, 2)
    den = lp_norm(f.with_values(gradient(f)[0]), 2) ** theta * lp_norm(f, 1) ** (1.0 - theta)
    return {
        "d": d,
        "measured": num / den if den > 0 else np.inf,  # |z'|^2 may underflow to 0
        "exponent": 0.5 * (3.0 * theta - 1.0),
    }


def dilation_slope(ds, values) -> float:
    """Least-squares log-log slope of a dilation study."""
    ds = np.asarray(ds, dtype=float)
    values = np.asarray(values, dtype=float)
    if ds.size < 2:
        raise ValueError("need at least two dilations")
    slope, _ = np.polyfit(np.log(ds), np.log(values), 1)
    return float(slope)
