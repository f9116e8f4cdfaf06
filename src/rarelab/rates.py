"""Decay-exponent fitting and the rate checks for the cylinder runs.

Fits are least squares of log(value) against log(1+t) over a window
that excludes the early transient (default: the last nine tenths of the
run, in time).  The asserted rates are upper bounds: a series decaying
faster than predicted is consistent with the theory and is reported as
such, with a note.

`PHI_SERIES` maps each norm-table column of phi or |grad phi| to the
(which, p) of its rate in `predicted_exponent`, once: the solver's norm
row, the table's columns and the rate report are built from it.
"""

from __future__ import annotations

import numpy as np

from .domain import write_json

__all__ = [
    "PHI_SERIES",
    "log_linear_fit",
    "fit_power_law",
    "fit_window",
    "predicted_exponent",
    "verify_main_theorem",
    "verify_apriori",
    "exponent_ordering",
    "write_rate_report",
    "EXPONENT_TOL",
    "ORDERING_TOL",
    "DEGENERATE_FLOOR",
    "MIN_FIT_POINTS",
]

# tolerance on fitted exponents at the reference resolution
EXPONENT_TOL = 0.15
ORDERING_TOL = 0.1  # how far fitted exponents may invert the ordering in 1/p
DEGENERATE_FLOOR = 1e-9  # a sup distance at the solver noise floor: no fit

MIN_FIT_POINTS = 4  # fewest points a fit window may hold

# norm-table column -> (which, p): the L^p norm of phi or of |grad phi|
PHI_SERIES = {"phi_l1": ("phi", 1.0), "phi_l2": ("phi", 2.0), "phi_l4": ("phi", 4.0),
              "phi_linf": ("phi", np.inf), "grad_phi_l2": ("grad_phi", 2.0),
              "grad_phi_l4": ("grad_phi", 4.0)}


def log_linear_fit(x, times, values, window) -> tuple[float, float, float, int]:
    """Least squares of log(value) on x over the points whose time lies in
    the window; returns (slope, intercept, r^2, points used)."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    n = int(np.sum(mask))
    if n < MIN_FIT_POINTS:
        raise ValueError(f"window {window} holds {n} points; need >= {MIN_FIT_POINTS}")
    if np.any(v[mask] <= 0.0):
        raise ValueError("series must be positive inside the fit window")
    x = np.asarray(x, dtype=float)[mask]
    y = np.log(v[mask])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-24 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2, n


def fit_power_law(times, values, window) -> dict:
    """Least squares of log(value) on log(1+t) inside the window: the
    `fit` entry of a rate verdict, with keys exponent, intercept, r2,
    window and n_points."""
    t = np.asarray(times, dtype=float)
    slope, intercept, r2, n = log_linear_fit(np.log1p(t), t, values, window)
    return dict(exponent=slope, intercept=intercept, r2=r2,
                window=(float(window[0]), float(window[1])), n_points=n)


def predicted_exponent(p: float, which: str) -> float:
    """Predicted decay exponent for the perturbation norms.

    which='phi': -1/2 + 1/(2p) for p in [1, inf);
    which='grad_phi': -1 + 1/(2p) for p in [2, inf).
    The p = inf limits (-1/2 and -1) are included for the sup norm.
    """
    invp = 0.0 if np.isinf(p) else 1.0 / p
    if which == "phi":
        if not (p >= 1.0 or np.isinf(p)):
            raise ValueError(f"phi rates need p >= 1, got {p}")
        return -0.5 + 0.5 * invp
    if which == "grad_phi":
        if not (p >= 2.0 or np.isinf(p)):
            raise ValueError(f"gradient rates need p >= 2, got {p}")
        return -1.0 + 0.5 * invp
    raise ValueError(f"unknown series kind '{which}'")


def fit_window(times, window=None) -> tuple[float, float]:
    """The fit window: by default the last nine tenths of the run, in
    time.  A window that starts inside the first tenth (the transient)
    is rejected."""
    t_end = float(np.max(times))
    if window is None:
        return (t_end / 10.0, t_end)
    if window[0] < t_end / 10.0 - 1e-9:
        raise ValueError(
            f"window {tuple(window)} starts inside the transient; use t >= {t_end / 10.0:.3g}"
        )
    return tuple(window)


def _judge(times, series, predicted: float, window) -> dict:
    """Fit the window; pass when the exponent is at most predicted plus
    EXPONENT_TOL (faster decay is consistent with the one-sided bound, noted)."""
    fit = fit_power_law(times, series, window)
    report = {
        "status": "pass" if fit["exponent"] <= predicted + EXPONENT_TOL else "fail",
        "predicted": predicted,
        "tolerance": EXPONENT_TOL,
        "fit": fit,
    }
    if fit["exponent"] < predicted - EXPONENT_TOL:
        report["note"] = (
            "decay faster than the predicted bound; consistent (the rate "
            "statement is an upper bound)"
        )
    return report


def verify_main_theorem(times, distance_series, window=None) -> dict:
    """Check the sup-norm approach rate to the 1-d profile.

    The series should be |u - profile|_inf.  Passes when the fitted
    exponent is at most -1/2 + EXPONENT_TOL: the rate statement is
    one-sided, so faster decay is consistent and noted as such.  A series
    at most DEGENERATE_FLOOR is flagged degenerate and skipped.
    """
    window = fit_window(times, window)
    series = np.asarray(distance_series, dtype=float)
    if float(np.max(series)) <= DEGENERATE_FLOOR:
        return {"status": "degenerate, skip",
                "max_value": float(np.max(series)), "floor": DEGENERATE_FLOOR}
    return _judge(times, series, -0.5, window)


def verify_apriori(times, series, p: float, which: str, window=None) -> dict:
    """Check one perturbation norm against its predicted rate.

    For p = 1 the prediction is boundedness, checked as max/min <= 3
    over the window; otherwise the fitted exponent must not exceed the
    predicted one by more than EXPONENT_TOL (faster decay is consistent).
    """
    window = fit_window(times, window)
    if which == "phi" and p == 1.0:
        t = np.asarray(times, dtype=float)
        vals = np.asarray(series, dtype=float)[(t >= window[0]) & (t <= window[1])]
        if vals.size < 2 or np.any(vals <= 0.0):
            raise ValueError("need a positive series inside the window")
        ratio = float(np.max(vals) / np.min(vals))
        return {
            "status": "pass" if ratio <= 3.0 else "fail",
            "predicted": 0.0,
            "max_over_min": ratio,
            "window": tuple(float(w) for w in window),
        }
    return _judge(times, series, predicted_exponent(p, which), window)


def exponent_ordering(fits: dict) -> dict:
    """Check fitted exponents follow the predicted ordering in 1/p.

    `fits` maps p (possibly inf) to fitted exponents.  The predicted
    exponent -1/2 + 1/(2p) increases with 1/p, so the fitted values must
    not invert that ordering by more than ORDERING_TOL.
    """
    ps = sorted(fits, key=lambda p: 0.0 if np.isinf(p) else 1.0 / p)
    pairs = []
    for lo_p, hi_p in zip(ps[:-1], ps[1:]):
        # hi_p has the larger 1/p, hence the larger predicted exponent
        gap = fits[hi_p] - fits[lo_p]
        pairs.append({"steeper_p": lo_p if not np.isinf(lo_p) else "inf",
                      "shallower_p": hi_p, "gap": gap})
    failed = any(pair["gap"] < -ORDERING_TOL for pair in pairs)
    return {"status": "fail" if failed else "pass", "pairs": pairs, "tolerance": ORDERING_TOL}


def write_rate_report(report: dict, path) -> None:
    write_json(report, path)
