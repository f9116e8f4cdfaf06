"""Config-driven experiment runner.

Subcommands: simulate, profile, periodic, decompose, gn-study,
counterexample, rates, validate.  Configs are flat key = value text
(dotted prefixes group related keys, '#' starts a comment).  Each
experiment is an input stage, which turns a config into checked inputs
or raises, and a run stage, which takes those inputs.  The input stage
reads every number with `_number` or `_numbers`, so a bad one is a
config error that names its key ("<key> must be ..., got '<raw>'").  A
marching experiment (simulate, profile, periodic) then draws its plan
once, with its solver's `schedule`, which for simulate is also the one
check of the cylinder config; the run stage marches that plan.  A run
stage returns its verdicts and manifest fields, and `run_experiment`
then writes the manifest, which digests every file the run wrote
(config hash, versions, wall time), and exits 3 if a verdict reads
'fail'.  `validate` runs the input stage only and rejects what the run
would reject.  Random fields (decompose, gn-study) come from the config
key `seed` (an integer >= 0, default 0).  Exit codes: 0 ok, 1 config or
usage error, 2 numerical abort (CFL or window guard), 3 a failed verdict.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
import time

import numpy as np

try:  # the interpreter's own SHA-256: hashlib would map OpenSSL's libcrypto (4 MB)
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 - 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from ._lapack import SCIPY_VERSION
from .decomp import check_membership, decompose, dump_components, norm_bound_ratio, reconstruct
from .domain import (
    DomainSpec, Field, check_gradient_grid, edge_mass, make_grid, truncation, write_json,
    write_snapshot, write_table,
)
from .errors import ConfigError, NumericalAbort
from .fluxes import FluxSet, burgers, cubic, linear_flux
from .ineqlab import (
    check_interpolation_exponents,
    dilated_gn_ratio,
    dilated_sobolev_ratio,
    dilation_slope,
    gaussian_bump,
    gn_ratio,
    hat_bump,
    interpolation_ratio,
    solve_theta,
)
from .mdsolver import (
    NORM_COLUMNS, SolverConfig, _disturbance_bound, mode_problems,
    run as run_solver, schedule as solver_schedule, trig_polynomial, write_norm_table,
)
from .periodic import (
    PERIODIC_COLUMNS, TorusSpec, schedule as torus_schedule, solve_periodic,
    write_periodic_series,
)
from .profile1d import (
    PROFILE_COLUMNS, evolve_profile, inviscid_rarefaction, make_initial_state,
    schedule as profile_schedule, write_profile_series,
)
from .rates import (
    DEGENERATE_FLOOR,
    MIN_FIT_POINTS,
    PHI_SERIES,
    exponent_ordering,
    fit_power_law,
    fit_window,
    log_linear_fit,
    predicted_exponent,
    verify_apriori,
    verify_main_theorem,
    write_rate_report,
)
from .stepping import DiffusionSweep

__all__ = ["parse_config", "load_config", "run_experiment", "validate", "main"]


MAX_SNAPSHOTS = 10**6  # most times a geometric snapshot list may hold


class RatesFailure(RuntimeError):
    """A rate check came out 'fail' (CLI exit code 3)."""


# --- config ------------------------------------------------------------------

def parse_config(text: str) -> dict[str, str]:
    """Flat key = value lines; '#' comments; later keys win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def load_config(path) -> dict[str, str]:
    try:
        with open(path, errors="replace") as fh:  # a stray byte fails as a bad line
            return parse_config(fh.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}") from e


def _number(cfg: dict[str, str], key: str, default: str | None = None, kind=float,
            finite: bool = True, least: int | None = None):
    """cfg[key] (or `default`; None if both are missing) read as one `kind`, int or float:
    a float must be finite unless `finite` is false, and any number at least `least`."""
    raw = cfg.get(key, default)
    if raw is None:
        return None
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                         f"got '{raw}'") from None
    if kind is float and finite and not np.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    if least is not None and value < least:
        raise ValueError(f"{key} must be at least {least}, got {value}")
    return value


def _numbers(key: str, raw: str, kind=float) -> list:
    """The entries of `raw`, the value of `key` or a part of it, split at ','
    or ';' and read as `kind`, int or float; every float must be finite."""
    try:
        values = [kind(tok) for tok in raw.replace(";", ",").split(",") if tok.strip()]
        if kind is float and not np.isfinite(values).all():
            raise ValueError
    except ValueError:
        noun = "integers" if kind is int else "finite numbers"
        raise ValueError(f"{key} entries must be {noun}, got '{raw}'") from None
    return values


def _modes(s: str) -> tuple[tuple[float, ...], ...]:
    """w0_modes 'k1,k2,amp; k1,k2,amp' -> ((k1,k2,amp), ...), every entry finite."""
    return tuple(tuple(_numbers("w0_modes", row)) for row in s.split(";") if row.strip())


def _v0_from_spec(s: str):
    s = s.strip().lower()
    if s in ("", "none", "0"):
        return None
    if s.startswith("gaussian:"):
        params = _numbers("v0", s.split(":", 1)[1])
        if len(params) != 3 or not params[2] > 0:
            raise ValueError(f"v0 needs finite gaussian:amp,center,width with width > 0, got '{s}'")
        amp, center, width = params

        def v0(x):
            with np.errstate(over="ignore", under="ignore"):  # far tails are 0, not warnings
                return amp * np.exp(-(((np.asarray(x) - center) / width) ** 2))
        return v0
    raise ValueError(f"unknown v0 spec '{s}' (use none or gaussian:amp,center,width)")


def _snapshot_times(spec: str, t_end: float) -> tuple[float, ...]:
    """'auto' = fine prefix + log-spaced decades; 'geometric:t0,ratio', at
    most MAX_SNAPSHOTS times t0 ratio^i up to t_end; or an explicit list.
    Without a positive t_end 'auto' is empty: the step schedule rejects
    that t_end."""
    spec = spec.strip().lower()
    if spec in ("", "auto"):
        if not t_end > 0:
            return ()
        prefix = list(np.arange(0.1, min(1.0, t_end), 0.1))
        decades = list(np.geomspace(max(t_end / 100.0, 1.0), t_end, 33))
        times = sorted(set(round(t, 6) for t in prefix + decades + [t_end]))
        return tuple(t for t in times if 0 < t <= t_end)
    if spec.startswith("geometric:"):
        pair = _numbers("snapshots", spec.split(":", 1)[1])
        if len(pair) != 2 or not (pair[0] > 0 and pair[1] > 1):
            raise ValueError(f"snapshots must be geometric:t0,ratio with t0 > 0 and ratio > 1, "
                             f"got '{spec}'")
        t0, ratio = pair
        bound = min(t_end * (1 + 1e-9), sys.float_info.max)  # t overflows to inf beyond it
        count = (math.floor((math.log(bound) - math.log(t0)) / math.log(ratio)) + 1
                 if bound >= t0 else 0)
        if count > MAX_SNAPSHOTS:
            raise ValueError(f"snapshots '{spec}' up to t_end = {t_end:g} holds about {count:.3g} "
                             f"times, more than {MAX_SNAPSHOTS}")
        times, t = [], t0
        while t <= bound:
            times.append(min(t, t_end))
            t *= ratio
        return tuple(times)
    return tuple(sorted(set(_numbers("snapshots", spec))))


def _flux(cfg: dict[str, str], n: int) -> FluxSet:
    """The flux set that the config key `flux` names, in n directions:
    burgers (the default), cubic or linear:c1,..,cn, whose speeds are
    read with `_numbers`."""
    name = cfg.get("flux", "burgers").strip().lower()
    kind, colon, speeds = name.partition(":")
    if kind == "linear" and colon:
        return linear_flux(n, _numbers("flux", speeds))
    if name == "burgers":
        return burgers(n)
    if name == "cubic":
        return cubic(n)
    raise ValueError(f"unknown flux '{name}' (try burgers, cubic, linear:c1,..,cn)")


def _window(cfg: dict[str, str]):
    """rates.window as (lo, hi), or None for the default fit window."""
    if "rates.window" not in cfg:
        return None
    window = tuple(_numbers("rates.window", cfg["rates.window"]))
    if len(window) != 2 or not window[0] < window[1]:
        raise ValueError(f"rates.window must be two times lo < hi, got {window}")
    return window


def _domain(cfg: dict[str, str], dim: str, L: str, n1: str, m: str) -> DomainSpec:
    """The cylinder grid of a config (keys dim, L, n1, n_torus); without
    n_torus each of the (at most two) torus directions gets m cells."""
    n = _number(cfg, "dim", dim, int)
    n_torus = tuple(_numbers("n_torus", cfg.get("n_torus", ",".join([m] * min(n - 1, 2))), int))
    return DomainSpec(n, _number(cfg, "L", L, finite=False), _number(cfg, "n1", n1, int), n_torus)


def solver_config_from_dict(cfg: dict[str, str]) -> SolverConfig:
    """The solver config of a simulate config; ValueError on a value that
    does not parse."""
    spec = _domain(cfg, "2", "80", "3200", "20")
    t_end = _number(cfg, "t_end", "100")
    return SolverConfig(
        spec=spec,
        flux=_flux(cfg, spec.n),
        ul=_number(cfg, "ul", "-0.5"),
        ur=_number(cfg, "ur", "0.5"),
        w0_modes=_modes(cfg.get("w0_modes", "")),
        v0=_v0_from_spec(cfg.get("v0", "none")),
        t_end=t_end,
        snapshot_times=_snapshot_times(cfg.get("snapshots", "auto"), t_end),
        dt=_number(cfg, "dt"),
    )


# --- artifact helpers ---------------------------------------------------------

def _sha256(path) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class _Outputs:
    def __init__(self, outdir, cfg_text: str, kind: str):
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create output directory {outdir}: {e.strerror}") from e
        self.outdir = outdir
        self.cfg_text = cfg_text
        self.kind = kind
        self.t0 = time.perf_counter()
        self.files: list[str] = []

    def path(self, name: str) -> str:
        self.files.append(name)
        return os.path.join(self.outdir, name)

    def json(self, name: str, obj) -> None:
        write_json(obj, self.path(name))

    def finish(self, fields: dict) -> None:
        manifest = {
            "version": __version__,
            "numpy": np.__version__,
            "scipy": SCIPY_VERSION,
            "config_sha256": sha256(self.cfg_text.encode()).hexdigest(),
            "wall_seconds": time.perf_counter() - self.t0,
            "files": {name: _sha256(os.path.join(self.outdir, name)) for name in self.files},
            "experiment": self.kind,
            **fields,
        }
        write_json(manifest, os.path.join(self.outdir, "manifest.json"))


_PLOT_HEADER = (
    'set datafile separator ","\n'
    "set logscale xy\n"
    "set key left bottom\n"
    'set xlabel "1 + t"\n'
)


def _write_decay_plot(path, csv_name: str, header, columns: dict, guides: dict[str, float]):
    """Gnuplot script: log-log curves of the `header` columns named in `columns`, plus guides."""
    lines = [_PLOT_HEADER, f'set ylabel "norm"\n']
    plots = []
    for label, name in columns.items():
        col = header.index(name) + 1  # gnuplot counts columns from 1
        plots.append(f'"{csv_name}" using (1+$1):{col} with linespoints title "{label}"')
    for label, slope in guides.items():
        plots.append(f"x**({slope}) title \"guide {label}: slope {slope}\"")
    lines.append("plot " + ", \\\n     ".join(plots) + "\n")
    with open(path, "w") as fh:
        fh.writelines(lines)


# --- experiments: an input stage and a run stage each -------------------------

def _rate_report(table, window, truncated_at) -> dict:
    """Every rate verdict, from the exported norm-table columns and the
    run's `truncated_at` (None: never) alone, so that `rates` on a simulate
    run's norms.csv reproduces its verdicts.  A fit window that reaches
    truncated_at turns every status but "degenerate, skip" to "truncated",
    neither pass nor fail.  A column missing or not finite is a config error."""
    try:
        cols = {name: np.asarray(table[name], dtype=float) for name in NORM_COLUMNS}
        for name, col in cols.items():
            if not np.isfinite(col).all():
                raise ValueError(f"column {name} entries must be finite numbers")
        times = cols["t"]
        window = fit_window(times, window)
        report = {"main_rate": verify_main_theorem(times, cols["u_minus_profile_linf"], window)}
        fits = {}  # the ordering in 1/p is checked on the phi norms' fits
        for col, (which, p) in PHI_SERIES.items():
            report[col] = verify_apriori(times, cols[col], p, which, window)
            if which == "phi":  # phi_l1's verdict is a max/min ratio, without a fit
                fits[p] = (report[col]["fit"]["exponent"] if "fit" in report[col]
                           else fit_power_law(times, cols[col], window)["exponent"])
    except ValueError as e:
        raise ConfigError(f"rate report: {e}") from e
    report["ordering"] = exponent_ordering(fits)
    if truncated_at is not None and window[1] >= truncated_at:
        for verdict in report.values():
            if verdict["status"] != "degenerate, skip":
                verdict["status"] = "truncated"
    return report


def _simulate_inputs(cfg: dict[str, str]):
    """(solver config, plan, fit window), the plan drawn once by the
    solver's `schedule`, which checks the config and raises its findings.
    The window must clear the transient and hold enough of the times the
    run records, its snapshot times rounded to the step grid, so a bad one
    fails before the solve.  A dt above the stable step of the initial data
    is a config error too, so `validate` reports it, and so is a run without
    a disturbance, whose phi norms are 0 and fit nothing: one whose sampled
    size (`mdsolver._disturbance_bound`) is at most the noise floor the rate
    report skips, `DEGENERATE_FLOOR`."""
    sc, window = solver_config_from_dict(cfg), _window(cfg)
    _, dt, record = plan = solver_schedule(sc)
    times = [idx * dt for idx in sorted(record)]
    lo, hi = fit_window(times, window)
    if sum(lo <= t <= hi for t in times) < MIN_FIT_POINTS:
        raise ValueError(f"window ({lo:g}, {hi:g}) holds under {MIN_FIT_POINTS} snapshot times")
    if not _disturbance_bound(sc) > DEGENERATE_FLOOR:
        raise ValueError("simulate needs a disturbance: a w0_modes row with a nonzero "
                         "amplitude, or v0")
    return sc, plan, window


def _exp_simulate(out: _Outputs, sc: SolverConfig, plan, window) -> tuple[dict, dict]:
    series, checks = run_solver(sc, plan)
    write_norm_table(series, out.path("norms.csv"))
    report = _rate_report(series, window, checks["truncated_at"])
    for key in ("max_principle_violation", "boundary_mismatch"):  # the rest go to the manifest
        report[key] = checks.pop(key)
    write_rate_report(report, out.path("rates.json"))
    curves = {f"|{which.replace('_', ' ')}|_{p:g}": col
              for col, (which, p) in PHI_SERIES.items() if col != "grad_phi_l4"}
    guides = {f"{which}_{p:g}": predicted_exponent(p, which)
              for which, p in (PHI_SERIES[col] for col in ("phi_linf", "phi_l2", "grad_phi_l2"))}
    _write_decay_plot(out.path("plots.gp"), "norms.csv", NORM_COLUMNS,
                      {**curves, "|u-profile|_inf": "u_minus_profile_linf"}, guides)
    return report, {"steps": plan[0], "dt": plan[1], **checks}


def _profile_inputs(cfg: dict[str, str]):
    """(initial state, flux, plan) of a profile config: the run's step
    schedule, which records t_end."""
    t_end = _number(cfg, "t_end", "100")
    p0 = make_initial_state(_number(cfg, "L", "120", finite=False), _number(cfg, "n1", "4800", int),
                            _number(cfg, "ul", "-0.5"), _number(cfg, "ur", "0.5"))
    flux = _flux(cfg, 1)
    flux.check_convexity(p0.ul, p0.ur)
    snaps = _snapshot_times(cfg.get("snapshots", "geometric:1,2"), t_end)
    return p0, flux, profile_schedule(p0, flux, t_end, snaps)


def _exp_profile(out: _Outputs, p0, flux, plan) -> tuple[dict, dict]:
    spec = p0.spec
    states = list(evolve_profile(p0, flux, plan, DiffusionSweep(spec.n1, spec.dx1, plan[1] / 2.0)))
    rows = write_profile_series(states, out.path("profile_series.csv"))
    last = states[-1]
    write_snapshot(last, out.path("profile_final.field"))
    exact = inviscid_rarefaction(make_grid(last.spec).x1, last.t, flux, last.ul, last.ur)
    out.json("profile_summary.json", {
        "t_final": last.t,
        "sup_distance_to_fan": float(np.max(np.abs(last.values - exact))),
        "oleinik_product": rows[-1]["t_max_slope"],
    })
    _write_decay_plot(out.path("plots.gp"), "profile_series.csv", PROFILE_COLUMNS,
                      {"max_slope": "max_slope", "slope_l2": "slope_l2"}, {"slope": -1.0})
    period = math.ceil(spec.n1 / (2.0 * spec.L))  # the cells of a unit period, ceil(1 / dx1)
    return {}, truncation([(st.t, max(edge_mass(st.values, (st.ul, st.ur), period, spec.dx1)))
                           for st in states])


def _periodic_inputs(cfg: dict[str, str]):
    """(disturbance, torus grid, flux, ubar, plan) of a periodic config,
    its rows checked first, by the mode rules; the plan is the run's step schedule, by
    default with 100 snapshots spaced evenly up to t_end."""
    tspec = TorusSpec(sizes=tuple(_numbers("sizes", cfg.get("sizes", "32,32"), int)))
    flux = _flux(cfg, tspec.ndim)
    ubar, t_end, dt = _number(cfg, "ubar", "-0.5"), _number(cfg, "t_end", "0.5"), _number(cfg, "dt")
    modes = _modes(cfg.get("w0_modes", "1,1,0.1"))
    if problems := mode_problems(modes, tspec.sizes):
        raise ValueError("; ".join(problems))
    w0 = trig_polynomial(modes, tspec.coordinates())
    snaps = (_snapshot_times(cfg["snapshots"], t_end) if "snapshots" in cfg
             else tuple(np.linspace(t_end / 100.0, t_end, 100)))
    return w0, tspec, flux, ubar, torus_schedule(w0, ubar, flux, tspec, t_end, snaps, dt)


def _exp_periodic(out: _Outputs, w0, tspec, flux, ubar, plan) -> tuple[dict, dict]:
    states = solve_periodic(w0, ubar, flux, tspec, plan)
    norms = np.array(write_periodic_series(states, ubar, out.path("periodic_series.csv")))
    ts = np.array([t for t, _ in states])
    sups, w1inf = norms[:, 0], np.max(norms, axis=1)
    inside = (sups >= 1e-10) & (sups <= 1e-2)
    report = {"sup_initial": float(np.max(np.abs(w0))), "sup_final": float(sups[-1])}
    if int(np.sum(inside)) >= MIN_FIT_POINTS:
        lo, hi = float(np.min(ts[inside])), float(np.max(ts[inside]))
        # w1inf ~ exp(-2 alpha t): the disturbance decays at twice its source term's rate alpha
        slope, _, r2, _ = log_linear_fit(ts, ts, w1inf, (lo, hi))
        report.update({"alpha": -0.5 * slope, "rate_2alpha": -slope, "r2": r2,
                       "window": [lo, hi]})
    out.json("periodic_decay.json", report)
    sup, grad = (PERIODIC_COLUMNS.index(name) + 1 for name in ("w_sup", "grad_w_sup"))
    with open(out.path("plots.gp"), "w") as fh:
        fh.write('set datafile separator ","\nset logscale y\n'
                 f'plot "periodic_series.csv" using 1:{sup} with lines title "sup|w|",'
                 f' "" using 1:{grad} with lines title "sup|grad w|"\n')
    return {}, {}


def _random_cylinder_field(spec: DomainSpec, rng: np.random.Generator) -> Field:
    grid = make_grid(spec)
    mesh = np.meshgrid(grid.x1, *grid.torus, indexing="ij")
    vals = np.zeros(spec.shape)
    for _ in range(5):
        amp = rng.standard_normal()
        term = np.full(spec.shape, amp)
        decay = np.exp(-((mesh[0] / (0.5 * spec.L)) ** 2))
        term = term * decay * np.cos(
            rng.integers(0, 3) * np.pi * mesh[0] / spec.L + rng.uniform(0, 2 * np.pi))
        for ax in range(1, spec.n):
            k = int(rng.integers(0, 4))
            term = term * np.cos(2 * np.pi * k * mesh[ax] + rng.uniform(0, 2 * np.pi))
        vals += term
    return Field(spec, vals)


def _seeded(cfg: dict[str, str]):
    """(seed, its generator) of a config that draws random fields.  The
    generator is drawn in the input stage, so numpy.random (10-15 ms and
    6 MB to load) loads before the run stage, which imports nothing."""
    seed = _number(cfg, "seed", "0", int, least=0)
    return seed, np.random.default_rng(seed)


def _decompose_inputs(cfg: dict[str, str]):
    """(grid, number of fields, seed, its generator) of a decompose config."""
    spec = _domain(cfg, "3", "2", "16", "8")
    check_gradient_grid(spec)
    return spec, _number(cfg, "n_fields", "50", int, least=1), *_seeded(cfg)


def _exp_decompose(out: _Outputs, spec: DomainSpec, n_fields: int, seed: int,
                   rng) -> tuple[dict, dict]:
    worst = {"reconstruction": 0.0, "membership": 0.0, "ratio": 0.0}
    for _ in range(n_fields):
        f = _random_cylinder_field(spec, rng)
        d = decompose(f)
        rec = reconstruct(d)
        scale = max(1e-300, float(np.max(np.abs(f.values))))
        worst["reconstruction"] = max(
            worst["reconstruction"],
            float(np.max(np.abs(rec.values - f.values))) / scale)
        worst["membership"] = max(worst["membership"],
                                  check_membership(d)["max_slice_average"] / scale)
        for m in (0, 1):
            for p in (1.0, 2.0, np.inf):
                r = norm_bound_ratio(f, d, m, p)
                if np.isfinite(r):
                    worst["ratio"] = max(worst["ratio"], r)
    worst["ratio_bound"] = 3.0 ** (spec.n - 1)
    out.json("decomposition_suite.json", worst)
    parts = dump_components(decompose(_random_cylinder_field(spec, rng)), out.outdir)
    out.files += ["decomposition.json", *(c["file"] for c in parts["components"])]
    return {}, {"n_fields": n_fields, "seed": seed}


def _gn_inputs(cfg: dict[str, str]):
    """(grid, number of fields, seed, its generator, j, m, p, q, r) of a
    gn-study config; the exponents must fit a split level and the
    interpolation quotient."""
    spec = _domain(cfg, "2", "4", "64", "16")
    check_gradient_grid(spec)
    n_fields = _number(cfg, "n_fields", "40", int, least=1)
    seed, rng = _seeded(cfg)
    j, m = _number(cfg, "j", "0", int), _number(cfg, "m", "1", int)
    p, q, r = (_number(cfg, k, d, finite=False) for k, d in (("p", "2"), ("q", "1"), ("r", "2")))
    if m > 2:
        raise ValueError(f"gn-study takes derivative orders up to 2, got m={m}")
    if all(solve_theta(j, m, p, q, r, k) is None for k in range(spec.n)):
        raise ValueError(f"exponents j={j} m={m} p={p:g} q={q:g} r={r:g} fit no split level")
    check_interpolation_exponents(max(p, 2.0), q)
    return spec, n_fields, seed, rng, j, m, p, q, r


def _exp_gn_study(out: _Outputs, spec: DomainSpec, n_fields: int, seed: int, rng,
                  j, m, p, q, r) -> tuple[dict, dict]:
    rows = []
    for i in range(n_fields):
        f = _random_cylinder_field(spec, rng)
        res = gn_ratio(f, j, m, p, q, r)
        interp = interpolation_ratio(f, max(p, 2.0), q)
        rows.append((i, max(v for v in res["ratios"].values()), interp["ratio"]))
    write_table(out.path("gn_ratios.csv"), ("field", "gn_ratio_max", "interpolation_ratio"), rows)
    out.json("gn_summary.json", {
        "gn_ratio_max": max(row[1] for row in rows),
        "interpolation_ratio_max": max(row[2] for row in rows),
        "exponents": {"j": j, "m": m, "p": p, "q": q, "r": r},
    })
    return {}, {"n_fields": n_fields, "seed": seed}


_PROFILES = {"gaussian": gaussian_bump, "hat": hat_bump}


def _counterexample_inputs(cfg: dict[str, str]):
    """(dilations, Sobolev rows, theta -> interpolation rows) of a counterexample
    config, drawn here so `validate` rejects a dilation whose quotient is not
    finite and positive (|z'|^2 underflows to 0 or overflows): it has no slope."""
    n = _number(cfg, "n", "2", int, least=2)
    ds = _numbers("dilations", cfg.get("dilations", "1,2,4,8,16,32,64"))
    if len(set(ds)) < 2 or min(ds) <= 0:
        raise ValueError(f"dilations must be at least two distinct positive numbers, got {ds}")
    name = cfg.get("profile", "gaussian")
    if name not in _PROFILES:
        raise ValueError(f"unknown profile '{name}' (use {' or '.join(_PROFILES)})")
    thetas = _numbers("thetas", cfg.get("thetas", "0,0.3333333333333333,0.6666666666666666,1"))
    if not thetas or not all(0.0 <= theta <= 1.0 for theta in thetas):
        raise ValueError(f"thetas must lie in [0, 1] and not be empty, got {thetas}")
    profile = _PROFILES[name]
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value fails below
            sob = [dilated_sobolev_ratio(d, profile, n) for d in ds]
            gns = {theta: [dilated_gn_ratio(d, theta, profile) for d in ds] for theta in thetas}
    except ValueError as e:  # a dilated grid past the float range
        raise ValueError(f"dilations {ds}: {e}") from None
    for row in (*sob, *(gn for rows in gns.values() for gn in rows)):
        if not 0.0 < row["measured"] < math.inf:
            raise ValueError(f"dilations entry {row['d']:g} gives the quotient "
                             f"{row['measured']:g}, which must be finite and positive")
    return ds, sob, gns


def _exp_counterexample(out: _Outputs, ds, sob, gns) -> tuple[dict, dict]:
    write_table(out.path("sobolev_scaling.csv"), ("d", "measured", "predicted", "ratio"),
                ((row["d"], row["measured"], row["predicted"], row["measured"] / row["predicted"])
                 for row in sob))
    summary = {
        "sobolev_slope": dilation_slope(ds, [row["measured"] for row in sob]),
        "sobolev_slope_predicted": sob[0]["exponent"],
        "C_at_d1": sob[0]["at_d1"],
        "theta_slopes": {f"{theta:.6g}": {
            "measured": dilation_slope(ds, [row["measured"] for row in gn]),
            "predicted": gn[0]["exponent"],
        } for theta, gn in gns.items()},
    }
    out.json("counterexample_summary.json", summary)
    with open(out.path("plots.gp"), "w") as fh:
        fh.write('set datafile separator ","\nset logscale xy\n'
                 'plot "sobolev_scaling.csv" using 1:2 title "measured", '
                 f'x**({summary["sobolev_slope_predicted"]}) title "guide"\n')
    return {}, {}


def _truncated_at(src: str):
    """The `truncated_at` of the manifest.json beside the norm table `src`
    if that manifest digests the table as it is, else None."""
    try:
        with open(os.path.join(os.path.dirname(src), "manifest.json")) as fh:
            manifest = json.load(fh)
        digested = manifest["files"][os.path.basename(src)] == _sha256(src)
        return float(manifest["truncated_at"]) if digested else None  # float(None): TypeError
    except (OSError, ValueError, LookupError, TypeError):
        return None


def _rates_inputs(cfg: dict[str, str]):
    """(norm table path, its rate report) of a rates config: the report is
    drawn up here, so `validate` rejects what the run would reject."""
    src = cfg.get("input", "")
    if not os.path.isfile(src):
        raise ValueError(f"rates experiment needs input = <norms.csv>, got '{src}'")
    with open(src, errors="replace") as fh:
        lines = [line for line in fh if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"norm table {src} holds no rows")
    table = np.genfromtxt(lines, delimiter=",", names=True)
    return src, _rate_report(table, _window(cfg), _truncated_at(src))


def _exp_rates(out: _Outputs, src: str, report) -> tuple[dict, dict]:
    write_rate_report(report, out.path("rates.json"))
    return report, {"input": src}


# experiment -> (input stage, run stage)
_EXPERIMENTS = {
    "simulate": (_simulate_inputs, _exp_simulate),
    "profile": (_profile_inputs, _exp_profile),
    "periodic": (_periodic_inputs, _exp_periodic),
    "decompose": (_decompose_inputs, _exp_decompose),
    "gn-study": (_gn_inputs, _exp_gn_study),
    "counterexample": (_counterexample_inputs, _exp_counterexample),
    "rates": (_rates_inputs, _exp_rates),
}


class _AskedKeys(dict):
    """A config that records every key looked up through get, [] or in."""

    def __init__(self, cfg: dict[str, str]):
        super().__init__(cfg)
        self.asked = {"experiment"}

    def __getitem__(self, key):
        self.asked.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.asked.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default


def _inputs(cfg: dict[str, str]) -> tuple[str, tuple]:
    """(experiment, checked inputs) of a config (simulate by default); the
    one place that rejects an unknown experiment, a bad value or an unread key."""
    kind = cfg.get("experiment", "simulate")
    if kind not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{kind}' "
                          f"(choose from {sorted(_EXPERIMENTS)})")
    read = _AskedKeys(cfg)
    try:
        inputs = _EXPERIMENTS[kind][0](read)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    unread = sorted(set(cfg) - read.asked)
    if unread:
        import difflib  # only this error path reads it

        raise ConfigError("; ".join(f"unknown key '{key}' for {kind}" + "".join(
            f" (closest known key: '{c}')" for c in difflib.get_close_matches(key, read.asked, n=1))
            for key in unread))
    return kind, inputs


def validate(cfg: dict[str, str]) -> list[str]:
    """Dry-run check of a config against its own experiment: the input
    stage; returns findings."""
    try:
        _inputs(cfg)
    except ConfigError as e:
        return [str(e)]
    return []


def run_experiment(cfg: dict[str, str], outdir) -> int:
    """Run a config's experiment: the input stage, then the run stage, which
    writes its artifacts to `outdir` and returns (verdicts, manifest fields);
    then write the manifest and raise RatesFailure if a verdict reads 'fail'.
    A `rates` run may not write into its input table's directory, whose
    manifest (and its truncation flag) it would replace."""
    kind, inputs = _inputs(cfg)
    if kind == "rates" and os.path.realpath(outdir) == os.path.realpath(os.path.dirname(inputs[0])):
        raise ConfigError(f"--out {outdir} is the directory of the input table {inputs[0]}, "
                          "whose manifest.json a rates run would replace")
    cfg_text = "\n".join(f"{k} = {v}" for k, v in sorted(cfg.items()))
    out = _Outputs(outdir, cfg_text, kind)
    verdicts, fields = _EXPERIMENTS[kind][1](out, *inputs)
    out.finish(fields)
    failed = [k for k, v in verdicts.items() if isinstance(v, dict) and v.get("status") == "fail"]
    if failed:
        raise RatesFailure(f"rate checks failed: {', '.join(failed)}")
    return 0


# --- process -----------------------------------------------------------------

_MMAP_THRESHOLD = 32 << 20   # bytes; the most every 64-bit glibc accepts
_TRIM_THRESHOLD = 256 << 20  # bytes


def _keep_freed_memory() -> None:
    """Keep freed arrays in the process heap, through glibc `mallopt`.

    A time step allocates and frees dozens of full-grid temporaries.
    Under glibc's default thresholds each is either its own mmap,
    unmapped on free, or trimmed off the heap top once freed, so the
    next temporary faults all its pages in again.  That page-fault
    churn took a third to nearly half of a `simulate` run's time on the
    benchmark grids.  Raising the mmap threshold serves the temporaries
    from the heap, and raising the trim threshold keeps freed heap
    memory for reuse.  Both are set, because setting either one turns
    off glibc's dynamic adjustment of both, which alone is slower than
    the default.  The two thresholds must stay above the largest array
    any run allocates (a 640 x 32 x 32 grid is 5.2 MB); a larger array
    is mmapped as before.  Arithmetic is unchanged.  Where the C
    library has no `mallopt` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no dlopen(NULL)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rarelab",
        description="numerical experiments for rarefaction waves under periodic "
                    "perturbations on the cylinder")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_EXPERIMENTS, "validate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help="flat key=value config file")
        if name != "validate":
            sp.add_argument("--out", default="out", help="output directory")
    return parser


# built once, at import: its message lookups load `locale`, which a run then finds loaded
_PARSER = _parser()


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help, 2 on a usage error
        return 1 if e.code else 0

    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            findings = validate(cfg)
            if findings:
                for f in findings:
                    print(f"violation: {f}")
                return 1
            print("no violations")
            return 0
        cfg.setdefault("experiment", args.command)
        if cfg["experiment"] != args.command:
            raise ConfigError(
                f"config says experiment = {cfg['experiment']}, "
                f"but the {args.command} subcommand was invoked")
        return run_experiment(cfg, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except NumericalAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 2
    except RatesFailure as e:
        print(f"acceptance failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
