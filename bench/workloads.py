"""The benchmark's workloads: inputs, timed bodies and correctness gates.

Each workload object is driven by ``worker.py`` in a fresh process:
``setup()`` runs before the first timed call (config parse and
validation, or input generation, which it times separately so that it
can be left out of set-up time), ``body()`` is the timed call, and
``check()`` turns the body's result into a list of failed operations.
The public entry points are looked up on their modules at call time, so
the tracer's wrappers see every call.

See README.md next to this file for why each workload exists.
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
GOLDEN = HERE / "golden"

# Norm-table gate, per entry: |new - golden| <= NORM_ATOL + NORM_RTOL * |golden|.
# The phi columns are norms of u minus the ansatz, a difference of O(1)
# fields, so roundoff sets an absolute floor, not a relative one.  A DFT
# periodic sweep (ROADMAP item 3, ~4e-15 per sweep) moves these columns
# by at most 4e-13, while scaling the viscosity by 1 + 1e-6 moves some
# column by more than 4e-11 on both workloads.  tail_mass is a ratio of
# two roundoff-level masses far from the fan; the abort guard compares it
# with 0.25, so it gets an absolute tolerance of its own.
NORM_ATOL = 1e-11
NORM_RTOL = 1e-9
TAIL_MASS_ATOL = 1e-4
MAX_PRINCIPLE_TOL = 1e-12

# analysis invariants
EXACT_RTOL = 1e-12


class Simulate:
    """`rarelab simulate` on a fixed config, through the CLI entry point.

    The config is fixed: solver cost depends on the grid and the step
    count, not on disturbance values, so the seed is not used.
    """

    def __init__(self, name: str, tiny: bool = False):
        self.name = name
        self.config = CONFIGS / f"{name}{'_tiny' if tiny else ''}.cfg"
        self.golden = None if tiny else GOLDEN / name
        self.outdir = None
        self.cells = 0

    def setup(self, seed: int, outdir: Path) -> float:
        from rarelab import cli

        self.outdir = outdir
        cfg = cli.load_config(self.config)
        findings = cli.validate(cfg)
        if findings:
            raise ValueError(f"{self.config.name}: {'; '.join(findings)}")
        spec = cli.solver_config_from_dict(cfg).spec
        self.cells = spec.num_points
        return 0.0

    def body(self):
        from rarelab import cli

        return cli.main(["simulate", "--config", str(self.config),
                         "--out", str(self.outdir)])

    def check(self, exit_code) -> tuple[int, list[str]]:
        """One operation: the whole run.  Returns (attempted, errors)."""
        errors = []
        if exit_code != 0:
            return 1, [f"exit code {exit_code}"]
        rates = json.loads((self.outdir / "rates.json").read_text())
        statuses = verdicts(rates)
        if self.golden is not None:
            errors += compare_norms(self.outdir / "norms.csv", self.golden / "norms.csv")
            want = json.loads((self.golden / "verdicts.json").read_text())["statuses"]
            if statuses != want:
                errors.append(f"verdicts {statuses} != golden {want}")
        elif "fail" in statuses.values():
            errors.append(f"failing verdicts {statuses}")
        if rates["boundary_mismatch"] != 0.0:
            errors.append(f"boundary_mismatch {rates['boundary_mismatch']!r} != 0")
        if not rates["max_principle_violation"] <= MAX_PRINCIPLE_TOL:
            errors.append(f"max_principle_violation {rates['max_principle_violation']!r}"
                          f" > {MAX_PRINCIPLE_TOL}")
        return 1, errors


def verdicts(rates: dict) -> dict[str, str]:
    return {k: v["status"] for k, v in rates.items() if isinstance(v, dict)}


def read_norms(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def compare_norms(path, golden_path) -> list[str]:
    head, new = read_norms(path)
    ghead, old = read_norms(golden_path)
    if head != ghead or new.shape != old.shape:
        return [f"norm table layout {head} {new.shape} != golden {ghead} {old.shape}"]
    atol = np.array([TAIL_MASS_ATOL if name == "tail_mass" else NORM_ATOL for name in head])
    excess = np.abs(new - old) - (atol + NORM_RTOL * np.abs(old))
    return [f"norms.csv column {name}: deviation {dev:.3e} over tolerance"
            for name, dev, worst in zip(head, np.max(np.abs(new - old), axis=0),
                                        np.max(excess, axis=0)) if not worst <= 0]


class Analysis:
    """decompose / reconstruct / norm bounds / GN quotients on seeded fields.

    Fields follow the family `rarelab decompose` and `gn-study` draw
    from: an x1-Gaussian envelope times random low-wavenumber cosines.
    The first three modes put mass on every split level (pure 1-d, one
    torus direction, both), so every GN quotient has a nonzero left side.
    """

    N_MODES = 5

    def __init__(self, tiny: bool = False):
        self.shape = (16, 8, 8) if tiny else (128, 48, 48)
        self.n_fields = 3 if tiny else 10
        self.L = 4.0
        self.fields = []
        self.cells = math.prod(self.shape)

    def setup(self, seed: int, outdir: Path) -> float:
        from rarelab import domain

        t0 = time.monotonic()
        spec = domain.DomainSpec(n=3, L=self.L, n1=self.shape[0], n_torus=self.shape[1:])
        rng = np.random.default_rng(seed)
        self.fields = [domain.Field(spec, self._random_values(spec, rng))
                       for _ in range(self.n_fields)]
        return time.monotonic() - t0

    def _random_values(self, spec, rng) -> np.ndarray:
        from rarelab import domain

        grid = domain.make_grid(spec)
        x1 = grid.x1.reshape(-1, 1, 1)
        x2 = grid.torus[0].reshape(1, -1, 1)
        x3 = grid.torus[1].reshape(1, 1, -1)
        envelope = np.exp(-((x1 / (0.5 * spec.L)) ** 2))
        first = [(0, 0), tuple(rng.permutation([0, int(rng.integers(1, 4))])),
                 (int(rng.integers(1, 4)), int(rng.integers(1, 4)))]
        vals = np.zeros(spec.shape)
        for i in range(self.N_MODES):
            k2, k3 = first[i] if i < len(first) else rng.integers(0, 4, size=2)
            line = envelope * np.cos(rng.integers(0, 3) * np.pi * x1 / spec.L
                                     + rng.uniform(0, 2 * np.pi))
            vals += (rng.standard_normal() * line
                     * np.cos(2 * np.pi * k2 * x2 + rng.uniform(0, 2 * np.pi))
                     * np.cos(2 * np.pi * k3 * x3 + rng.uniform(0, 2 * np.pi)))
        return vals

    def body(self):
        from rarelab import decomp, ineqlab

        out = []
        for f in self.fields:
            try:
                d = decomp.decompose(f)
                out.append((
                    decomp.reconstruct(d),
                    decomp.check_membership(d),
                    [decomp.norm_bound_ratio(f, d, m, p)
                     for m in (0, 1) for p in (1.0, 2.0, np.inf)],
                    ineqlab.gn_ratio(f, 0, 1, 2.0, 1.0, 2.0, d=d),
                    ineqlab.interpolation_ratio(f, 2.0, 1.0),
                ))
            except Exception as e:  # one failed operation; keep going
                out.append(e)
        return out

    def check(self, results) -> tuple[int, list[str]]:
        """One operation per field; invariants only, no golden values."""
        errors = []
        bound = 4.0 ** (len(self.shape) - 1)
        for i, (f, res) in enumerate(zip(self.fields, results)):
            if isinstance(res, Exception):
                errors.append(f"field {i}: raised {res!r}")
                continue
            rec, memb, ratios, gn, interp = res
            scale = float(np.max(np.abs(f.values)))
            bad = []
            rec_err = float(np.max(np.abs(rec.values - f.values))) / scale
            if not rec_err <= EXACT_RTOL:
                bad.append(f"reconstruction error {rec_err:.3e}")
            slice_avg = memb["max_slice_average"] / scale
            if not slice_avg <= EXACT_RTOL:
                bad.append(f"slice average {slice_avg:.3e}")
            # sum of component norms >= norm of the sum (triangle inequality)
            if not all(1.0 - EXACT_RTOL <= r <= bound for r in ratios):
                bad.append(f"norm_bound_ratio {ratios} outside [1, {bound:g}]")
            gq = list(gn["ratios"].values())
            if not gq or gn["flags"] or not all(math.isfinite(q) and q > 0 for q in gq):
                bad.append(f"gn_ratio {gn['ratios']} flags {gn['flags']}")
            if not (math.isfinite(interp["ratio"]) and interp["ratio"] > 0):
                bad.append(f"interpolation_ratio {interp['ratio']!r}")
            if bad:
                errors.append(f"field {i}: " + "; ".join(bad))
        return len(self.fields), errors


def make(name: str, tiny: bool = False):
    if name in ("cyl2d", "cyl3d"):
        return Simulate(name, tiny)
    if name == "analysis":
        return Analysis(tiny)
    raise ValueError(f"unknown workload {name!r} (choose cyl2d, cyl3d or analysis)")


NAMES = ("cyl2d", "cyl3d", "analysis")
