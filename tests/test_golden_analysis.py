"""Analysis values on seeded 2-d and 3-d fields against recorded ones.

`tests/golden/analysis_values.json` was recorded before the grid's
first-derivative and gradient-magnitude operators were merged into
`domain.derivative`/`domain.magnitude`; every value must still agree to
1e-13 relative.  Re-record (only after a deliberate numerical change)
with

    PYTHONPATH=src python tests/test_golden_analysis.py
"""

import json
from pathlib import Path

import numpy as np

from rarelab.ansatz import AnsatzBundle, discrete_residual
from rarelab.decomp import decompose, norm_bound_ratio
from rarelab.domain import DomainSpec, Field, lp_norm, make_grid
from rarelab.fluxes import burgers
from rarelab.ineqlab import (
    dilated_gn_ratio,
    dilated_sobolev_ratio,
    gn_ratio,
    hat_bump,
    interpolation_ratio,
)
from rarelab.periodic import PeriodicState, TorusSpec, w_sup_norms

GOLDEN = Path(__file__).resolve().parent / "golden" / "analysis_values.json"
RTOL = 1e-13

SPECS = {
    "2d": DomainSpec(n=2, L=4.0, n1=32, n_torus=(8,)),
    "3d": DomainSpec(n=3, L=4.0, n1=16, n_torus=(8, 6)),
}


def seeded_field(spec: DomainSpec, seed: int, t: float = 0.0) -> Field:
    """Gaussian x1 envelope times random low modes, plus a little noise."""
    rng = np.random.default_rng(seed)
    grid = make_grid(spec)
    mesh = np.meshgrid(grid.x1, *grid.torus, indexing="ij")
    envelope = np.exp(-((mesh[0] / (0.5 * spec.L)) ** 2))
    vals = 0.01 * envelope * rng.standard_normal(spec.shape)
    for _ in range(4):
        term = rng.standard_normal() * envelope * np.cos(
            int(rng.integers(0, 3)) * np.pi * mesh[0] / spec.L + rng.uniform(0, 2 * np.pi))
        for x in mesh[1:]:
            term = term * np.cos(2 * np.pi * int(rng.integers(0, 3)) * x
                                 + rng.uniform(0, 2 * np.pi))
        vals += term
    return Field(spec, vals, t)


def _bundle(u: Field) -> AnsatzBundle:
    line = np.zeros(u.spec.n1)
    return AnsatzBundle(g=line, dg=line, profile_values=line, u_tilde=u,
                        h=u.with_values(np.zeros(u.spec.shape)), t=u.t)


def analysis_values() -> dict[str, float]:
    out: dict[str, float] = {}
    for seed, (dim, spec) in enumerate(SPECS.items()):
        n = spec.n
        f = seeded_field(spec, seed)
        d = decompose(f)
        for m in (0, 1):
            for p in (1.0, 2.0, np.inf):
                out[f"{dim}/norm_bound_ratio/m={m}/p={p:g}"] = norm_bound_ratio(f, d, m, p)
        for j, m, p, q, r in ((0, 1, 2.0, 1.0, 2.0), (1, 2, 2.0, 2.0, 2.0)):
            res = gn_ratio(f, j, m, p, q, r, d=d)
            for k, ratio in res["ratios"].items():
                out[f"{dim}/gn_ratio/j={j},m={m}/level={k}"] = ratio
        for p, q in ((2.0, 1.0), (4.0, 2.0)):
            res = interpolation_ratio(f, p, q)
            for key in ("lhs", "rhs", "ratio"):
                out[f"{dim}/interpolation_ratio/p={p:g},q={q:g}/{key}"] = res[key]

        rng = np.random.default_rng(100 + seed)
        tspec = TorusSpec(sizes=(8, 6, 5)[:n])
        state = PeriodicState(tspec, 0.5 + 0.1 * rng.standard_normal(tspec.sizes), 0.0, 0.5)
        sup, gsup = w_sup_norms(state)
        out[f"{dim}/w_sup_norms/sup"] = sup
        out[f"{dim}/w_sup_norms/grad_sup"] = gsup

        snaps = [_bundle(seeded_field(spec, 10 + seed + s, 0.5 + 0.1 * s)) for s in range(3)]
        res = discrete_residual(*snaps, burgers(n))
        for p in (1.0, 2.0, np.inf):
            out[f"{dim}/discrete_residual/l{p:g}"] = lp_norm(res, p)
        weights = np.random.default_rng(200 + seed).standard_normal(spec.shape)
        out[f"{dim}/discrete_residual/weighted_sum"] = float(np.sum(weights * res.values))

    for d in (1.0, 4.0):
        for n in (2, 3):
            res = dilated_sobolev_ratio(d, n=n, points=801)
            out[f"dilation/sobolev/n={n}/d={d:g}/measured"] = res["measured"]
            out[f"dilation/sobolev/n={n}/d={d:g}/predicted"] = res["predicted"]
        out[f"dilation/sobolev_hat/d={d:g}"] = dilated_sobolev_ratio(
            d, hat_bump, points=801)["measured"]
        for theta in (0.0, 1.0 / 3.0, 1.0):
            out[f"dilation/gn/theta={theta:.6g}/d={d:g}"] = dilated_gn_ratio(
                d, theta, points=801)["measured"]
    return {key: float(val) for key, val in out.items()}


def test_analysis_values_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = analysis_values()
    assert sorted(got) == sorted(want)
    off = {key: (got[key], want[key]) for key in want
           if not abs(got[key] - want[key]) <= RTOL * abs(want[key])}
    assert not off


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(analysis_values(), indent=1, sort_keys=True) + "\n")
