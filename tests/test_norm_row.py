"""One norm row for both phases of `mdsolver.run`: each record measures
u against the profile at its time, tiled over the torus: the one it
pulled from `evolve_profile`'s stream on the cylinder, and the profile
row of the line march after the hand-off; the phi columns come from
`rates.PHI_SERIES`."""

import numpy as np

from rarelab import cli, mdsolver
from rarelab.domain import DomainSpec
from rarelab.fluxes import burgers
from rarelab.mdsolver import NORM_COLUMNS, SolverConfig
from rarelab.rates import PHI_SERIES, predicted_exponent


def config(**kw):
    base = dict(spec=DomainSpec(n=2, L=12, n1=96, n_torus=(8,)), flux=burgers(2),
                ul=-0.5, ur=0.5, t_end=2.0, snapshot_times=(0.0, 0.5, 1.0, 2.0))
    return SolverConfig(**{**base, **kw})


def spied_run(monkeypatch, sc):
    """(the run's (series, checks), the profile each record measured u
    against, the state u of each record): the profile pulled from
    `evolve_profile`'s stream at a cylinder record, the line march's
    profile row at a line record."""
    profiles, states = [], []
    snap = mdsolver.schedule(sc)[2]
    evolve, march = mdsolver.evolve_profile, mdsolver.march

    def evolve_spy(*args, **kw):
        for prof in evolve(*args, **kw):
            profiles.append(prof.values)
            yield prof

    def march_spy(state, plan, ndim, sweep, rhs, check, keep):
        def kept(k, s):  # (the run's step, the state) at a record or a segment's end
            out = keep(k, s)
            if out[0] in snap:
                if len(s) == 1:  # [line; profile]
                    line, prof = s[0]
                    states.append(line.copy())
                    profiles.append(prof.copy())
                else:
                    states.append(s[0].copy())
            return out
        return march(state, plan, ndim, sweep, rhs, check, kept)

    monkeypatch.setattr(mdsolver, "evolve_profile", evolve_spy)
    monkeypatch.setattr(mdsolver, "march", march_spy)
    return mdsolver.run(sc, mdsolver.schedule(sc)), profiles, states


class TestAgainstTheProfileItself:
    def test_both_phases_measure_u_against_the_pulled_profile(self, monkeypatch):
        sc = config(w0_modes=((1, 1, 0.1), (0, 2, 0.05)),
                    snapshot_times=tuple(np.linspace(0.0, 2.0, 21)))
        (series, checks), profiles, states = spied_run(monkeypatch, sc)
        dims = {u.ndim for u in states}
        assert checks["planar_at"] is not None and dims == {1, 2}  # cylinder and line records
        assert len(profiles) == len(states) == series["t"].size
        for got, prof, u in zip(series["u_minus_profile_linf"], profiles, states):
            u = np.moveaxis(u, -1, 0)  # the march holds the cylinder x1-last
            tiled = prof.reshape((-1,) + (1,) * (u.ndim - 1))
            assert got == np.max(np.abs(u - tiled))

    def test_an_undisturbed_run_reads_zero_at_every_record(self):
        sc = config(w0_modes=())
        series, checks = mdsolver.run(sc, mdsolver.schedule(sc))
        assert checks["planar_at"]["step"] == 0  # t = 0 is a cylinder record, the rest line records
        assert list(series["u_minus_profile_linf"]) == [0.0] * 4


class TestSeriesTable:
    def test_the_phi_columns_are_the_table_in_order(self):
        assert NORM_COLUMNS == ("t", *PHI_SERIES, "u_minus_profile_linf", "h_l1", "tail_mass")

    def test_each_rate_verdict_predicts_its_series_rate(self):
        t = np.linspace(0.5, 10.0, 20)
        table = {name: (1.0 + t) ** -0.5 for name in NORM_COLUMNS}
        table["t"] = t
        report = cli._rate_report(table, None, None)
        for col, (which, p) in PHI_SERIES.items():
            if p != 1.0:
                assert report[col]["predicted"] == predicted_exponent(p, which), col
