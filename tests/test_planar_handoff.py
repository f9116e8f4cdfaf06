"""The planar hand-off of `mdsolver.run`: once the torus part of the
cylinder and of its far field is below `PLANAR_TOL`, the run marches the
torus average as a line.  With the tolerance patched to 0 the run never
hands off, so that run is the reference every hand-off run must match
within the golden gate: 1e-11 + 1e-9 |reference| per entry, 1e-4
absolute for tail_mass."""

import json

import numpy as np
import pytest

from rarelab import cli, mdsolver, profile1d, stepping
from rarelab.ansatz import far_field_grid
from rarelab.errors import NumericalAbort
from rarelab.mdsolver import NORM_COLUMNS, trig_polynomial
from rarelab.periodic import solve_periodic
from test_cylinder_window import WINDOWED, line_of

TINY_2D = """\
experiment = simulate
dim = 2
flux = burgers
L = 12
n1 = 96
n_torus = 8
t_end = 2
rates.window = 1,2
w0_modes = 1,1,0.1; 0,2,0.05
snapshots = auto
"""
TINY_3D = TINY_2D.replace("dim = 2", "dim = 3").replace("n_torus = 8", "n_torus = 8,8").replace(
    "w0_modes = 1,1,0.1; 0,2,0.05", "w0_modes = 1,1,1,0.1; 0,1,2,0.05")


def config(text):
    return cli.solver_config_from_dict(cli.parse_config(text))


def never_handing_off(monkeypatch, sc):
    with monkeypatch.context() as m:
        m.setattr(mdsolver, "PLANAR_TOL", 0.0)
        ref = mdsolver.run(sc, mdsolver.schedule(sc))
    assert ref[1]["planar_at"] is None
    return ref


def assert_within_gate(run, ref):
    for name in NORM_COLUMNS:
        new, old = run[0][name], ref[0][name]
        atol = 1e-4 if name == "tail_mass" else 1e-11
        assert new.shape == old.shape, name
        assert np.all(np.abs(new - old) <= atol + 1e-9 * np.abs(old)), name


class TestEquivalence:
    @pytest.mark.parametrize("text", [TINY_2D, TINY_3D], ids=["2d", "3d"])
    def test_hand_off_matches_the_full_cylinder_run(self, monkeypatch, text):
        sc = config(text)
        steps, dt, _ = plan = mdsolver.schedule(sc)
        run, ref = mdsolver.run(sc, plan), never_handing_off(monkeypatch, sc)
        checks = run[1]
        at = checks["planar_at"]
        assert at is not None and 0 < at["step"] < steps
        assert at["t"] == at["step"] * dt and at["tau"] < mdsolver.PLANAR_TOL
        assert_within_gate(run, ref)
        assert checks["max_courant"] == ref[1]["max_courant"]
        # the line keeps the maximum principle; the far field's ghost check
        # ran before the hand-off only
        assert checks["max_principle_violation"] <= 1e-12
        assert checks["boundary_mismatch"] == ref[1]["boundary_mismatch"] == 0.0


class TestStepCount:
    def test_the_line_calls_check_cfl_once_per_step(self, monkeypatch):
        # the benchmark counts steps as calls of mdsolver's check_cfl binding,
        # and the line phase keeps passing the cylinder's spacings and the
        # line row alone, so the reported Courant number is the line's
        sc = config(TINY_2D)
        calls, check_cfl = [], mdsolver.check_cfl
        monkeypatch.setattr(mdsolver, "check_cfl",
                            lambda *args: calls.append(args[0].shape + args[2]) or check_cfl(*args))
        steps, _, _ = plan = mdsolver.schedule(sc)
        at = mdsolver.run(sc, plan)[1]["planar_at"]
        assert at is not None and at["step"] < steps
        assert len(calls) == steps
        spacings = (sc.spec.dx1, *sc.spec.dx_torus)
        assert calls == [(*sc.spec.n_torus, sc.spec.n1, *spacings)] * at["step"] + [
            (sc.spec.n1, *spacings)] * (steps - at["step"])

    def test_a_growing_window_calls_check_cfl_once_per_step(self, monkeypatch):
        # on a line that windows, the benchmark's step count stays the
        # plan's: one call per step, on the window that step holds, the
        # cylinder's (x1-last) and then the line's
        sc = config(WINDOWED)
        calls, check_cfl = [], mdsolver.check_cfl
        monkeypatch.setattr(mdsolver, "check_cfl",
                            lambda *args: calls.append(args[0].shape) or check_cfl(*args))
        steps, dt, _ = plan = mdsolver.schedule(sc)
        at = mdsolver.run(sc, plan)[1]["planar_at"]
        assert at is not None and at["step"] < steps
        rule = mdsolver.cylinder_window(sc, *line_of(sc))
        cells = [2 * min(rule((k + 1) * dt), rule(sc.t_end)) * round(1 / sc.spec.dx1)
                 for k in range(steps)]
        assert calls == [(*sc.spec.n_torus, n) for n in cells[:at["step"]]] + [
            (n,) for n in cells[at["step"]:]]
        assert cells[0] < cells[at["step"]] < cells[-1]


class TestOneDirichletOperator:
    @pytest.mark.parametrize("text", [TINY_2D, TINY_3D], ids=["2d", "3d"])
    def test_a_handed_off_run_factors_it_once(self, monkeypatch, text):
        # the cylinder's sweep, which the profile and the line reuse: one
        # factorization of the matrix they share
        sc = config(text)
        factored, dpttrf = [], stepping.dpttrf
        monkeypatch.setattr(stepping, "dpttrf",
                            lambda d, e: factored.append((d.copy(), e.copy())) or dpttrf(d, e))
        steps, _, _ = plan = mdsolver.schedule(sc)
        at = mdsolver.run(sc, plan)[1]["planar_at"]
        assert at is not None and at["step"] < steps
        assert len(factored) == 1


class TestFarFieldSides:
    @pytest.mark.parametrize("text", [TINY_2D, TINY_3D], ids=["2d", "3d"])
    def test_each_side_is_the_torus_run_bitwise(self, monkeypatch, text):
        # the sides the run hands to the ansatz at each record before the
        # hand-off are the two torus solutions on the run's step grid
        sc = config(text)
        seen, assemble_bundle = [], mdsolver.assemble_bundle
        monkeypatch.setattr(mdsolver, "assemble_bundle", lambda w, prof, *args: seen.append(
            (prof.t, [side.copy() for side in w])) or assemble_bundle(w, prof, *args))
        at = mdsolver.run(sc, mdsolver.schedule(sc))[1]["planar_at"]
        assert at is not None and len(seen) > 2
        assert seen[-1][0] == at["t"]
        tspec, _ = far_field_grid(sc.spec)
        w0 = trig_polynomial(sc.w0_modes, tspec.coordinates())
        times, plan = [t for t, _ in seen], mdsolver.schedule(sc)
        for i, ubar in enumerate((sc.ul, sc.ur)):
            # the torus run over the run's own plan, up to the hand-off record
            states = solve_periodic(w0, ubar, sc.flux, tspec, plan)[:len(seen)]
            assert [t for t, _ in states] == times
            for (_, sides), (_, values) in zip(seen, states):
                assert np.array_equal(sides[i], values)


class TestLineClock:
    def test_a_nan_on_the_line_aborts_at_the_runs_time(self, monkeypatch):
        # the line march's check sees the whole run's time, not its own
        sc = config(TINY_2D)
        steps, dt, _ = plan = mdsolver.schedule(sc)
        k0, j = mdsolver.run(sc, plan)[1]["planar_at"]["step"], 3
        assert k0 + j < steps
        calls, pinned_line = [], mdsolver.pinned_line

        def nan_after_j_steps(*args):
            sweep, rhs = pinned_line(*args)
            # two Heun stages per step: the (2j+1)-th call is in line step j
            return sweep, lambda state: calls.append(1) or (
                (np.full_like(state[0], np.nan),) if len(calls) > 2 * j else rhs(state))

        monkeypatch.setattr(mdsolver, "pinned_line", nan_after_j_steps)
        with pytest.raises(NumericalAbort) as info:
            mdsolver.run(sc, mdsolver.schedule(sc))
        assert info.value.reason == "cfl"
        assert info.value.t == pytest.approx((k0 + j + 1) * dt, rel=1e-15)


    def test_a_nan_in_the_profile_row_aborts_at_the_runs_time(self, monkeypatch):
        # the line march checks the profile row as the profile's own march
        # does, though the run's counted check reads the line row alone
        sc = config(TINY_2D)
        steps, dt, _ = plan = mdsolver.schedule(sc)
        k0, j = mdsolver.run(sc, plan)[1]["planar_at"]["step"], 3
        calls, lines, pinned_line, check_cfl = [], [], mdsolver.pinned_line, mdsolver.check_cfl

        def nan_profile_after_j_steps(*args):
            sweep, rhs = pinned_line(*args)

            def nan_rhs(state):
                (k,) = rhs(state)
                calls.append(1)
                if len(calls) > 2 * j:
                    k[1] = np.nan
                return (k,)
            return sweep, nan_rhs

        monkeypatch.setattr(mdsolver, "pinned_line", nan_profile_after_j_steps)
        monkeypatch.setattr(mdsolver, "check_cfl",
                            lambda v, *args: lines.append(v.copy()) or check_cfl(v, *args))
        with pytest.raises(NumericalAbort) as info:
            mdsolver.run(sc, mdsolver.schedule(sc))
        assert info.value.reason == "cfl" and "not finite" in info.value.detail
        assert info.value.t == pytest.approx((k0 + j + 1) * dt, rel=1e-15)
        assert lines[-1].ndim == 1 and np.all(np.isfinite(lines[-1]))


class TestLockstepProfile:
    def test_the_profile_march_has_taken_k_steps_at_record_k(self, monkeypatch):
        # the run pulls each profile from the march's stream at its record,
        # before and after the hand-off; the profile march checks each step
        sc = config(TINY_2D)
        taken, seen = [], []
        check_cfl, gradient = profile1d.check_cfl, mdsolver.gradient
        monkeypatch.setattr(profile1d, "check_cfl",
                            lambda *args: taken.append(args[-1]) or check_cfl(*args))
        monkeypatch.setattr(mdsolver, "gradient",
                            lambda phi: seen.append((phi.t, len(taken))) or gradient(phi))
        _, dt, _ = plan = mdsolver.schedule(sc)
        series, checks = mdsolver.run(sc, plan)
        assert checks["planar_at"] is not None and len(seen) == len(series["t"]) > 2
        assert [steps for _, steps in seen] == [round(t / dt) for t, _ in seen]


class TestWhenToHandOff:
    def test_a_planar_mode_waits_for_a_constant_far_field(self, monkeypatch):
        # k_2 = 0: the cylinder is planar from t = 0, its far field is not
        sc = config(TINY_2D.replace("w0_modes = 1,1,0.1; 0,2,0.05", "w0_modes = 1,0,0.1"))
        seen, assemble_bundle = [], mdsolver.assemble_bundle
        monkeypatch.setattr(mdsolver, "assemble_bundle", lambda w, prof, *args: seen.append(
            (prof.t, max(float(np.max(np.abs(s - np.mean(s)))) for s in w)))
            or assemble_bundle(w, prof, *args))
        run = mdsolver.run(sc, mdsolver.schedule(sc))
        monkeypatch.undo()
        at = run[1]["planar_at"]
        assert at is not None and at["t"] > 0.5
        # the last cylinder record is the hand-off's, the first with a constant far field
        assert seen[-1][0] == at["t"] and seen[-1][1] < mdsolver.PLANAR_TOL
        assert all(gap >= mdsolver.PLANAR_TOL for _, gap in seen[:-1])
        assert_within_gate(run, never_handing_off(monkeypatch, sc))

    @pytest.mark.parametrize("snapshots", ["auto", "0, 0.5, 1, 2"])
    def test_a_planar_bump_hands_off_at_the_first_record(self, monkeypatch, snapshots):
        # no modes: exactly planar at t = 0, where tau is 0 and a tolerance
        # of 0 must still not hand off
        sc = config(TINY_2D.replace("w0_modes = 1,1,0.1; 0,2,0.05", "v0 = gaussian:0.1,0,2")
                    .replace("snapshots = auto", f"snapshots = {snapshots}"))
        _, dt, _ = plan = mdsolver.schedule(sc)
        run = mdsolver.run(sc, plan)
        first = min(round(t / dt) for t in sc.snapshot_times)
        assert run[1]["planar_at"]["step"] == first
        assert_within_gate(run, never_handing_off(monkeypatch, sc))


class TestManifest:
    def test_simulate_reports_the_hand_off(self, monkeypatch, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_2D)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        at = json.loads((tmp_path / "a" / "manifest.json").read_text())["planar_at"]
        sc = config(TINY_2D)
        assert at == mdsolver.run(sc, mdsolver.schedule(sc))[1]["planar_at"]
        assert set(at) == {"step", "t", "tau"}
        monkeypatch.setattr(mdsolver, "PLANAR_TOL", 0.0)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert json.loads((tmp_path / "b" / "manifest.json").read_text())["planar_at"] is None
        rates = [json.loads((tmp_path / d / "rates.json").read_text()) for d in "ab"]
        assert rates[0].keys() == rates[1].keys() and "planar_at" not in rates[0]
