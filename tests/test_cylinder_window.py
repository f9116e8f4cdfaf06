"""The cylinder window of `mdsolver.run`: the whole run, the cylinder,
the profile, the line after a hand-off and every record, holds the x1
cells of a window only, and reads what lies beyond from the far field
and the end states.  Step k of the cylinder march holds [-W, W],
W = W(t_{k+1}) of `cylinder_window`, which grows with the reach; the
profile and the line hold W(t_end).  A windowed run must match the same
run on the whole line (`cylinder_window` patched to return L at every
time, so that no step grows): every norm column within 1e-14 but phi_l1
(1e-11, the roundoff mass the whole line holds outside the window) and
tail_mass (1e-4, the golden gate's), the same hand-off and the same rate
verdicts, also at t = 50, where the fan's viscous layer has spread.  A
window without the data's support, one that a fast bump outruns, one
that the line after a hand-off carries a bump past, one that grows by 6
sqrt(t) in place of `WINDOW_MARGIN` sqrt(t), or one that grows by a
smaller margin than the final window's, trips the self-check of the
march that leaves it, and with the check off it fails that
comparison."""

import json
import math

import numpy as np
import pytest

from rarelab import cli, mdsolver, stepping
from rarelab.domain import make_grid
from rarelab.errors import NumericalAbort
from rarelab.mdsolver import NORM_COLUMNS, WINDOW_MARGIN
from rarelab.profile1d import make_initial_state

# cyl2d_tiny's modes and fit window on a line long enough to window: W = 34 < L = 40
WINDOWED = """\
experiment = simulate
dim = 2
flux = burgers
L = 40
n1 = 320
n_torus = 8
t_end = 2
rates.window = 1,2
w0_modes = 1,1,0.1; 0,2,0.05
snapshots = auto
"""
CUBIC = WINDOWED.replace("flux = burgers", "flux = cubic\nul = 0.7\nur = 1.2")
TINY_2D = WINDOWED.replace("L = 40", "L = 12").replace("n1 = 320", "n1 = 96")
TINY_3D = TINY_2D.replace("dim = 2", "dim = 3").replace("n_torus = 8", "n_torus = 8,8").replace(
    "w0_modes = 1,1,0.1; 0,2,0.05", "w0_modes = 1,1,1,0.1; 0,1,2,0.05")
# t = 50 on a line that still windows, W = 112 < L = 130, with modes small
# enough that the fan's own speed sets the reach: 6 sqrt(t) past it (W = 87)
# the fan's viscous layer puts 6e-10 outside the window by t = 50
LATE = WINDOWED.replace("L = 40", "L = 130").replace("n1 = 320", "n1 = 1040").replace(
    "t_end = 2", "t_end = 50").replace("snapshots = auto", "snapshots = 1,10,30,35,40,45,50").replace(
    "w0_modes = 1,1,0.1; 0,2,0.05", "w0_modes = 1,1,0.001; 0,2,0.0005")
# a bump whose own extent, not the fan, sets the window: W = 37, reach alone 15
FAR_BUMP = WINDOWED + "v0 = gaussian:0.1,16,1\n"
# a bump that outruns the window of the end states' speed (32): Burgers
# carries it at up to ur + 200
FAST_BUMP = WINDOWED.replace("L = 40", "L = 36").replace("n1 = 320", "n1 = 288").replace(
    "t_end = 2", "t_end = 0.25").replace("snapshots = auto", "snapshots = 0.05,0.13,0.16,0.19,0.22,0.25") + (
    "v0 = gaussian:200,22,0.75\n")
# no modes: the run hands off at t = 0, and the line carries the bump
# past the edge of a window of 32 (the rule's is the whole line, 40)
LINE_BUMP = WINDOWED.replace("w0_modes = 1,1,0.1; 0,2,0.05\n", "") + "v0 = gaussian:0.1,24,1\n"
TOLERANCE = dict.fromkeys(NORM_COLUMNS, 1e-14) | dict(phi_l1=1e-11, tail_mass=1e-4)


def config(text):
    return cli.solver_config_from_dict(cli.parse_config(text))


def line_of(sc):
    """(x1, the line data p0 + v0) of a run's cylinder."""
    x1 = make_grid(sc.spec).x1
    line = make_initial_state(sc.spec.L, sc.spec.n1, sc.ul, sc.ur).values
    return x1, line if sc.v0 is None else line + sc.v0(x1)


def window_of(sc):
    return mdsolver.cylinder_window(sc, *line_of(sc))(sc.t_end)


def support(sc):
    x1, line = line_of(sc)
    return float(np.max(np.abs(x1[np.where(x1 < 0, line != sc.ul, line != sc.ur)])))


def reach(sc):
    """The reach at the end states' speed, blind to a bump's."""
    speed = max(abs(float(sc.flux.df[0](np.float64(u)))) for u in (sc.ul, sc.ur))
    return speed * sc.t_end + WINDOW_MARGIN * math.sqrt(sc.t_end)


def run_with_window(monkeypatch, sc, half):
    """The run with the window rule patched to `half` at every time, or
    with its own rule when `half` is None."""
    return run_holding(monkeypatch, sc, half)[0]


def run_holding(monkeypatch, sc, half):
    """(`run_with_window`'s run, the x1 cells each cylinder step held)."""
    held, strang_step = [], stepping.strang_step

    def spy(state, dt, ndim, sweep, rhs):
        if len(state[0]) == 2:  # the cylinder and its far field
            held.append(state[0][0].shape[-1])
        return strang_step(state, dt, ndim, sweep, rhs)

    with monkeypatch.context() as m:
        m.setattr(stepping, "strang_step", spy)
        if half is not None:
            m.setattr(mdsolver, "cylinder_window", lambda config, x1, line: lambda t: half)
        return mdsolver.run(sc, mdsolver.schedule(sc)), held


def grown_by(margin):
    """A window rule that grows by `margin` sqrt(t) in place of
    `WINDOW_MARGIN` sqrt(t) and ends on the rule's own W(t_end)."""
    rule = mdsolver.cylinder_window

    def short(config, x1, line):
        final = rule(config, x1, line)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mdsolver, "WINDOW_MARGIN", margin)
            early = rule(config, x1, line)
        return lambda t: final(t) if t >= config.t_end else early(t)
    return short


def statuses(series):
    t_end = float(series["t"][-1])
    report = cli._rate_report(series, (t_end / 2, t_end), None)
    return {key: entry["status"] for key, entry in report.items() if "status" in entry}


def departures(run, ref) -> list[str]:
    """What keeps `run` from matching `ref`, the whole-line run."""
    found = [name for name in NORM_COLUMNS
             if not np.all(np.abs(run[0][name] - ref[0][name]) <= TOLERANCE[name])]
    if run[1]["planar_at"] != ref[1]["planar_at"]:
        found.append("planar_at")
    if statuses(run[0]) != statuses(ref[0]):
        found.append("statuses")
    return found


class TestEquivalence:
    @pytest.mark.parametrize("text, never", [(WINDOWED, False), (WINDOWED, True), (CUBIC, False),
                                             (LATE, False), (LATE, True), (FAR_BUMP, False)],
                             ids=["hands-off", "never-hands-off", "cubic", "late-hands-off",
                                  "late", "far-bump"])
    def test_the_window_matches_the_whole_line(self, monkeypatch, text, never):
        sc = config(text)
        if never:
            monkeypatch.setattr(mdsolver, "PLANAR_TOL", 0.0)
        run, grown = run_holding(monkeypatch, sc, None)
        ref, whole = run_holding(monkeypatch, sc, round(sc.spec.L))
        half = window_of(sc)
        assert half < sc.spec.L
        assert run[1]["cylinder_window"] == dict(L=half, n1=round(2 * half / sc.spec.dx1))
        assert ref[1]["cylinder_window"] == dict(L=sc.spec.L, n1=sc.spec.n1)
        # the reference steps the whole line at every step; the run grows
        assert whole and set(whole) == {sc.spec.n1}
        assert grown[0] < grown[-1] <= 2 * half * round(1 / sc.spec.dx1)
        assert (run[1]["planar_at"] is None) == never
        assert departures(run, ref) == []
        assert run[1]["max_courant"] == pytest.approx(ref[1]["max_courant"], rel=1e-12, abs=0)

    @pytest.mark.parametrize("text", [WINDOWED, FAR_BUMP], ids=["hands-off", "far-bump"])
    def test_step_k_holds_the_window_of_its_end(self, monkeypatch, text):
        sc = config(text)
        steps, dt, _ = mdsolver.schedule(sc)
        (_, checks), held = run_holding(monkeypatch, sc, None)
        at = checks["planar_at"]
        assert len(held) == (steps if at is None else at["step"])
        rule, m1 = mdsolver.cylinder_window(sc, *line_of(sc)), round(1 / sc.spec.dx1)
        widths = [min(rule((k + 1) * dt), rule(sc.t_end)) for k in range(len(held))]
        assert held == [2 * w * m1 for w in widths]
        assert widths[0] < widths[-1]

    @pytest.mark.parametrize("text, short, march", [
        (FAR_BUMP, lambda sc: math.ceil(reach(sc)), "cylinder"),
        (FAST_BUMP, lambda sc: math.ceil(support(sc) + reach(sc)), "cylinder"),
        (LINE_BUMP, lambda sc: 32, "line"),
    ], ids=["no-support-term", "end-state-speed", "line-bump"])
    def test_a_window_too_short_is_caught(self, monkeypatch, text, short, march):
        sc = config(text)
        half = short(sc)
        assert half < window_of(sc)
        with pytest.raises(NumericalAbort) as exc:
            run_with_window(monkeypatch, sc, half)
        assert exc.value.reason == "window"
        assert exc.value.detail.startswith(f"the {march}'s ")
        # with the self-check off (its roundoff floor at infinity) the run
        # completes, departs from the whole line and is flagged truncated
        ref = run_with_window(monkeypatch, sc, round(sc.spec.L))
        monkeypatch.setattr(mdsolver, "TAIL_FLOOR", math.inf)
        short_run = run_with_window(monkeypatch, sc, half)
        assert "phi_l1" in departures(short_run, ref)
        assert short_run[1]["truncated_at"] is not None  # the edge measure sees it too

    def test_the_fan_outruns_a_window_of_six_sqrt_t(self, monkeypatch):
        # the margin a 1e-5 sup error needs, not the TAIL_FLOOR the check
        # enforces: the fan's viscous layer reaches the growing window's
        # edge, which the check of a widening finds between two records
        sc = config(LATE)
        monkeypatch.setattr(mdsolver, "PLANAR_TOL", 0.0)
        monkeypatch.setattr(mdsolver, "WINDOW_MARGIN", 6.0)
        assert window_of(sc) == 87
        with pytest.raises(NumericalAbort) as exc:
            mdsolver.run(sc, mdsolver.schedule(sc))
        assert exc.value.reason == "window" and 40 < exc.value.t < 45
        assert exc.value.detail.startswith("the cylinder's left edge, 80 < |x1| < 81,")

    def test_a_window_that_grows_too_slowly_is_caught(self, monkeypatch):
        # a bump far from the fan spreads past a window grown by 2 sqrt(t),
        # though the window it ends on holds it
        sc = config(FAR_BUMP)
        with monkeypatch.context() as m:
            m.setattr(mdsolver, "cylinder_window", grown_by(2.0))
            with pytest.raises(NumericalAbort) as exc:
                mdsolver.run(sc, mdsolver.schedule(sc))
        assert exc.value.reason == "window" and exc.value.t < sc.t_end
        assert exc.value.detail.startswith("the cylinder's right edge, ")
        # with the self-check off the run completes and departs from the
        # whole line; its edge mass stays below the truncation flag's tolerance
        ref = run_with_window(monkeypatch, sc, round(sc.spec.L))
        monkeypatch.setattr(mdsolver, "TAIL_FLOOR", math.inf)
        monkeypatch.setattr(mdsolver, "cylinder_window", grown_by(2.0))
        slow = mdsolver.run(sc, mdsolver.schedule(sc))
        assert slow[1]["cylinder_window"]["L"] == window_of(sc)
        assert "phi_l1" in departures(slow, ref)


class TestBeyondTheWindow:
    def test_the_outside_terms_are_the_whole_lines(self, monkeypatch):
        # |u - p|_inf at every record and tau at the hand-off are those of
        # the whole line built from the window's states, the far field's
        # rows beyond the cylinder, the far-field means beyond the line and
        # the end states beyond the profile, bit for bit; the cylinder's
        # window grows, so the profile's periods beyond it count too
        sc = config(WINDOWED)
        spec, snap = sc.spec, mdsolver.schedule(sc)[2]
        seen, profiles = [], []
        evolve, march = mdsolver.evolve_profile, mdsolver.march

        def evolve_spy(*args):
            for prof in evolve(*args):
                profiles.append(prof.values)
                yield prof

        def march_spy(state, plan, ndim, sweep, rhs, check, keep):
            def kept(k, st):  # (the run's step, the state) at a record or a segment's end
                out = keep(k, st)
                if out[0] in snap:
                    seen.append([s.copy() for s in out[1]])
                return out
            return march(state, plan, ndim, sweep, rhs, check, kept)

        monkeypatch.setattr(mdsolver, "evolve_profile", evolve_spy)
        monkeypatch.setattr(mdsolver, "march", march_spy)
        series, checks = mdsolver.run(sc, mdsolver.schedule(sc))
        off = (spec.n1 - checks["cylinder_window"]["n1"]) // 2
        m1 = round(1 / spec.dx1)
        at = checks["planar_at"]
        assert off > 0 and at is not None and len(seen) == series["t"].size
        far, offsets = None, set()
        for i, state in enumerate(seen):
            if len(state) == 2:  # the cylinder and its far field
                march_v, (wl, wr) = state
                beyond = np.arange((spec.n1 - march_v.shape[-1]) // 2) % m1
                offsets.add(beyond.size)
                v = np.concatenate((wl[beyond], np.moveaxis(march_v, -1, 0), wr[beyond]))
                if series["t"][i] == at["t"]:
                    torus = np.mean(v, axis=1, keepdims=True)
                    tau = max(float(np.max(np.abs(v - torus))),
                              *(float(np.max(np.abs(w - np.mean(w)))) for w in (wl, wr)))
                    assert tau == at["tau"]
                    far = [float(np.mean(w)) for w in (wl, wr)]
                prof = profiles[i]
            else:  # the line and the profile; beyond the window the far-field means
                line, prof = state[0]
                v = np.concatenate((np.full(off, far[0]), line, np.full(off, far[1])))[:, None]
            p = np.concatenate((np.full(off, sc.ul), prof, np.full(off, sc.ur)))
            assert series["u_minus_profile_linf"][i] == np.max(np.abs(v - p[:, None]))
        assert far is not None and series["t"][-1] > at["t"]
        assert len(offsets) > 1 and min(offsets) > off  # it grew, short of the profile's window


class TestRule:
    @pytest.mark.parametrize("text", [WINDOWED, CUBIC, TINY_2D, TINY_3D],
                             ids=["burgers", "cubic", "tiny-2d", "tiny-3d"])
    def test_an_integer_half_length_within_the_line(self, text):
        sc = config(text)
        half = window_of(sc)
        assert isinstance(half, int) and 0 < half <= sc.spec.L

    @pytest.mark.parametrize("text", [TINY_2D, TINY_3D], ids=["2d", "3d"])
    def test_the_tiny_configs_keep_the_whole_line(self, text):
        sc = config(text)
        assert window_of(sc) == sc.spec.L

    def test_the_window_holds_a_bump_far_from_the_fan(self):
        # cyl2d's line at a quarter of its cells: the tangent data alone
        # leaves the window at 34, a bump centered at 40 widens it to 67
        base = WINDOWED.replace("L = 40", "L = 80").replace("n1 = 320", "n1 = 640")
        bare, bumped = config(base), config(base + "v0 = gaussian:0.1,40,2\n")
        assert window_of(bare) == 34 and window_of(bumped) == 67
        # beyond the support the line data is its end states, bit for bit
        x1, line = line_of(bumped)
        beyond = np.abs(x1) > support(bumped)
        assert np.all(line[beyond] == np.where(x1 < 0, bumped.ul, bumped.ur)[beyond])
        assert support(bumped) > 40.0  # the bump is there

    def test_the_window_holds_a_fast_bump(self):
        # the bump's amplitude is the speed that sets the reach: the window
        # is the whole line, where the end states' speed would cut it at 32
        sc = config(FAST_BUMP)
        assert window_of(sc) == sc.spec.L
        assert math.ceil(support(sc) + reach(sc)) == 32


def test_the_manifest_reports_the_window(tmp_path):
    cfg = tmp_path / "windowed.cfg"
    cfg.write_text(WINDOWED)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["cylinder_window"] == {"L": 34, "n1": 272}
