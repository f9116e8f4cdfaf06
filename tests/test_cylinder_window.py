"""The cylinder window of `mdsolver.run`: the multi-d march holds the x1
cells of [-W, W] only, W = `cylinder_window`, and each record reads every
other cell from the far-field row it lies on.  A windowed run must match
the same run on the whole line (`cylinder_window` patched to return L):
every norm column within 1e-14 but phi_l1 (1e-11, the roundoff mass the
whole line holds outside the window) and tail_mass (1e-4, the golden
gate's), the same hand-off and the same rate verdicts, also at t = 50,
where the fan's viscous layer has spread.  A window without the data's
support, or one that a fast bump outruns, trips the run's self-check,
and with the check off it fails that comparison."""

import json
import math

import numpy as np
import pytest

from rarelab import cli, mdsolver
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
TOLERANCE = dict.fromkeys(NORM_COLUMNS, 1e-14) | dict(phi_l1=1e-11, tail_mass=1e-4)


def config(text):
    return cli.solver_config_from_dict(cli.parse_config(text))


def line_of(sc):
    """(x1, the line data p0 + v0) of a run's cylinder."""
    x1 = make_grid(sc.spec).x1
    line = make_initial_state(sc.spec.L, sc.spec.n1, sc.ul, sc.ur).values
    return x1, line if sc.v0 is None else line + sc.v0(x1)


def window_of(sc):
    return mdsolver.cylinder_window(sc, *line_of(sc))


def support(sc):
    x1, line = line_of(sc)
    return float(np.max(np.abs(x1[np.where(x1 < 0, line != sc.ul, line != sc.ur)])))


def reach(sc):
    """The reach at the end states' speed, blind to a bump's."""
    speed = max(abs(float(sc.flux.df[0](np.float64(u)))) for u in (sc.ul, sc.ur))
    return speed * sc.t_end + WINDOW_MARGIN * math.sqrt(sc.t_end)


def run_with_window(monkeypatch, sc, half):
    with monkeypatch.context() as m:
        if half is not None:
            m.setattr(mdsolver, "cylinder_window", lambda config, x1, line: half)
        return mdsolver.run(sc, mdsolver.schedule(sc))


def statuses(series):
    t_end = float(series["t"][-1])
    report = cli._rate_report(series, (t_end / 2, t_end))
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
                                             (LATE, True), (FAR_BUMP, False)],
                             ids=["hands-off", "never-hands-off", "cubic", "late", "far-bump"])
    def test_the_window_matches_the_whole_line(self, monkeypatch, text, never):
        sc = config(text)
        if never:
            monkeypatch.setattr(mdsolver, "PLANAR_TOL", 0.0)
        run = run_with_window(monkeypatch, sc, None)
        ref = run_with_window(monkeypatch, sc, round(sc.spec.L))
        half = window_of(sc)
        assert half < sc.spec.L
        assert run[1]["cylinder_window"] == dict(L=half, n1=round(2 * half / sc.spec.dx1))
        assert ref[1]["cylinder_window"] == dict(L=sc.spec.L, n1=sc.spec.n1)
        assert (run[1]["planar_at"] is None) == never
        assert departures(run, ref) == []
        assert run[1]["max_courant"] == pytest.approx(ref[1]["max_courant"], rel=1e-12, abs=0)

    @pytest.mark.parametrize("text, short", [(FAR_BUMP, lambda sc: math.ceil(reach(sc))),
                                             (FAST_BUMP, lambda sc: math.ceil(support(sc) + reach(sc)))],
                             ids=["no-support-term", "end-state-speed"])
    def test_a_window_too_short_is_caught(self, monkeypatch, text, short):
        sc = config(text)
        half = short(sc)
        assert half < window_of(sc)
        with pytest.raises(NumericalAbort) as exc:
            run_with_window(monkeypatch, sc, half)
        assert exc.value.reason == "window"
        # with the self-check off (its roundoff floor at infinity) the run
        # completes, and it departs from the whole line
        ref = run_with_window(monkeypatch, sc, round(sc.spec.L))
        monkeypatch.setattr(mdsolver, "TAIL_FLOOR", math.inf)
        assert "phi_l1" in departures(run_with_window(monkeypatch, sc, half), ref)


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
