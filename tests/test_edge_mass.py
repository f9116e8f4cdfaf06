"""The edge mass, `domain.edge_mass`, the one measure of a line's
truncation: every march of a run takes it at every record, over its
outermost unit period on each side, against what lies beyond its pinned
end.  A run whose edge mass exceeds `EDGE_TOL` is flagged at
`truncated_at`, and each rate verdict whose fit window reaches that time
reads "truncated", which is neither pass nor fail."""

import json
import shutil

import numpy as np
import pytest

from rarelab import cli, mdsolver
from rarelab.domain import EDGE_TOL, edge_mass, truncation
from test_cli import TINY_SIMULATE, TINY_SIMULATE_3D, run_cli
from test_one_end import non_decaying_table

# `long2d` on half its grid: the fan's viscous layer reaches the pinned
# ends at L = 20 before t_end, and not on a line twice as long
LONG2D = """\
experiment = simulate
dim = 2
flux = burgers
L = 20
n1 = 160
n_torus = 8
t_end = 20
w0_modes = 1,1,0.1; 0,2,0.05
snapshots = auto
"""
LONG2D_TWICE = LONG2D.replace("L = 20", "L = 40").replace("n1 = 160", "n1 = 320")
PROFILE = "L = 20\nn1 = 200\nt_end = 20\nsnapshots = " + ",".join(map(str, range(1, 21))) + "\n"
PROFILE_TWICE = PROFILE.replace("L = 20", "L = 40").replace("n1 = 200", "n1 = 400")
# how far below EDGE_TOL the tiny bench configs' twins stay (measured 46x)
MARGIN = 10.0


def run(tmp_path, command, text, name):
    """(exit code, manifest, rates.json or None) of a CLI run in tmp_path/name."""
    out = tmp_path / name
    out.mkdir()
    code = run_cli(out, command, text)
    rates = out / "out" / "rates.json"
    return (code, json.loads((out / "out" / "manifest.json").read_text()),
            json.loads(rates.read_text()) if rates.exists() else None)


def statuses(report) -> dict:
    return {key: entry["status"] for key, entry in report.items()
            if isinstance(entry, dict) and "status" in entry}


class TestMeasure:
    def test_it_reads_the_outermost_period_of_each_side(self):
        v = np.zeros((12, 3))
        v[1, 2], v[-4] = 0.5, -1.0
        v[4:8] = 7.0  # the periods next to the outermost ones are not read
        assert edge_mass(v, (0.0, 0.0), 4, 0.1) == (0.05, 0.30000000000000004)
        assert edge_mass(v, (v[:4], v[-4:]), 4, 1.0) == (0.0, 0.0)
        assert edge_mass(np.arange(8.0), (0.0, 7.0), 2, 1.0) == (1.0, 1.0)

    def test_truncation_is_the_first_record_above_the_tolerance(self):
        records = [(0.0, 1e-6), (1.0, 2 * EDGE_TOL), (2.0, EDGE_TOL), (3.0, 3 * EDGE_TOL)]
        assert truncation(records) == dict(edge_mass=3 * EDGE_TOL, truncated_at=1.0)
        assert truncation(records[:1]) == dict(edge_mass=1e-6, truncated_at=None)

    def test_every_record_measures_the_profile_and_the_march(self, monkeypatch):
        # the cylinder's records, then the line's after the hand-off
        sc = cli.solver_config_from_dict(cli.parse_config(TINY_SIMULATE))
        seen, measure = [], mdsolver.edge_mass
        monkeypatch.setattr(mdsolver, "edge_mass",
                            lambda *args: seen.append(np.ndim(args[0])) or measure(*args))
        series, checks = mdsolver.run(sc, mdsolver.schedule(sc))
        k, records = list(series["t"]).index(checks["planar_at"]["t"]), len(series["t"])
        assert 0 < k < records - 1
        assert seen == [1, 2] * (k + 1) + [1, 1] * (records - k - 1)


class TestSimulate:
    def test_a_line_the_fan_reaches_is_flagged(self, tmp_path):
        code, manifest, report = run(tmp_path, "simulate", LONG2D, "short")
        assert code == 0
        assert manifest["edge_mass"] > EDGE_TOL
        assert manifest["truncated_at"] == pytest.approx(8.6, abs=0.05)
        assert set(statuses(report).values()) == {"truncated"}
        # without the flag every verdict reads pass
        table = np.genfromtxt(tmp_path / "short" / "out" / "norms.csv", delimiter=",", names=True)
        assert set(statuses(cli._rate_report(table, None, None)).values()) == {"pass"}

    def test_a_line_twice_as_long_is_not_flagged(self, tmp_path):
        code, manifest, report = run(tmp_path, "simulate", LONG2D_TWICE, "long")
        assert code == 0
        assert manifest["edge_mass"] < 1e-6 and manifest["truncated_at"] is None
        assert set(statuses(report).values()) == {"pass"}

    @pytest.mark.parametrize("text", [TINY_SIMULATE, TINY_SIMULATE_3D], ids=["2d", "3d"])
    def test_the_tiny_runs_keep_their_margin(self, tmp_path, text):
        code, manifest, _ = run(tmp_path, "simulate", text, "tiny")
        assert code == 0 and manifest["truncated_at"] is None
        assert manifest["edge_mass"] * MARGIN < EDGE_TOL


class TestRates:
    @pytest.fixture(scope="class")
    def flagged(self, tmp_path_factory):
        """The output directory of the flagged run, and its manifest."""
        tmp_path = tmp_path_factory.mktemp("flagged")
        _, manifest, _ = run(tmp_path, "simulate", LONG2D, "short")
        return tmp_path / "short" / "out", manifest

    def test_rates_reproduces_the_flag(self, tmp_path, flagged):
        out, _ = flagged
        code, _, report = run(tmp_path, "rates", f"input = {out / 'norms.csv'}\n", "r")
        assert code == 0 and set(statuses(report).values()) == {"truncated"}
        assert statuses(report) == statuses(json.loads((out / "rates.json").read_text()))

    def test_a_window_that_ends_before_the_flag_keeps_its_statuses(self, tmp_path, flagged):
        out, manifest = flagged
        text = f"input = {out / 'norms.csv'}\nrates.window = 2,8\n"
        assert 8 < manifest["truncated_at"]
        _, _, report = run(tmp_path, "rates", text, "early")
        table = np.genfromtxt(out / "norms.csv", delimiter=",", names=True)
        assert report == json.loads(json.dumps(cli._rate_report(table, (2, 8), None)))
        _, _, report = run(tmp_path, "rates", text.replace("2,8", "2,9"), "late")
        assert set(statuses(report).values()) == {"truncated"}

    def test_a_table_without_its_manifest_has_no_flag(self, tmp_path, flagged):
        out, _ = flagged
        (tmp_path / "copy").mkdir()
        shutil.copy(out / "norms.csv", tmp_path / "copy" / "norms.csv")
        _, _, report = run(tmp_path, "rates", f"input = {tmp_path / 'copy' / 'norms.csv'}\n", "r")
        assert set(statuses(report).values()) == {"pass"}
        # a manifest that digests another table flags nothing either
        shutil.copy(out / "manifest.json", tmp_path / "copy" / "manifest.json")
        with open(tmp_path / "copy" / "norms.csv", "a") as fh:
            fh.write("\n")
        _, _, report = run(tmp_path, "rates", f"input = {tmp_path / 'copy' / 'norms.csv'}\n", "r2")
        assert set(statuses(report).values()) == {"pass"}

    def test_exit_code_3_still_means_only_fail(self, tmp_path):
        # a table whose every verdict fails, flagged at t = 5 by its manifest
        src = non_decaying_table(tmp_path / "norms.csv")
        text = f"input = {src}\n"
        assert run(tmp_path, "rates", text, "bare")[0] == 3
        for truncated_at, code in ((5.0, 0), (10.5, 3)):
            (tmp_path / "manifest.json").write_text(json.dumps(
                {"files": {"norms.csv": cli._sha256(src)}, "truncated_at": truncated_at}))
            assert run(tmp_path, "rates", text, str(truncated_at))[0] == code


class TestProfile:
    def test_a_line_the_fan_reaches_is_flagged(self, tmp_path):
        code, manifest, _ = run(tmp_path, "profile", PROFILE, "short")
        assert code == 0 and manifest["edge_mass"] > EDGE_TOL
        assert manifest["truncated_at"] == pytest.approx(9.0, abs=0.05)  # 9 on the step grid

    def test_a_line_twice_as_long_is_not_flagged(self, tmp_path):
        code, manifest, _ = run(tmp_path, "profile", PROFILE_TWICE, "long")
        assert code == 0 and manifest["edge_mass"] < 1e-6 and manifest["truncated_at"] is None
