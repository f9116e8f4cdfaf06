import ctypes
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from rarelab import cli
from rarelab.mdsolver import NORM_COLUMNS, run

GOLDEN = Path(__file__).resolve().parent / "golden"

TINY_SIMULATE = """\
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


class TestSimulateManifest:
    def test_reports_step_count_and_dt(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_SIMULATE)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "dt_steps" not in manifest
        traj = run(cli.solver_config_from_dict(cli.load_config(cfg_path)))
        assert manifest["steps"] == traj.steps
        assert manifest["dt"] == traj.dt
        assert manifest["steps"] * manifest["dt"] == pytest.approx(2.0, rel=1e-12)
        rows = (out / "norms.csv").read_text().strip().splitlines()[1:]
        assert manifest["steps"] > len(rows)

TINY_SIMULATE_3D = TINY_SIMULATE.replace("dim = 2", "dim = 3").replace(
    "n_torus = 8", "n_torus = 8,8").replace(
    "w0_modes = 1,1,0.1; 0,2,0.05", "w0_modes = 1,1,1,0.1; 0,1,2,0.05")


def simulate(tmp_path, text, name="run"):
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(text)
    out = tmp_path / name
    return cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]), out


def read_table(path):
    lines = Path(path).read_text().strip().splitlines()
    return lines[0].split(","), np.array([row.split(",") for row in lines[1:]], dtype=float)


class TestGoldenNormTables:
    """The tiny 2-d and 3-d runs reproduce norm tables recorded before the
    steppers were merged into one Strang step, within the benchmark's
    tolerance: 1e-11 + 1e-9 |golden| per entry, 1e-4 absolute for
    tail_mass."""

    @pytest.mark.parametrize("text, golden", [
        (TINY_SIMULATE, "simulate2d_norms.csv"),
        (TINY_SIMULATE_3D, "simulate3d_norms.csv"),
    ])
    def test_norm_table_matches_golden(self, tmp_path, text, golden):
        code, out = simulate(tmp_path, text)
        assert code == 0
        head, new = read_table(out / "norms.csv")
        ghead, old = read_table(GOLDEN / golden)
        assert head == ghead and new.shape == old.shape
        atol = np.array([1e-4 if name == "tail_mass" else 1e-11 for name in head])
        assert np.all(np.abs(new - old) <= atol + 1e-9 * np.abs(old))


class TestOneVerdictPath:
    def test_rates_reproduces_simulate_verdicts(self, tmp_path):
        code, out = simulate(tmp_path, TINY_SIMULATE)
        assert code == 0
        sim = json.loads((out / "rates.json").read_text())
        cfg_path = tmp_path / "rates.cfg"
        cfg_path.write_text(f"input = {out / 'norms.csv'}\nrates.window = 1,2\n")
        assert cli.main(["rates", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
        again = json.loads((tmp_path / "r" / "rates.json").read_text())
        verdicts = {k: v for k, v in sim.items() if isinstance(v, dict)}
        assert set(verdicts) == set(again)
        assert "ordering" in again and "main_rate" in again
        for key, entry in verdicts.items():
            assert again[key] == entry, key

    def test_main_rate_fits_the_exported_column(self, tmp_path):
        code, out = simulate(tmp_path, TINY_SIMULATE)
        assert code == 0
        main = json.loads((out / "rates.json").read_text())["main_rate"]
        head, table = read_table(out / "norms.csv")
        col = dict(zip(head, table.T))
        fit = cli.fit_power_law(col["t"], col["u_minus_profile_linf"], (1.0, 2.0))
        assert main["fit"]["exponent"] == fit.exponent


class TestExitCodes:
    @pytest.mark.parametrize("dt", ["0", "-0.01"])
    def test_nonpositive_dt_is_a_config_error(self, tmp_path, capsys, dt):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(TINY_SIMULATE + f"dt = {dt}\n")
        assert cli.main(["validate", "--config", str(cfg_path)]) == 1
        assert "dt must be positive" in capsys.readouterr().out
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert "dt must be positive" in capsys.readouterr().err

    def test_dt_above_the_stable_step_aborts(self, tmp_path, capsys):
        text = TINY_SIMULATE + "dt = 1.0\n"
        cfg_path = tmp_path / "big.cfg"
        cfg_path.write_text(text)
        assert cli.main(["validate", "--config", str(cfg_path)]) == 0
        code, _ = simulate(tmp_path, text)
        assert code == 2
        assert "requested dt" in capsys.readouterr().err

    def test_non_decaying_norms_fail_the_rates(self, tmp_path, capsys):
        t = np.linspace(0.5, 10.0, 20)
        table = tmp_path / "norms.csv"
        with open(table, "w") as fh:
            fh.write(",".join(NORM_COLUMNS) + "\n")
            for ti in t:
                row = [ti] + [1.0 + ti] * (len(NORM_COLUMNS) - 2) + [0.0]
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
        cfg_path = tmp_path / "rates.cfg"
        cfg_path.write_text(f"input = {table}\n")
        assert cli.main(["rates", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 3
        assert "main_rate" in capsys.readouterr().err
        report = json.loads((tmp_path / "r" / "rates.json").read_text())
        assert report["main_rate"]["status"] == "fail"

    def test_window_inside_the_transient_is_a_config_error(self, tmp_path, capsys):
        code, out = simulate(tmp_path, TINY_SIMULATE)
        assert code == 0
        cfg_path = tmp_path / "rates.cfg"
        cfg_path.write_text(f"input = {out / 'norms.csv'}\nrates.window = 0.05,2\n")
        assert cli.main(["rates", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 1
        assert "transient" in capsys.readouterr().err

    @pytest.mark.parametrize("window, message", [
        ("1,x", "could not convert string to float: 'x'"),
        ("2,1", "rates.window must be two times lo < hi"),
        ("0.05,2", "starts inside the transient"),
    ])
    def test_bad_window_fails_before_the_solve(self, tmp_path, capsys, window, message):
        text = TINY_SIMULATE + f"rates.window = {window}\n"
        assert run_cli(tmp_path, "validate", text) == 1
        assert message in capsys.readouterr().out
        code, out = simulate(tmp_path, text)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (out / "norms.csv").exists()

    @pytest.mark.parametrize("snapshots", ["0.5", "0.5,1,1.5,2"])
    def test_sparse_snapshots_fail_before_the_solve(self, tmp_path, capsys, snapshots):
        text = TINY_SIMULATE.replace("snapshots = auto", f"snapshots = {snapshots}")
        code, out = simulate(tmp_path, text)
        assert code == 1
        assert "holds under 4 snapshot times" in capsys.readouterr().err
        assert not (out / "norms.csv").exists()


ROUNDOFF_STEPS = """\
experiment = simulate
dim = 2
flux = burgers
L = 11
n1 = 88
n_torus = 4
w0_modes = 1,1,0.05
rates.window = 0.1,0.5
"""


EVERY_TWENTIETH = "snapshots = 0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5\n"


@pytest.mark.parametrize("t_end, dt, snapshots, steps", [
    (0.5, 0.010309278350515464, "", 49),
    (0.55, 0.55 / 30, EVERY_TWENTIETH, 30),
    (0.6, 0.6 / 55, EVERY_TWENTIETH, 55),
    (0.6, 0.6 / 111, EVERY_TWENTIETH, 111),
])
def test_profile_takes_the_cylinder_steps(tmp_path, t_end, dt, snapshots, steps):
    """The profile march re-derives its schedule from the cylinder's dt
    = t_end / steps, where t_end / dt can exceed steps by an ulp; it
    must take the same steps, or the record compares different times.
    The runs are too short for the rates to pass, so exit 3 is fine."""
    text = ROUNDOFF_STEPS + f"t_end = {t_end!r}\ndt = {dt!r}\n" + snapshots
    code, out = simulate(tmp_path, text)
    assert code in (0, 3)
    assert json.loads((out / "manifest.json").read_text())["steps"] == steps


class TestHeapPolicy:
    def test_main_applies_it(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(None))
        assert run_cli(tmp_path, "validate", TINY_SIMULATE) == 0
        assert len(calls) == 1

    def test_simulate_runs_where_the_c_library_has_no_mallopt(self, tmp_path, monkeypatch):
        opened = []
        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: opened.append(name) or types.SimpleNamespace())
        code, out = simulate(tmp_path, TINY_SIMULATE)
        assert code == 0 and opened == [None]
        assert (out / "norms.csv").exists()

    def test_importing_the_package_leaves_malloc_alone(self):
        script = (
            "import ctypes\n"
            "looked_up = []\n"
            "class Spy(ctypes.CDLL):\n"
            "    def __getattr__(self, name):\n"
            "        looked_up.append(name)\n"
            "        return super().__getattr__(name)\n"
            "ctypes.CDLL = Spy\n"
            "import rarelab, rarelab.cli\n"
            "print(looked_up.count('mallopt'))\n"
            "rarelab.cli._keep_freed_memory()\n"
            "print(looked_up.count('mallopt'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "1"]


def run_cli(tmp_path, command, text):
    cfg_path = tmp_path / f"{command}.cfg"
    cfg_path.write_text(text)
    args = ["--config", str(cfg_path)]
    if command != "validate":
        args += ["--out", str(tmp_path / "out")]
    return cli.main([command, *args])


class TestTorusAndProfileConfigs:
    """Bad input to any experiment is a config error (exit 1) with no
    traceback, and `validate` reports the same message, since it runs
    the same input stage."""

    @pytest.mark.parametrize("command, line, message", [
        ("periodic", "dt = 0", "dt must be positive"),
        ("periodic", "sizes = 2,2", "torus sizes must be at least 4"),
        ("periodic", "t_end = -1", "must span a positive time"),
        ("periodic", "snapshots = 0.1,9", "snapshot time 9.0 outside"),
        ("periodic", "w0_modes = 0,0,1", "not zero"),
        ("profile", "t_end = -1", "must span a positive time"),
        ("profile", "snapshots = 0.1,50", "snapshot time 50.0 outside"),
        ("profile", "n1 = 2", "n1 must be at least 4"),
        ("profile", "cfl = 0", "cfl must be positive"),
        ("profile", "snapshots = geometric:1,1", "ratio > 1"),
        ("profile", "flux = cubic", "f_1'' dips to"),
        ("periodic", "sizes = 8", "needs 1 wavenumbers + amplitude"),
        ("periodic", "w0_modes = 1,0.1", "needs 2 wavenumbers + amplitude"),
        ("decompose", "n1 = 2", "n1 must be at least 4"),
        ("decompose", "dim = 4", "dimension must be 1, 2 or 3"),
        ("decompose", "n_fields = 0", "n_fields must be at least 1"),
        ("decompose", "dim = 2\nn_torus = 8,8", "need 1 torus cell counts"),
        ("gn-study", "n_fields = 0", "n_fields must be at least 1"),
        ("gn-study", "j = 2\nm = 1", "need 0 <= j < m"),
        ("gn-study", "m = 3", "derivative orders up to 2"),
        ("gn-study", "q = 8", "fit no split level"),
        ("gn-study", "dim = 3\nn_torus = 8,8\nr = 1\nq = 4", "q must lie in [1, p]"),
        ("counterexample", "dilations = 1", "at least two distinct positive numbers"),
        ("counterexample", "dilations = 2,2", "at least two distinct positive numbers"),
        ("counterexample", "profile = box", "unknown profile 'box'"),
        ("counterexample", "thetas = 0,1.5", "thetas must lie in [0, 1]"),
        ("counterexample", "thetas =", "not be empty, got []"),
        ("counterexample", "n = 1", "n must be at least 2"),
        ("rates", "rates.window = 1,2", "needs input = <norms.csv>"),
        ("rates", "input = tests", "needs input = <norms.csv>"),
    ])
    def test_bad_input_is_a_config_error(self, tmp_path, capsys, command, line, message):
        text = f"experiment = {command}\nL = 10\nn1 = 100\nt_end = 0.5\n{line}\n"
        assert run_cli(tmp_path, command, text) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert "Traceback" not in err
        assert run_cli(tmp_path, "validate", text) == 1
        assert message in capsys.readouterr().out

    def test_malformed_norm_table_is_a_config_error(self, tmp_path, capsys):
        table = tmp_path / "norms.csv"
        table.write_text("t,phi_l1\n1\n2,3,4\n")
        text = f"experiment = rates\ninput = {table}\n"
        assert run_cli(tmp_path, "rates", text) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert run_cli(tmp_path, "validate", text) == 1

    @pytest.mark.parametrize("text", [
        "experiment = periodic\nsizes = 8,8\nt_end = 0.05\n",
        "experiment = profile\nL = 10\nn1 = 100\nt_end = 0.5\n",
        TINY_SIMULATE,
        "experiment = decompose\ndim = 2\n",
        "experiment = gn-study\ndim = 3\nj = 1\nm = 2\n",
        "experiment = counterexample\nprofile = hat\n",
    ])
    def test_valid_configs_pass(self, tmp_path, capsys, text):
        assert run_cli(tmp_path, "validate", text) == 0
        assert "no violations" in capsys.readouterr().out

    def test_unknown_experiment_is_a_violation(self, tmp_path, capsys):
        assert run_cli(tmp_path, "validate", "experiment = nothing\n") == 1
        assert "unknown experiment" in capsys.readouterr().out


class TestPeriodicDefaults:
    def test_default_run_fits_the_decay_rate(self, tmp_path):
        assert run_cli(tmp_path, "periodic", "experiment = periodic\n") == 0
        report = json.loads((tmp_path / "out" / "periodic_decay.json").read_text())
        assert report["sup_initial"] == pytest.approx(0.1, rel=1e-12)
        # heat rate of the (1, 1) mode on the unit torus: 8 pi^2
        assert report["rate_2alpha"] == pytest.approx(8 * np.pi**2, rel=1e-3)
        series = (tmp_path / "out" / "periodic_series.csv").read_text().splitlines()
        assert len(series) > 10


def test_cli_runs_store_no_fields(tmp_path, capsys):
    text = TINY_SIMULATE + "store_fields = true\n"
    assert run_cli(tmp_path, "simulate", text) == 1
    assert "unknown key 'store_fields' for simulate" in capsys.readouterr().err
    assert not (tmp_path / "out" / "norms.csv").exists()


class TestUnknownKeys:
    """A key the experiment's input stage never reads is a config error
    that names the key and its closest known key."""

    @pytest.mark.parametrize("command, text, message", [
        ("simulate", TINY_SIMULATE + "n_toru = 8\n",
         "unknown key 'n_toru' for simulate (closest known key: 'n_torus')"),
        ("simulate", TINY_SIMULATE + "profile_refine = 2\n",
         "unknown key 'profile_refine' for simulate"),
        ("periodic", "sizes = 8,8\nt_end = 0.05\ndtt = 0.001\n",
         "unknown key 'dtt' for periodic (closest known key: 'dt')"),
        ("profile", "L = 10\nn1 = 100\nt_end = 0.5\nsizes = 8,8\n",
         "unknown key 'sizes' for profile"),
        ("counterexample", "thetas = 0,1\nL = 10\n", "unknown key 'L' for counterexample"),
        ("rates", f"input = {GOLDEN / 'simulate2d_norms.csv'}\nrate.window = 1,2\n",
         "(closest known key: 'rates.window')"),
    ])
    def test_unread_key_is_a_config_error(self, tmp_path, capsys, command, text, message):
        assert run_cli(tmp_path, command, text) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert run_cli(tmp_path, "validate", f"experiment = {command}\n{text}") == 1
        assert message in capsys.readouterr().out

    def test_every_unread_key_is_named(self):
        findings = cli.validate(cli.parse_config(TINY_SIMULATE + "zeta = 1\nalpha = 2\n"))
        assert findings == ["unknown key 'alpha' for simulate; unknown key 'zeta' for simulate"]


TINY_RUNS = {
    "simulate": TINY_SIMULATE,
    "profile": "L = 10\nn1 = 100\nt_end = 0.5\n",
    "periodic": "sizes = 8,8\nt_end = 0.05\n",
    "decompose": "n1 = 16\nn_torus = 8,8\nn_fields = 2\n",
    "gn-study": "n1 = 32\nn_torus = 8\nn_fields = 2\n",
    "counterexample": "dilations = 1,2\nthetas = 0,1\n",
}


def test_every_experiment_digests_every_file_it_writes(tmp_path):
    """Each experiment runs on a tiny config, and its manifest digests
    exactly the files in its output directory."""
    outdirs = {}
    for command, text in {**TINY_RUNS, "rates": None}.items():
        if text is None:
            text = f"input = {outdirs['simulate'] / 'norms.csv'}\nrates.window = 1,2\n"
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(text)
        assert cli.validate({**cli.load_config(cfg_path), "experiment": command}) == []
        outdirs[command] = tmp_path / command
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(outdirs[command])]) == 0, command
    for command, out in outdirs.items():
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == command
        written = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["files"]) == written, command
