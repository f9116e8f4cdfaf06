import ctypes
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy

from rarelab import cli, mdsolver
from rarelab.domain import read_snapshot
from rarelab.ineqlab import dilated_sobolev_ratio
from rarelab.mdsolver import NORM_COLUMNS, run, schedule
from rarelab.stepping import CFL

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
        sc = cli.solver_config_from_dict(cli.load_config(cfg_path))
        steps, dt, _ = schedule(sc)
        assert manifest["steps"] == steps
        assert manifest["dt"] == dt
        assert manifest["steps"] * manifest["dt"] == pytest.approx(2.0, rel=1e-12)
        rows = (out / "norms.csv").read_text().strip().splitlines()[1:]
        assert manifest["steps"] > len(rows)

    def test_reports_the_largest_courant_number(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_SIMULATE)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        sc = cli.solver_config_from_dict(cli.load_config(cfg_path))
        _, checks = run(sc, schedule(sc))
        assert 0.0 < checks["max_courant"] <= CFL
        assert manifest["max_courant"] == checks["max_courant"]

    def test_records_the_scipy_that_solved_it(self, tmp_path):
        # every sweep's numbers come from scipy's LAPACK, so the run names its version
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_SIMULATE)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scipy"] == scipy.__version__
        assert manifest["numpy"] == np.__version__

    def test_digests_are_hashlibs_sha256(self, tmp_path):
        # the manifest hashes with the interpreter's own SHA-256 where it
        # has one; the digests are SHA-256 all the same
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_SIMULATE)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = cli.load_config(cfg_path)
        cfg_text = "\n".join(f"{k} = {v}" for k, v in sorted(cfg.items()))
        assert manifest["config_sha256"] == hashlib.sha256(cfg_text.encode()).hexdigest()
        assert manifest["files"] and manifest["files"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in manifest["files"]}


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


TINY_PERIODIC = """\
experiment = periodic
sizes = 8,8
t_end = 0.05
dt = 0.0025
w0_modes = 1,1,0.1; 0,2,0.05
"""

TINY_PROFILE = """\
experiment = profile
L = 20
n1 = 200
t_end = 4
snapshots = 0,1,2,4
"""


def assert_matches_golden(path, golden):
    """Every entry within 1e-11 + 1e-9 |golden| (1e-4 for tail_mass); a NaN
    entry (a t = 0 profile row's norms) must be NaN in both."""
    head, new = read_table(path)
    ghead, old = read_table(GOLDEN / golden)
    assert head == ghead and new.shape == old.shape
    assert np.array_equal(np.isnan(new), np.isnan(old))
    atol = np.array([1e-4 if name == "tail_mass" else 1e-11 for name in head])
    close = np.abs(new - old) <= atol + 1e-9 * np.abs(old)
    assert np.all(close | np.isnan(old))


class TestGoldenNormTables:
    """The tiny 2-d and 3-d runs reproduce norm tables recorded before the
    steppers were merged into one Strang step, a tiny torus run its
    series recorded while it still copied each state, and a tiny profile
    run its series and summary, within the
    benchmark's tolerance: 1e-11 + 1e-9 |golden| per entry, 1e-4 absolute
    for tail_mass."""

    @pytest.mark.parametrize("text, golden", [
        (TINY_SIMULATE, "simulate2d_norms.csv"),
        (TINY_SIMULATE_3D, "simulate3d_norms.csv"),
    ])
    def test_norm_table_matches_golden(self, tmp_path, text, golden):
        code, out = simulate(tmp_path, text)
        assert code == 0
        assert_matches_golden(out / "norms.csv", golden)

    def test_periodic_series_matches_golden(self, tmp_path):
        cfg_path = tmp_path / "periodic.cfg"
        cfg_path.write_text(TINY_PERIODIC)
        out = tmp_path / "out"
        assert cli.main(["periodic", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert_matches_golden(out / "periodic_series.csv", "periodic2d_series.csv")

    def test_profile_series_matches_golden(self, tmp_path):
        # recorded before the profile row was built in one function; its
        # t = 0 snapshot writes a row of NaN norms
        cfg_path = tmp_path / "profile.cfg"
        cfg_path.write_text(TINY_PROFILE)
        out = tmp_path / "out"
        assert cli.main(["profile", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert_matches_golden(out / "profile_series.csv", "profile_series.csv")
        got = json.loads((out / "profile_summary.json").read_text())
        want = json.loads((GOLDEN / "profile_summary.json").read_text())
        assert sorted(got) == sorted(want)
        assert all(abs(got[k] - want[k]) <= 1e-11 + 1e-9 * abs(want[k]) for k in want)


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

    def test_rates_into_the_runs_own_directory_is_refused(self, tmp_path, capsys):
        # a rates manifest there would replace the run's and lose its flag
        code, out = simulate(tmp_path, TINY_SIMULATE)
        assert code == 0
        manifest, files = (out / "manifest.json").read_bytes(), sorted(out.iterdir())
        cfg_path = tmp_path / "rates.cfg"
        cfg_path.write_text(f"input = {out / 'norms.csv'}\n")
        for where in (out, out / ".." / out.name):
            assert cli.main(["rates", "--config", str(cfg_path), "--out", str(where)]) == 1
            err = capsys.readouterr().err
            assert "config error: --out " in err and "directory of the input table" in err
        assert (out / "manifest.json").read_bytes() == manifest
        assert sorted(out.iterdir()) == files  # no rates artifact written either

    def test_main_rate_fits_the_exported_column(self, tmp_path):
        code, out = simulate(tmp_path, TINY_SIMULATE)
        assert code == 0
        main = json.loads((out / "rates.json").read_text())["main_rate"]
        head, table = read_table(out / "norms.csv")
        col = dict(zip(head, table.T))
        fit = cli.fit_power_law(col["t"], col["u_minus_profile_linf"], (1.0, 2.0))
        assert main["fit"]["exponent"] == fit["exponent"]

    def test_a_rate_report_fits_each_series_once(self, monkeypatch):
        # the main rate and five norms fit inside their verdicts; only
        # phi_l1, whose verdict is a max/min ratio, is fitted for the ordering
        from rarelab import rates

        fitted = []
        for mod in (rates, cli):
            def counted(times, values, window, fit=mod.fit_power_law):
                fitted.append(window)
                return fit(times, values, window)
            monkeypatch.setattr(mod, "fit_power_law", counted)
        t = np.linspace(0.5, 10.0, 20)
        table = {name: (1.0 + t) ** -0.5 for name in NORM_COLUMNS}
        report = cli._rate_report({**table, "t": t}, None, None)
        assert len(fitted) == 7
        assert report["ordering"]["status"] == "pass" and len(report["ordering"]["pairs"]) == 3


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
        assert cli.main(["validate", "--config", str(cfg_path)]) == 1
        assert "requested dt" in capsys.readouterr().out
        code, out = simulate(tmp_path, text)
        assert code == 1
        assert "requested dt" in capsys.readouterr().err
        assert not (out / "norms.csv").exists()

    def test_state_turning_nan_is_a_numerical_abort(self, tmp_path, capsys, monkeypatch):
        class NaNSweep(mdsolver.DiffusionSweep):
            def apply(self, u, b_lo, b_hi):
                return np.full_like(u, np.nan)

        monkeypatch.setattr(mdsolver, "DiffusionSweep", NaNSweep)
        code, out = simulate(tmp_path, TINY_SIMULATE)
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical abort" in err and "not finite" in err
        assert not (out / "norms.csv").exists()

    def test_a_window_too_short_is_a_numerical_abort(self, tmp_path, capsys, monkeypatch):
        # the profile's tangent data still holds 1.7e-3 of mass in 3 < |x1|
        # < 4, which its first record finds at the edge of a window of 4
        monkeypatch.setattr(mdsolver, "cylinder_window", lambda config, x1, line: lambda t: 4)
        code, out = simulate(tmp_path, TINY_SIMULATE)
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical abort (window)" in err and "Traceback" not in err
        assert not (out / "norms.csv").exists()

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
        ("1,x", "rates.window entries must be finite numbers, got '1,x'"),
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

    def test_window_counts_the_recorded_times(self, tmp_path, capsys):
        """The step grid rounds 0.1 down to 0.0982 and 0.5 up to 0.5018,
        so the window holds 3 recorded times, not the 5 requested."""
        text = (ROUNDOFF_STEPS + f"t_end = 0.6\ndt = {0.6 / 55!r}\n"
                "snapshots = 0.1,0.2,0.3,0.4,0.5\n")
        assert run_cli(tmp_path, "validate", text) == 1
        assert "holds under 4 snapshot times" in capsys.readouterr().out
        code, out = simulate(tmp_path, text)
        assert code == 1
        assert "config error: window (0.1, 0.5) holds under 4" in capsys.readouterr().err
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
    """A requested dt = t_end / steps keeps its steps, though t_end / dt
    can exceed steps by an ulp; the profile marches the run's own plan,
    so it takes the same steps.  The runs are too short for the rates
    to pass, so exit 3 is fine."""
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
        assert run_fresh(script).split() == ["0", "1"]


class TestStartUp:
    def test_importing_the_package_loads_no_interpolation_or_optimisation(self):
        # each of these pulls in hundreds of modules that no run uses
        script = ("import sys\nimport rarelab, rarelab.cli\n"
                  "print([m for m in ('scipy.interpolate', 'scipy.optimize', 'scipy.sparse')"
                  " if m in sys.modules])\n")
        assert run_fresh(script) == "[]"

    def test_the_analysis_modules_load_no_scipy(self):
        # the split inequalities need only numpy; scipy's import is most of the start-up
        script = ("import sys\nimport rarelab\n"
                  "from rarelab import decomp, domain, errors, fluxes, ineqlab, rates\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert run_fresh(script) == "[]"

    def test_the_solver_modules_load_on_first_use(self):
        script = ("import sys\nimport rarelab\n"
                  "print('rarelab.mdsolver' in sys.modules)\n"
                  "fns = [rarelab.mdsolver.run, rarelab.ansatz.assemble_bundle,\n"
                  "       rarelab.periodic.solve_periodic, rarelab.profile1d.evolve_profile]\n"
                  f"print(all(callable(f) for f in fns), {LAPACK_BOUND})\n")
        assert run_fresh(script).split() == ["False", "True", "True", "False"]

    def test_the_cli_binds_lapack_without_scipys_package_init(self):
        # simulate's set-up binds scipy's LAPACK here, so its timed run
        # imports nothing, and scipy's own package init never runs
        script = f"import sys\nimport rarelab.cli\nprint('scipy' in sys.modules, {LAPACK_BOUND})\n"
        assert run_fresh(script).split() == ["False", "True", "False"]

    def test_a_simulate_run_loads_no_openssl_polynomials_or_difflib(self, tmp_path):
        # OpenSSL's libcrypto alone is 4 MB resident; where the interpreter
        # has no SHA-256 of its own, hashlib's OpenSSL one is the fallback
        watched = ["numpy.polynomial", "difflib"]
        if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
            watched.append("_hashlib")
        cfg_path = tmp_path / "simulate.cfg"
        cfg_path.write_text(TINY_SIMULATE)
        args = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        script = ("import sys\nimport rarelab.cli\n"
                  f"code = rarelab.cli.main({args!r})\n"
                  f"print(code, [m for m in {watched!r} if m in sys.modules])\n")
        assert run_fresh(script) == "0 []"

    def test_the_cli_skips_scipy_linalgs_package_init(self):
        # its array-API layer is most of the 0.3 s and 27 MB that scipy.linalg costs
        script = ("import sys\nimport rarelab.cli\n"
                  "print([m for m in ('scipy.linalg', 'scipy._lib._array_api', 'numpy.f2py',"
                  " 'numpy.testing') if m in sys.modules])\n")
        assert run_fresh(script) == "[]"

    def test_a_simulate_run_imports_no_module(self, tmp_path):
        cfg_path = tmp_path / "simulate.cfg"
        cfg_path.write_text(TINY_SIMULATE)
        args = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        script = ("import sys\nimport rarelab.cli\nbefore = set(sys.modules)\n"
                  f"code = rarelab.cli.main({args!r})\n"
                  "print(code, sorted(set(sys.modules) - before))\n")
        assert run_fresh(script) == "0 []"

    @pytest.mark.parametrize("command", ["simulate", "decompose", "gn-study"])
    def test_a_run_stage_imports_no_module(self, tmp_path, command):
        # decompose and gn-study draw their generator in the input stage, so
        # numpy.random loads before the run stage; simulate never loads it
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(TINY_RUNS[command])
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        script = ("import sys\nimport rarelab.cli as cli\n"
                  f"inputs, run = cli._EXPERIMENTS[{command!r}]\n"
                  "def spy(*args):\n"
                  "    before = set(sys.modules)\n"
                  "    result = run(*args)\n"
                  "    print(sorted(set(sys.modules) - before))\n"
                  "    return result\n"
                  f"cli._EXPERIMENTS[{command!r}] = (inputs, spy)\n"
                  f"print(cli.main({args!r}), 'numpy.random' in sys.modules)\n")
        assert run_fresh(script).splitlines() == [
            "[]", f"0 {command != 'simulate'}"], command

    def test_scipy_linalg_hands_out_the_routines_the_sweeps_hold(self):
        script = ("import sys\nimport rarelab.cli\nfrom rarelab import profile1d, stepping\n"
                  "print('scipy.linalg' in sys.modules)\n"
                  "from scipy.linalg import lapack\n"
                  "print(stepping.dpttrf is lapack.dpttrf, stepping.dpttrs is lapack.dpttrs,"
                  " profile1d.dgtsv is lapack.dgtsv)\n")
        assert run_fresh(script).split() == ["False", "True", "True", "True"]

    def test_without_the_extension_file_scipy_linalg_binds_the_same_routines(self):
        sweep = ("import hashlib, sys\nimport numpy as np\nfrom rarelab import profile1d, stepping\n"
                 "u = np.sin(np.arange(96 * 8).reshape(8, 96) / 7.0)\n"
                 "x = stepping.DiffusionSweep(96, 0.1, 0.01).apply(\n"
                 "    u, b_lo=np.full(8, -0.5), b_hi=np.full(8, 0.5))\n"
                 "print('scipy.linalg' in sys.modules, hashlib.sha256(x.tobytes()).hexdigest())\n"
                 "from scipy.linalg import lapack\n"
                 "print(stepping.dpttrf is lapack.dpttrf, stepping.dpttrs is lapack.dpttrs,"
                 " profile1d.dgtsv is lapack.dgtsv)\n")
        # no suffix matches, so the module finds no `_flapack` file and imports scipy.linalg
        miss = "import importlib.machinery\nimportlib.machinery.EXTENSION_SUFFIXES = ['.missing']\n"
        direct, fallback = run_fresh(sweep).split(), run_fresh(miss + sweep).split()
        assert direct[0] == "False" and fallback[0] == "True"
        assert fallback[1] == direct[1]
        assert fallback[2:] == ["True"] * 3


# the sweeps' LAPACK routines are bound, and scipy.linalg's package init never ran
LAPACK_BOUND = ("all(callable(f) for f in (rarelab.stepping.dpttrf, rarelab.stepping.dpttrs,"
                " rarelab.profile1d.dgtsv)), 'scipy.linalg' in sys.modules")


def run_fresh(script: str) -> str:
    """Run script in a new interpreter that imports rarelab from this tree; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def norm_table(drop=(), **cells) -> str:
    """A norm table of 20 rows at t = 0.5 .. 10 whose norms decay like
    (1 + t)^(-1/2), without the columns in `drop`; cells[name] = (row,
    text) writes `text` into one cell."""
    t = np.linspace(0.5, 10.0, 20)
    cols = {name: [f"{x:.17g}" for x in (1.0 + t) ** -0.5] for name in NORM_COLUMNS}
    cols["t"], cols["tail_mass"] = [f"{x:.17g}" for x in t], ["0"] * t.size
    for name, (row, text) in cells.items():
        cols[name][row] = text
    names = [name for name in NORM_COLUMNS if name not in drop]
    return "".join(",".join(row) + "\n" for row in [names, *zip(*(cols[n] for n in names))])


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
        ("periodic", "t_end = -1", "t_end must exceed the start time 0, got -1"),
        ("periodic", "snapshots = 0.1,9", "snapshots entry 9.0 lies outside [0, 0.5]"),
        ("periodic", "w0_modes = 0,0,1", "violates the zero-average requirement"),
        ("periodic", "ubar = nan", "ubar must be finite, got nan"),
        ("periodic", "t_end = inf", "t_end must be finite, got inf"),
        ("periodic", "dt = inf", "dt must be finite, got inf"),
        ("periodic", "dt = 0.2", "requested dt"),
        ("profile", "t_end = -1", "t_end must exceed the start time 0, got -1"),
        ("profile", "snapshots = 0.1,50", "snapshots entry 50.0 lies outside [0, 0.5]"),
        ("profile", "n1 = 2", "n1 must be at least 4"),
        ("profile", "L = inf", "half-length L must be positive and finite, got inf"),
        ("profile", "snapshots = geometric:1,1", "ratio > 1"),
        ("profile", "snapshots = 0", "snapshots must hold a time after t = 0 on the step grid"),
        ("profile", "flux = cubic", "f_1'' dips to"),
        ("periodic", "sizes = 8", "needs 1 wavenumbers + amplitude"),
        ("periodic", "w0_modes = 1,0.1", "needs 2 wavenumbers + amplitude"),
        ("decompose", "n1 = 2", "n1 must be at least 4"),
        ("decompose", "dim = 4", "dimension must be 1, 2 or 3"),
        ("decompose", "n_fields = 0", "n_fields must be at least 1"),
        ("decompose", "dim = 2\nn_torus = 8,8", "need 1 torus cell counts"),
        ("decompose", "seed = -1", "seed must be at least 0, got -1"),
        ("decompose", "seed = 1.5", "seed must be an integer, got '1.5'"),
        ("gn-study", "seed = -3", "seed must be at least 0, got -3"),
        ("gn-study", "seed = x", "seed must be an integer, got 'x'"),
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
        ("simulate", "w0_modes = 1,1,nan", "w0_modes entries must be finite"),
        ("simulate", "w0_modes = 1,1,inf", "w0_modes entries must be finite"),
        ("simulate", "w0_modes = nan,1,0.1", "w0_modes entries must be finite"),
        ("periodic", "w0_modes = 1,1,nan", "w0_modes entries must be finite"),
        ("simulate", "v0 = gaussian:0.1,0,0", "with width > 0, got 'gaussian:0.1,0,0'"),
        ("simulate", "v0 = gaussian:0.1,0,-1", "with width > 0, got 'gaussian:0.1,0,-1'"),
        ("simulate", "v0 = gaussian:nan,0,1", "v0 entries must be finite numbers, got 'nan,0,1'"),
        ("simulate", "v0 = gaussian:0.1,inf,1", "v0 entries must be finite numbers, got '0.1,inf,1'"),
        ("simulate", "v0 = gaussian:0.1,0", "v0 needs finite gaussian:amp,center,width"),
        ("simulate", "flux = linear:1,x", "flux entries must be finite numbers, got '1,x'"),
        ("profile", "flux = linear:x", "flux entries must be finite numbers, got 'x'"),
        ("periodic", "flux = linear:1,inf", "flux entries must be finite numbers, got '1,inf'"),
        ("periodic", "flux = linear:1", "linear flux wants 2 speeds, got 1"),
        ("simulate", "flux = linear:", "linear flux wants 2 speeds, got 0"),
    ])
    def test_bad_input_is_a_config_error(self, tmp_path, capsys, command, line, message):
        text = f"experiment = {command}\nL = 10\nn1 = 100\nt_end = 0.5\n{line}\n"
        assert run_cli(tmp_path, command, text) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert "Traceback" not in err
        assert run_cli(tmp_path, "validate", text) == 1
        assert message in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t_end", ["0", "-1"])
    def test_auto_snapshots_leave_a_bad_t_end_to_the_schedule(self, tmp_path, capsys, t_end):
        text = f"experiment = simulate\nt_end = {t_end}\nsnapshots = auto\n"
        message = f"t_end must exceed the start time 0, got {t_end}"
        assert run_cli(tmp_path, "validate", text) == 1
        assert capsys.readouterr().out == f"violation: {message}\n"
        assert run_cli(tmp_path, "simulate", text) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lines, finding", [
        # an end state whose wave speed overflows is one cause, so one finding:
        # the fan and convexity rules judge only a range of finite speeds
        ("ul = 0.7\nur = 1e155\nL = 12\nn1 = 96\nw0_modes = 1,1,0.1",
         "the wave speed on [0.6, 1e+155] is not finite"),
        # two causes, two findings: f_1'' dips, and the disturbance's speed overflows
        ("ul = 0.7\nur = 1.2\nL = 16\nn1 = 128\nw0_modes = 1,1,1e200",
         "f_1'' dips to -2e+200 < a0 = 1 on [-1e+200, 1e+200]; the wave speed on "
         "[-1e+200, 1e+200] is not finite"),
        # f_1'' = 2u would overflow too, at the top of this range
        ("ul = 0.7\nur = 1.7e308\nL = 12\nn1 = 96\nw0_modes = 1,1,0.1",
         "the wave speed on [0.6, 1.7e+308] is not finite"),
    ], ids=["fan-speed", "disturbed-range", "curvature"])
    def test_an_overflowing_range_is_a_finding_not_a_warning(self, lines, finding):
        # numpy's overflow warning once reached stderr ahead of these findings
        text = f"experiment = simulate\ndim = 2\nflux = cubic\nn_torus = 8\nt_end = 0.5\n{lines}\n"
        assert cli.validate(cli.parse_config(text)) == [finding]

    @pytest.mark.parametrize("content, line, message", [
        ("t,phi_l1\n1\n2,3,4\n", "", "got 3 columns instead of 2"),
        ("", "", "holds no rows"),
        (",".join(NORM_COLUMNS) + "\n", "", "holds no rows"),
        (norm_table(phi_l2=(5, "a")), "", "column phi_l2 entries must be finite numbers"),
        (norm_table(phi_l2=(5, "nan")), "", "column phi_l2 entries must be finite numbers"),
        (norm_table(grad_phi_l4=(0, "inf")), "", "column grad_phi_l4 entries must be finite"),
        # validate once passed these, and the run then failed
        (norm_table(drop=("h_l1",)), "", "no field of name h_l1"),
        (norm_table(), "rates.window = 0.5,10", "starts inside the transient"),
        (norm_table(), "rates.window = 5,5.5", "need >= 4"),
        (norm_table(phi_l4=(12, "-0.1")), "", "series must be positive inside the fit window"),
    ], ids=["ragged", "empty", "no-rows", "a", "nan", "inf", "no-column", "transient",
            "short-window", "non-positive"])
    def test_malformed_norm_table_is_a_config_error(self, tmp_path, capsys, content, line,
                                                    message):
        table = tmp_path / "norms.csv"
        table.write_text(content)
        text = f"experiment = rates\ninput = {table}\n{line}\n"
        assert run_cli(tmp_path, "rates", text) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert run_cli(tmp_path, "validate", text) == 1
        out = capsys.readouterr().out
        assert out.startswith("violation:") and message in out

    @pytest.mark.parametrize("text", [
        "experiment = periodic\nsizes = 8,8\nt_end = 0.05\n",
        "experiment = periodic\nsizes = 8,8\nt_end = 0.05\nw0_modes = 3,1,0.1\n",
        # each row averages to zero; the grid mean is -1e-12, roundoff of the 1e4 row
        "experiment = periodic\nsizes = 8,8\nw0_modes = 0,3,1e4; 1,1,0.1\nt_end = 0.01\n",
        "experiment = profile\nL = 10\nn1 = 100\nt_end = 0.5\n",
        TINY_SIMULATE,
        TINY_SIMULATE_3D,
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


class TestCounterexampleDilations:
    def test_the_constant_is_the_quotient_at_d1(self, tmp_path):
        # the first listed dilation is not d = 1 here; the constant must not move
        def constant(text, name):
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(text)
            out = tmp_path / name
            assert cli.main(["counterexample", "--config", str(cfg_path), "--out", str(out)]) == 0
            return json.loads((out / "counterexample_summary.json").read_text())["C_at_d1"]

        default = constant("", "default")
        assert constant("dilations = 2,4,8,1\n", "unordered") == default
        assert default == dilated_sobolev_ratio(1.0)["measured"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dilations", [
        "1,1e200",  # |z'|^2 underflows to 0
        "1e-300,1",  # |z'|^2 overflows
    ])
    def test_a_norm_past_the_float_range_is_rescaled(self, tmp_path, capsys, dilations):
        # these were config errors ("gives the quotient inf" and "0") while a
        # norm whose sum left the float range was taken as that sum
        text = f"experiment = counterexample\ndilations = {dilations}\n"
        assert run_cli(tmp_path, "validate", text) == 0
        assert capsys.readouterr().out == "no violations\n"
        assert run_cli(tmp_path, "counterexample", text) == 0
        summary = json.loads((tmp_path / "out" / "counterexample_summary.json").read_text())
        slopes = [(summary["sobolev_slope"], summary["sobolev_slope_predicted"]),
                  *((s["measured"], s["predicted"]) for s in summary["theta_slopes"].values())]
        assert all(abs(got - want) < 1e-14 for got, want in slopes), slopes


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_dilation_whose_derivative_is_nan_is_a_finding(self, tmp_path, capsys):
        # at d = 1e-307 the x1 end stencils add inf to -inf; the finding
        # once came after two numpy warnings
        text = "experiment = counterexample\ndilations = 1e-307,1\n"
        finding = "dilations [1e-307, 1.0]: field values must be finite"
        assert run_cli(tmp_path, "validate", text) == 1
        assert capsys.readouterr().out == f"violation: {finding}\n"
        assert run_cli(tmp_path, "counterexample", text) == 1
        assert capsys.readouterr().err == f"config error: {finding}\n"


class TestGradientGridsAndHugeExponents:
    """decompose and gn-study square the gradients they measure: a grid on
    which the squared gradient of a unit field overflows is a config error
    that names L, in `validate` and in the run.  gn-study at a huge r or p
    measures finite quotients, with no numpy warning."""

    @pytest.mark.parametrize("command", ["decompose", "gn-study"])
    def test_a_grid_whose_squared_gradient_overflows_is_a_config_error(self, tmp_path, capsys,
                                                                       command):
        text = f"experiment = {command}\n{TINY_RUNS[command]}L = 1e-200\n"
        assert run_cli(tmp_path, "validate", text) == 1
        out = capsys.readouterr().out
        assert out.startswith("violation: L = 1e-200 ") and "overflows" in out
        assert run_cli(tmp_path, command, text) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: L = 1e-200 ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["decompose", "gn-study"])
    def test_a_short_grid_inside_the_float_range_runs(self, tmp_path, command):
        assert run_cli(tmp_path, command, TINY_RUNS[command] + "L = 1e-100\n") == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key", ["r = 2000", "p = 2000"])
    def test_a_huge_exponent_gives_finite_quotients(self, tmp_path, key):
        # r = 2000 once wrote gn_ratio_max 0.0 (|grad u|_r overflowed) and
        # p = 2000 ended in a traceback (|u|**1000 overflowed)
        assert run_cli(tmp_path, "gn-study", TINY_RUNS["gn-study"] + key + "\n") == 0
        summary = json.loads((tmp_path / "out" / "gn_summary.json").read_text())
        for name in ("gn_ratio_max", "interpolation_ratio_max"):
            assert 0.0 < summary[name] < math.inf, summary


class TestModesTheGridCannotCarry:
    """A mode row whose samples alias is a config error (exit 1) in
    `validate` and in the run.  Before the rule, the first passed
    `validate` and exited 3 on roundoff, the second aborted on the tail
    guard (exit 2), and the third sampled to zero."""

    @pytest.mark.parametrize("command, text, message", [
        ("simulate", TINY_SIMULATE + "w0_modes = 4,4,0.1\n",
         "w0_modes row (4.0, 4.0, 0.1) needs 2|k_d| below the grid's (4, 8) points"),
        ("simulate", TINY_SIMULATE + "w0_modes = 0.5,1,0.1\n",
         "w0_modes row (0.5, 1.0, 0.1) needs integer wavenumbers"),
        ("periodic", "experiment = periodic\nsizes = 8,8\nw0_modes = 4,1,0.1\n",
         "w0_modes row (4.0, 1.0, 0.1) needs 2|k_d| below the grid's (8, 8) points"),
    ])
    def test_is_a_config_error(self, tmp_path, capsys, command, text, message):
        assert run_cli(tmp_path, command, text) == 1
        assert message in capsys.readouterr().err
        assert run_cli(tmp_path, "validate", text) == 1
        assert message in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["cyl2d", "cyl2d_tiny", "cyl3d", "cyl3d_tiny"])
    def test_bench_configs_carry_their_modes(self, capsys, name):
        path = Path(__file__).resolve().parents[1] / "bench" / "configs" / f"{name}.cfg"
        assert cli.main(["validate", "--config", str(path)]) == 0


class TestPeriodicDefaults:
    def test_default_run_fits_the_decay_rate(self, tmp_path):
        assert run_cli(tmp_path, "periodic", "experiment = periodic\n") == 0
        report = json.loads((tmp_path / "out" / "periodic_decay.json").read_text())
        assert report["sup_initial"] == pytest.approx(0.1, rel=1e-12)
        # heat rate of the (1, 1) mode on the unit torus: 8 pi^2
        assert report["rate_2alpha"] == pytest.approx(8 * np.pi**2, rel=1e-3)
        series = (tmp_path / "out" / "periodic_series.csv").read_text().splitlines()
        assert len(series) > 10


@pytest.mark.parametrize("snapshots, rows", [("0,1,2", [0.0, 1.0, 2.0, 4.0]),
                                             ("geometric:1,3", [1.0, 3.0, 4.0])])
def test_profile_reaches_its_t_end(tmp_path, snapshots, rows):
    # snapshots that end before t_end: the march still records t_end last
    text = TINY_PROFILE.replace("snapshots = 0,1,2,4", f"snapshots = {snapshots}")
    assert run_cli(tmp_path, "profile", text) == 0
    head, table = read_table(tmp_path / "out" / "profile_series.csv")
    assert list(table[:, head.index("t")]) == pytest.approx(rows, abs=0.1)  # on the step grid
    t_final = json.loads((tmp_path / "out" / "profile_summary.json").read_text())["t_final"]
    assert t_final == table[-1, head.index("t")] == pytest.approx(4.0, rel=1e-15)
    assert read_snapshot(tmp_path / "out" / "profile_final.field").t == t_final


def test_profile_snapshot_keeps_the_configured_half_length(tmp_path):
    # 7.3 is not the sum of -x1[0] and dx / 2 in floating point
    assert run_cli(tmp_path, "profile", "L = 7.3\nn1 = 100\nt_end = 0.5\n") == 0
    f = read_snapshot(tmp_path / "out" / "profile_final.field")
    assert f.spec.L == 7.3 and f.spec.n1 == 100


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
        # only decompose and gn-study draw random fields, so only they read a seed
        ("simulate", TINY_SIMULATE + "seed = 1\n", "unknown key 'seed' for simulate"),
        ("profile", "L = 10\nn1 = 100\nt_end = 0.5\nseed = 1\n", "unknown key 'seed' for profile"),
        ("periodic", "sizes = 8,8\nt_end = 0.05\nseed = 1\n", "unknown key 'seed' for periodic"),
        ("counterexample", "seed = 1\n", "unknown key 'seed' for counterexample"),
        ("rates", f"input = {GOLDEN / 'simulate2d_norms.csv'}\nseed = 1\n",
         "unknown key 'seed' for rates"),
        # the Courant number is a constant and the tail threshold is gone: no stage reads them
        ("simulate", TINY_SIMULATE + "cfl = 0.3\n", "unknown key 'cfl' for simulate"),
        ("simulate", TINY_SIMULATE + "tail_threshold = 0.99\n",
         "unknown key 'tail_threshold' for simulate"),
        ("profile", "L = 10\nn1 = 100\nt_end = 0.5\ncfl = 0.3\n", "unknown key 'cfl' for profile"),
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
        assert ("seed" in manifest) == (command in ("decompose", "gn-study")), command
        written = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["files"]) == written, command


def test_an_infinite_exponent_is_written_as_strict_json(tmp_path):
    cfg_path = tmp_path / "gn.cfg"
    cfg_path.write_text(TINY_RUNS["gn-study"] + "r = inf\n")
    out = tmp_path / "out"
    assert cli.main(["gn-study", "--config", str(cfg_path), "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    summary = json.loads((out / "gn_summary.json").read_text(), parse_constant=reject)
    assert summary["exponents"] == {"j": 0, "m": 1, "p": 2.0, "q": 1.0, "r": "inf"}


# the CSV column each plotted curve must read, by its title in plots.gp
PLOTTED = {
    "|phi|_1": "phi_l1", "|phi|_2": "phi_l2", "|phi|_4": "phi_l4", "|phi|_inf": "phi_linf",
    "|grad phi|_2": "grad_phi_l2", "|u-profile|_inf": "u_minus_profile_linf",
    "max_slope": "max_slope", "slope_l2": "slope_l2",
    "sup|w|": "w_sup", "sup|grad w|": "grad_w_sup",
    "measured": "measured",
}


@pytest.mark.parametrize("command, labels", [
    ("simulate", ["|phi|_1", "|phi|_2", "|phi|_4", "|phi|_inf", "|grad phi|_2",
                  "|u-profile|_inf"]),
    ("profile", ["max_slope", "slope_l2"]),
    ("periodic", ["sup|w|", "sup|grad w|"]),
    ("counterexample", ["measured"]),
])
def test_every_plotted_column_is_the_one_its_title_names(tmp_path, command, labels):
    cfg_path = tmp_path / f"{command}.cfg"
    cfg_path.write_text(TINY_RUNS[command])
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    curves = re.findall(r'"([^"]*)" using [^:]*:(\d+)(?: with \w+)? title "([^"]+)"',
                        (out / "plots.gp").read_text())
    assert [title for *_, title in curves] == labels
    csv = None
    for name, col, title in curves:
        csv = name or csv  # "" plots the file named before
        header = (out / csv).read_text().splitlines()[0].split(",")
        assert header[int(col) - 1] == PLOTTED[title], title


@pytest.mark.parametrize("command", ["decompose", "gn-study"])
def test_the_seed_key_fixes_the_random_fields(tmp_path, command):
    def files(name, seed):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(f"{TINY_RUNS[command]}seed = {seed}\n")
        out = tmp_path / name
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == seed
        return {f: (out / f).read_bytes() for f in manifest["files"]}

    first = files("first", 5)
    assert files("again", 5) == first
    assert files("other", 6) != first


class TestUsageErrors:
    """A bad command line or an unreadable config exits 1, like a bad
    config value; exit 2 stays a numerical abort."""

    def cfg(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_SIMULATE)
        return str(cfg_path)

    def test_missing_config_flag(self, capsys):
        assert cli.main(["simulate"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", self.cfg(tmp_path), "--out", str(out),
                         "--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_takes_no_out(self, tmp_path):
        assert cli.main(["validate", "--config", self.cfg(tmp_path),
                         "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_exits_0(self, argv):
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("name", ["nonexist.cfg", ""])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, command, name):
        path = tmp_path / name  # a missing file, or a directory
        out = ["--out", str(tmp_path / "out")] if command != "validate" else []
        assert cli.main([command, "--config", str(path), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub", ["", "run"])
    def test_out_that_cannot_be_a_directory_is_a_config_error(self, tmp_path, capsys, sub):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(TINY_RUNS["counterexample"])
        taken = tmp_path / "taken"  # a file, as --out or as a parent of it
        taken.write_text("kept\n")
        out = taken / sub if sub else taken
        assert cli.main(["counterexample", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
        assert "Traceback" not in err and taken.read_text() == "kept\n"

    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfe = 1\nL = 12\n\x00\x81\n")
        assert cli.main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 3: expected 'key = value'")


# every key whose value holds numbers, per experiment
NUMERIC_KEYS = {
    "simulate": ("dim", "L", "n1", "n_torus", "t_end", "ul", "ur", "w0_modes", "dt",
                 "snapshots", "rates.window"),
    "profile": ("t_end", "L", "n1", "ul", "ur", "snapshots"),
    "periodic": ("sizes", "ubar", "t_end", "dt", "w0_modes", "snapshots"),
    "decompose": ("dim", "L", "n1", "n_torus", "n_fields", "seed"),
    "gn-study": ("dim", "L", "n1", "n_torus", "n_fields", "seed", "j", "m", "p", "q", "r"),
    "counterexample": ("n", "dilations", "thetas"),
    "rates": ("rates.window",),
}
NAME_KEYS = {"experiment", "flux", "v0", "profile", "input"}
RATES_INPUT = f"input = {GOLDEN / 'simulate2d_norms.csv'}\n"


class TestEveryBadNumberNamesItsKey:
    def test_the_list_holds_every_key_an_input_stage_reads(self):
        assert sum(map(len, NUMERIC_KEYS.values())) == 44
        # a simulate config needs a disturbance, a rates config its input
        texts = {"simulate": "w0_modes = 1,1,0.1\n", "rates": RATES_INPUT}
        for kind, keys in NUMERIC_KEYS.items():
            cfg = cli._AskedKeys(cli.parse_config(texts.get(kind, "")))
            cli._EXPERIMENTS[kind][0](cfg)
            assert cfg.asked - NAME_KEYS == set(keys), kind

    @pytest.mark.parametrize("kind, key", [(kind, key) for kind, keys in NUMERIC_KEYS.items()
                                           for key in keys])
    def test_a_value_that_does_not_parse(self, tmp_path, capsys, kind, key):
        text = f"experiment = {kind}\n{RATES_INPUT if kind == 'rates' else ''}{key} = abc\n"
        assert run_cli(tmp_path, kind, text) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} ") and "'abc'" in err
        assert "Traceback" not in err
        assert run_cli(tmp_path, "validate", text) == 1
        assert capsys.readouterr().out.startswith(f"violation: {key} ")


class TestStepAndGuardConstantsAreNoKeys:
    """The Courant number and the edge tolerance are constants
    (`stepping.CFL`, `domain.EDGE_TOL`), and the tail threshold is gone: a
    config that sets one is told the key is unknown."""

    @pytest.mark.parametrize("kind, key", [("simulate", "cfl"), ("simulate", "tail_threshold"),
                                           ("simulate", "edge_tol"), ("profile", "cfl"),
                                           ("profile", "edge_tol")])
    def test_validate_names_the_unknown_key(self, kind, key):
        extra = "w0_modes = 1,1,0.1\n" if kind == "simulate" else ""
        findings = cli.validate(cli.parse_config(f"experiment = {kind}\n{extra}{key} = 0.3\n"))
        assert len(findings) == 1
        assert findings[0].startswith(f"unknown key '{key}' for {kind}")


class TestValidateAcceptsOnlyWhatTheRunAccepts:
    """Configs that used to hang (a geometric schedule without end) or
    crash (an infinite or NaN snapshot time, a one-number geometric
    schedule).  Each is a config error from both `validate` and the run,
    checked in a child process under a timeout, so that a hang fails
    instead of stalling the suite."""

    @pytest.mark.parametrize("kind, lines, message", [
        ("profile", "t_end = inf", "t_end must be finite, got inf"),
        ("simulate", "t_end = inf\nsnapshots = geometric:1,2", "t_end must be finite, got inf"),
        *((kind, f"snapshots = {value}", message)
          for kind in ("profile", "periodic")
          for value, message in (
              ("inf", "snapshots entries must be finite numbers, got 'inf'"),
              ("nan", "snapshots entries must be finite numbers, got 'nan'"),
              ("geometric:1", "snapshots must be geometric:t0,ratio with t0 > 0 and ratio > 1, "
                              "got 'geometric:1'"))),
    ])
    def test_hang_or_traceback_is_a_config_error(self, tmp_path, kind, lines, message):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"experiment = {kind}\n{lines}\n")
        script = ("import sys\nfrom rarelab import cli\n"
                  "cfg, kind, out = sys.argv[1:]\n"
                  "print(cli.main(['validate', '--config', cfg]),"
                  " cli.main([kind, '--config', cfg, '--out', out]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script, str(cfg_path), kind,
                               str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=30)
        assert done.stdout.splitlines() == [f"violation: {message}", "1 1"], done.stderr
        assert done.stderr == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()
