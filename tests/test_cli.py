import json

import pytest

from rarelab import cli
from rarelab.mdsolver import run

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
