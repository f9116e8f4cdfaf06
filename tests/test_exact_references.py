"""Simulate runs reproduce recorded artifacts byte for byte.

`tests/golden/exact/<name>/norms.csv` and `rates.json` were written by
`rarelab simulate` on three configs: `simulate2d` and `simulate3d`, the
tiny golden runs of `test_cli.py`, whose first window is the whole line
(W = L), and `windowed2d`, `test_cylinder_window.py`'s WINDOWED, whose
window grows from 21 to 34 < L = 40.  They were recorded before the run
stopped branching on W = L for the maximum principle, tau and
|u - p|_inf, with numpy 2.4.6 and scipy 1.17.1.  A change that means to
keep every number (a refactor) must pass this test unchanged; the
tolerance goldens of `test_cli.py` stay the guard against slow drift
across numerical changes.  Re-record (only after a deliberate numerical
change) with

    PYTHONPATH=src:tests python tests/test_exact_references.py
"""

import shutil
import tempfile
from pathlib import Path

import pytest

from rarelab import cli
from test_cli import TINY_SIMULATE, TINY_SIMULATE_3D
from test_cylinder_window import WINDOWED

EXACT = Path(__file__).resolve().parent / "golden" / "exact"
CONFIGS = dict(simulate2d=TINY_SIMULATE, simulate3d=TINY_SIMULATE_3D, windowed2d=WINDOWED)
ARTIFACTS = ("norms.csv", "rates.json")


def simulate(text, workdir: Path) -> Path:
    cfg = workdir / "run.cfg"
    cfg.write_text(text)
    out = workdir / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_the_run_writes_its_reference_bytes(tmp_path, name):
    out = simulate(CONFIGS[name], tmp_path)
    for artifact in ARTIFACTS:
        assert (out / artifact).read_bytes() == (EXACT / name / artifact).read_bytes(), artifact


if __name__ == "__main__":
    for name, text in CONFIGS.items():
        with tempfile.TemporaryDirectory() as work:
            out = simulate(text, Path(work))
            (EXACT / name).mkdir(parents=True, exist_ok=True)
            for artifact in ARTIFACTS:
                shutil.copyfile(out / artifact, EXACT / name / artifact)
