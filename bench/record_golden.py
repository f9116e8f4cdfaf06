"""Re-record the golden norm tables and verdicts of the simulate workloads.

    python3 bench/record_golden.py [cyl2d cyl3d]

Runs `rarelab simulate` on bench/configs/<name>.cfg with the benchmark's
pinned single-threaded environment and stores norms.csv plus the rate
verdicts under bench/golden/<name>/.  Re-record only when a change is
meant to move the numbers, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def record(name: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, "-m", "rarelab.cli", "simulate",
               "--config", str(workloads.CONFIGS / f"{name}.cfg"), "--out", tmp]
        subprocess.run(cmd, env=run.worker_env(), check=True)
        rates = json.loads((Path(tmp) / "rates.json").read_text())
        dest = workloads.GOLDEN / name
        dest.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(Path(tmp) / "norms.csv", dest / "norms.csv")
        golden = {
            "statuses": workloads.verdicts(rates),
            "max_principle_violation": rates["max_principle_violation"],
            "boundary_mismatch": rates["boundary_mismatch"],
        }
        (dest / "verdicts.json").write_text(json.dumps(golden, indent=2) + "\n")
    print(f"recorded {dest}")


if __name__ == "__main__":
    for name in sys.argv[1:] or ("cyl2d", "cyl3d"):
        record(name)
