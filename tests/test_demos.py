"""The demo scripts run against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import procflex

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# simulate_heavy_traffic.py is left out: its sweeps take about 13 s, and the
# heavy-traffic check it prints is covered by the simulator gates
SCRIPTS = ("decompose_blocks.py", "design_sparsest.py", "gap_braess.py", "plan_additions.py")


def test_demos_run():
    env = {**os.environ, "PYTHONPATH": str(Path(procflex.__file__).resolve().parents[1])}
    for script in SCRIPTS:
        done = subprocess.run(
            [sys.executable, str(DEMOS / script)], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, (script, done.stderr)
        assert done.stdout, script
