"""Smoke tests for the scripts under bench/, so that they keep running."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_duality_ladder_runs_one_order():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "duality_ladder.py"), "--order", "8"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    point = json.loads(done.stdout)
    assert point["order"] == 8 and point["dim"] == 2 and point["trials"] == 100
    assert set(point["setup_s"]) == {"twist", "psi"}
    assert point["max_error"] < 1e-10
    assert point["first_call_s"] > 0 and point["peak_rss_mb"] > 0
    # Differences of two timings, so only their presence is checked.
    assert {"per_trial_s", "call_setup_s"} <= set(point)
