"""The demo scripts run to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_single_device_timing_demo_runs():
    # The demo reads ``MacTrace.events`` and asserts the simulated mean delay
    # against its closed form.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "single_device_timing.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "first packet, step by step:" in done.stdout
    assert "arrival" in done.stdout and "delivered" in done.stdout
