"""The package's public names resolve and its scripts run.

No other test imports ``from boolprop import *`` or starts the scripts,
so a stale name in ``__all__`` or a script importing a removed function
would otherwise break them unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import boolprop

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_resolves_all_and_the_scripts_exit_0():
    namespace: dict = {}
    exec("from boolprop import *", namespace)
    assert set(boolprop.__all__) <= namespace.keys()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script, *args in (["demo_propagation.py"], ["run_verifications.py", "--budget", "5"]):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (script, done.stderr)
