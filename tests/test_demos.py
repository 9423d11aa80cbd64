import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of the stdout of demos/03_extreme_free_orientation.py, which prints
# the cycle packing of the Petersen graph and each construction step
EXTREME_FREE_DEMO_SHA256 = "62536ceb4692402e0bcb868f28d51a444b0d8602b2715cffb75dbb74c9035855"


def test_every_demo_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    if path.name == "03_extreme_free_orientation.py":
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == EXTREME_FREE_DEMO_SHA256
