"""The two quick demos run to completion against the package in ``src/``.

Demos 03-05 train desk-scale models in about 5, 3 and 3 s each (2-core
Xeon); together they would add about 12 s to the suite, so they are left
to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", ["01_region_graphs_and_circuits.py", "02_exact_inference.py"]
)
def test_demo_runs(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
