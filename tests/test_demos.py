"""Each demo script runs to completion in a fresh interpreter."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    # A copy, so that whatever a demo writes next to itself lands in tmp_path.
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
