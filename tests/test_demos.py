"""Every demo script runs to completion against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
