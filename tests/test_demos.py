"""Every narrative script in ``demos/`` runs to completion without
writing to standard error."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
