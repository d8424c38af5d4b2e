"""Tiny end-to-end runs of the benchmark driver (one or two operations per
workload).  Run with ``python -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", ["deep-pmf", "design-scan", "monte-carlo"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = _result(_run(ROOT, workload, 0))["metrics"]
    assert set(metrics) == set(END_TO_END)
    assert all(m["value"] > 0 and m["unit"] == END_TO_END[k] for k, m in metrics.items())


def test_traced_run_reports_every_per_layer_metric():
    proc = _run(ROOT, "monte-carlo", 1)
    metrics = _result(proc)["metrics"]
    assert set(metrics) == set(PER_LAYER)
    assert "dominant layer: simulator" in proc.stdout
    assert metrics["simulator.frames_per_s.binary"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "monte-carlo", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
