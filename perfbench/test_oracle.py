"""Checks of the benchmark's own oracle.  Run with ``python -m pytest perfbench``
from the repository root; the repository's Tier-1 suite does not collect
this directory."""

from __future__ import annotations

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from accessframe.analysis import SystemConfig, success_pmf  # noqa: E402
from accessframe.metrics import optimal_data_slots  # noqa: E402
from accessframe.simulator import SimParams, estimate_pmf  # noqa: E402

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
brute = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(brute)


def test_identity_matches_brute_force():
    for m in range(1, 5):
        for k in range(1, 5):
            for t in range(0, 7):
                mass = brute.brute_force_pmf(m, k, t)
                mean = sum(d * p for d, p in enumerate(mass))
                assert oracle.expected_successes(m, k, t) == mean, (m, k, t)


def test_identity_matches_exact_mean_on_acceptance_grid():
    for m in range(1, 9):
        for k in range(1, 9):
            for t in range(0, 14):
                mean = success_pmf(SystemConfig(m, k, t)).mean()
                assert oracle.expected_successes(m, k, t) == mean, (m, k, t)


def test_single_token_succeeds_only_with_one_user():
    for t in range(6):
        assert oracle.expected_successes(1, 3, t) == (1 if t == 1 else 0)


def test_scans_share_work_without_changing_answers():
    assert oracle.users_sweep(7, 3, 0, 12) == {
        t: oracle.expected_successes(7, 3, t) for t in range(13)
    }
    assert oracle.best_data_slots(32, 64, 16) == optimal_data_slots(32, 64, 16)


def _pmf_doc(m, k, t):
    return json.loads(success_pmf(SystemConfig(m, k, t)).to_json())


def test_pmf_check_accepts_exact_and_rejects_a_corrupted_mass():
    params = {"M": 6, "K": 3, "T": 9}
    doc = _pmf_doc(6, 3, 9)
    oracle.check_pmf(params, doc)
    doc["mass"][1] = str(Fraction(doc["mass"][1]) + Fraction(1, 10**9))
    with pytest.raises(oracle.CheckError):
        oracle.check_pmf(params, doc)


def test_simulation_checks_pass_a_real_run_and_catch_a_wrong_law():
    sims = oracle.SimulationChecker()
    for mode in ("binary", "ternary"):
        params = {"M": 8, "K": 3, "T": 8, "frames": 20000, "seed": 5, "mode": mode}
        report = estimate_pmf(SimParams(SystemConfig(8, 3, 8), 20000, 5, mode))
        oracle.check("simulate", params, report.to_json().encode(), sims)
    # a ternary run judged against the binary law differs by far more than noise
    ternary = estimate_pmf(SimParams(SystemConfig(8, 3, 8), 20000, 5, "ternary"))
    doc = ternary.to_json_dict()
    doc["mode"] = "binary"
    params = {"M": 8, "K": 3, "T": 8, "frames": 20000, "seed": 5, "mode": "binary"}
    with pytest.raises(oracle.CheckError, match="TV"):
        oracle.check("simulate", params, json.dumps(doc).encode(), sims)


def test_op_streams_are_seeded_and_stay_in_range():
    for workload in WORKLOADS.values():
        first = workload.op_list(7, 30)
        assert [op.argv for op in first] == [op.argv for op in workload.op_list(7, 30)]
        assert [op.argv for op in first] != [op.argv for op in workload.op_list(8, 30)]
        for op in first:
            assert op.work == (op.params.get("frames") or len(op.configs))
            for m, k, t in op.configs:
                assert 1 <= k and 0 < t <= 1600
    for op in WORKLOADS["deep-pmf"].op_list(3, 60):
        assert 2 <= op.params["M"] <= 16 and 1000 <= op.params["T"] <= 1600
    for op in WORKLOADS["design-scan"].op_list(3, 60):
        assert 32 <= op.params["M"] <= 128
        assert all(64 <= t <= 256 for _, _, t in op.configs)
