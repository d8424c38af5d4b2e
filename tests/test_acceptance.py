"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
as the suite executes; without ``-s`` pytest shows them for failures.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from math import factorial

from accessframe.analysis import SystemConfig, outcome_probability, success_pmf
from accessframe.metrics import optimal_data_slots, sweep
from accessframe.simulator import SimParams, compare_to_exact, estimate_pmf

from oracles import brute_force_pmf, min_size2_partition_counts


def _gate(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_acceptance_oracle_equivalence():
    checked = 0
    for tokens in range(1, 6):
        for users in range(0, 6):
            expected = {}
            for slots in range(1, 7):
                key = min(slots, tokens)  # pmf depends on K only through this
                if key not in expected:
                    expected[key] = brute_force_pmf(tokens, slots, users)
                got = success_pmf(SystemConfig(tokens, slots, users)).mass
                assert list(got) == expected[key], (tokens, slots, users)
                checked += 1
    _gate(
        "oracle equivalence",
        checked == 5 * 6 * 6,
        f"exact pmf equals enumeration on {checked} configurations",
    )


def test_acceptance_normalization():
    worst = None
    for tokens in range(1, 13):
        for slots in range(1, 13):
            for users in range(0, 15):
                total = sum(success_pmf(SystemConfig(tokens, slots, users)).mass)
                if total != 1:
                    worst = (tokens, slots, users, total)
    _gate(
        "normalization",
        worst is None,
        "masses sum to exactly 1 for M,K <= 12, T <= 14"
        if worst is None
        else f"first violation {worst}",
    )


def stirling2_assoc(n: int, k: int) -> Fraction:
    """S(n, k) = P(0 singles, k collisions | M = max(k, 1), T = n) * M**n / k!:
    with no singles the k collision tokens label the k blocks of size >= 2."""
    tokens = max(k, 1)
    split = outcome_probability(SystemConfig(tokens, 1, n), 0, k)
    return split * tokens**n / factorial(k)


def test_acceptance_stirling_oracle():
    ok = stirling2_assoc(2, 1) == 1
    mismatches = []
    for n in range(0, 13):
        enumerated = min_size2_partition_counts(n)
        for k in range(0, n + 1):
            direct = stirling2_assoc(n, k)
            if direct != enumerated.get(k, 0):
                mismatches.append((n, k))
            if k > n // 2 and direct != 0:
                mismatches.append((n, k))
    _gate(
        "stirling oracle",
        ok and not mismatches,
        "matches size->=2 partition enumeration for n <= 12"
        if ok and not mismatches
        else f"disagreements at {mismatches[:5]}",
    )


def test_acceptance_simulation_convergence():
    distances = []
    for slots in (4, 8):
        for seed in (0, 1, 2):
            cfg = SystemConfig(8, slots, 12)
            params = SimParams(cfg, iterations=100000, seed=seed)
            record = compare_to_exact(estimate_pmf(params), success_pmf(cfg))
            distances.append(float(record.tv_distance))
    worst = max(distances)
    _gate(
        "simulation convergence",
        worst <= 0.01,
        f"max TV distance {worst:.5f} over K in (4,8), 3 seeds, N=100000",
    )


def test_acceptance_success_rate_shape():
    slot_choices = (4, 8, 16)
    rates = {
        slots: [
            row.success_rate
            for row in sweep(SystemConfig(8, slots, 1), "users", range(1, 31)).rows
        ]
        for slots in slot_choices
    }
    monotone_in_users = all(
        rates[slots][i] >= rates[slots][i + 1]
        for slots in slot_choices
        for i in range(29)
    )
    monotone_in_slots = all(
        rates[4][i] <= rates[8][i] for i in range(30)
    )
    saturated = rates[8] == rates[16]
    _gate(
        "success-rate shape",
        monotone_in_users and monotone_in_slots and saturated,
        "non-increasing in users, non-decreasing in slots, K=8 equals K=16",
    )


def test_acceptance_interior_efficiency_peak():
    witnesses = [
        (users, optimal_data_slots(8, users, 8)[0])
        for users in range(8, 31)
        if optimal_data_slots(8, users, 8)[0] < 8
    ]
    _gate(
        "interior efficiency peak",
        bool(witnesses),
        f"{len(witnesses)} loads in [8,30] peak below K=8, "
        f"e.g. T={witnesses[0][0]} at K={witnesses[0][1]}"
        if witnesses
        else "no load in [8,30] peaks below K=8",
    )


def test_acceptance_cli_determinism():
    base = [sys.executable, "-m", "accessframe"]
    invocations = (
        ["simulate", "--tokens", "8", "--slots", "4", "--users", "12",
         "--seed", "3", "--iterations", "2000"],
        ["simulate", "--tokens", "8", "--slots", "4", "--users", "12",
         "--seed", "3", "--iterations", "2000", "--format", "csv"],
        ["compare", "--tokens", "8", "--slots", "8", "--users", "12",
         "--seed", "9", "--iterations", "2000"],
    )
    stable = True
    for argv in invocations:
        first = subprocess.run(base + argv, capture_output=True)
        second = subprocess.run(base + argv, capture_output=True)
        if not (
            first.returncode == second.returncode == 0
            and first.stdout == second.stdout
            and first.stdout
        ):
            stable = False
    _gate(
        "cli determinism",
        stable,
        "repeated simulate/compare runs emit byte-identical documents",
    )
