"""Seeded Monte Carlo runs: protocol rules, determinism, convergence."""

from __future__ import annotations

import itertools
import json
import statistics
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from accessframe.analysis import PmfKind, SystemConfig, success_pmf
from accessframe.simulator import (
    RNG_ALGORITHM,
    DetectionMode,
    EmpiricalReport,
    FrameTrace,
    SimParams,
    compare_to_exact,
    estimate_pmf,
    make_rng,
    simulate_frame,
)
from accessframe.simulator import _binary_block_successes


def test_sim_params_validation():
    cfg = SystemConfig(2, 1, 2)
    with pytest.raises(ValueError):
        SimParams(cfg, iterations=0, seed=1)
    with pytest.raises(ValueError):
        SimParams(cfg, iterations=10, seed=-1)
    with pytest.raises(ValueError):
        SimParams(cfg, iterations=10, seed=2**64)
    params = SimParams(cfg, iterations=10, seed=2**64 - 1, mode="ternary")
    assert params.mode is DetectionMode.TERNARY


def test_make_rng_is_deterministic():
    a = make_rng(123).integers(0, 1000, size=8)
    b = make_rng(123).integers(0, 1000, size=8)
    assert (a == b).all()
    assert not (a == make_rng(124).integers(0, 1000, size=8)).all()


def test_single_user_always_succeeds():
    rng = make_rng(0)
    for mode in DetectionMode:
        for _ in range(20):
            trace = simulate_frame(SystemConfig(4, 2, 1), mode, rng)
            assert trace.successes == 1
            assert len(trace.selected) == 1


def test_single_token_crowd_never_succeeds():
    rng = make_rng(1)
    binary = simulate_frame(SystemConfig(1, 1, 3), DetectionMode.BINARY, rng)
    assert binary.successes == 0
    assert binary.selected == (0,)  # the collided token still burns the slot
    ternary = simulate_frame(SystemConfig(1, 1, 3), DetectionMode.TERNARY, rng)
    assert ternary.successes == 0
    assert ternary.selected == ()  # no single-user token exists


def test_frame_conservation_and_bounds():
    rng = make_rng(7)
    cfg = SystemConfig(5, 3, 9)
    for mode in DetectionMode:
        for _ in range(200):
            trace = simulate_frame(cfg, mode, rng)
            assert sum(trace.counts) == cfg.users
            assert 0 <= trace.successes <= cfg.max_successes
            assert len(trace.selected) <= cfg.data_slots


def test_ternary_never_grants_a_collided_token():
    rng = make_rng(11)
    cfg = SystemConfig(4, 3, 10)
    for _ in range(300):
        trace = simulate_frame(cfg, DetectionMode.TERNARY, rng)
        assert all(trace.counts[token] == 1 for token in trace.selected)
        assert trace.successes == len(trace.selected)


def test_frame_trace_validation():
    cfg = SystemConfig(3, 1, 3)
    good = FrameTrace(cfg, DetectionMode.BINARY, (1, 2, 0), (0,), 1)
    assert good.successes == 1
    with pytest.raises(ValueError):
        FrameTrace(cfg, DetectionMode.BINARY, (1, 1, 0), (0,), 1)  # counts sum short
    with pytest.raises(ValueError):
        FrameTrace(cfg, DetectionMode.BINARY, (1, 2, 0), (2,), 0)  # idle token granted
    with pytest.raises(ValueError):
        FrameTrace(cfg, DetectionMode.BINARY, (1, 2, 0), (), 0)  # slot left idle
    with pytest.raises(ValueError):
        FrameTrace(cfg, DetectionMode.BINARY, (1, 2, 0), (1,), 1)  # collision counted
    with pytest.raises(ValueError):
        FrameTrace(cfg, DetectionMode.TERNARY, (1, 2, 0), (1,), 0)  # ternary grant


def test_block_selection_is_uniform_over_subsets():
    # tokens 0 and 2 are singles, token 1 collides; two slots for three
    # active tokens.  Each 2-subset is the top pair in exactly two of the
    # six priority orderings: {0,1} and {1,2} score 1, {0,2} scores 2.
    counts = np.array([[1, 2, 1]])
    outcomes = []
    for perm in itertools.permutations((0.1, 0.5, 0.9)):
        priorities = np.array([perm], dtype=float)
        outcomes.append(int(_binary_block_successes(counts, priorities, 2)[0]))
    assert sorted(outcomes) == [1, 1, 1, 1, 2, 2]
    assert sum(outcomes) * Fraction(1, 6) == Fraction(4, 3)  # hypergeometric mean


def test_block_successes_when_everyone_fits():
    counts = np.array([[1, 0, 2, 1], [0, 0, 0, 4], [1, 1, 1, 1]])
    priorities = np.zeros((3, 4))
    assert _binary_block_successes(counts, priorities, 4).tolist() == [2, 0, 4]


def test_estimate_pmf_masses_are_count_fractions():
    params = SimParams(SystemConfig(8, 4, 12), iterations=4000, seed=5)
    report = estimate_pmf(params)
    assert report.pmf_hat.kind is PmfKind.EMPIRICAL
    assert sum(report.counts) == 4000
    assert report.pmf_hat.total() == 1
    for count, mass in zip(report.counts, report.pmf_hat.mass):
        assert mass == Fraction(count, 4000)
    assert report.mean_successes == sum(
        d * Fraction(c, 4000) for d, c in enumerate(report.counts)
    )
    assert report.success_rate == report.mean_successes / 12
    assert report.efficiency == report.mean_successes / 5


def test_estimate_pmf_trivial_config():
    report = estimate_pmf(SimParams(SystemConfig(8, 4, 1), iterations=1000, seed=9))
    assert report.pmf_hat.mass == (Fraction(0), Fraction(1))


def test_estimate_pmf_without_users():
    report = estimate_pmf(SimParams(SystemConfig(3, 2, 0), iterations=50, seed=2))
    assert report.pmf_hat.mass == (Fraction(1),)
    assert report.success_rate is None
    assert report.efficiency == 0


def test_estimate_pmf_is_bit_deterministic():
    params = SimParams(SystemConfig(8, 8, 12), iterations=30000, seed=42)
    first = estimate_pmf(params)
    second = estimate_pmf(params)
    assert first == second
    assert first.to_json() == second.to_json()
    assert first.to_csv() == second.to_csv()
    other_seed = estimate_pmf(
        SimParams(SystemConfig(8, 8, 12), iterations=30000, seed=43)
    )
    assert other_seed.counts != first.counts


def test_estimate_pmf_spans_block_boundaries():
    # totals must cover every frame even when N is not a block multiple
    n = (1 << 15) + 17
    report = estimate_pmf(SimParams(SystemConfig(4, 2, 6), iterations=n, seed=3))
    assert sum(report.counts) == n


def test_estimate_pmf_refuses_oversized_blocks_before_drawing():
    # a full block of 20000 users would hold gigabytes of choices
    tracemalloc.start()
    try:
        for mode in DetectionMode:
            params = SimParams(
                SystemConfig(8, 4, 20000), iterations=100000, seed=1, mode=mode
            )
            with pytest.raises(ValueError, match="fewer users or tokens"):
                estimate_pmf(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # the limit applies to the block actually drawn, not to a full one
    small = estimate_pmf(SimParams(SystemConfig(8, 4, 20000), iterations=10, seed=1))
    assert sum(small.counts) == 10


def test_ternary_beats_binary_rate_under_load():
    # granting only singles cannot waste slots on collisions, so with
    # slots scarce the ternary success rate should win clearly
    cfg = SystemConfig(8, 4, 12)
    binary = estimate_pmf(SimParams(cfg, iterations=20000, seed=21))
    ternary = estimate_pmf(
        SimParams(cfg, iterations=20000, seed=21, mode=DetectionMode.TERNARY)
    )
    assert ternary.mean_successes > binary.mean_successes


def test_compare_to_exact_zero_distance_when_exactly_right():
    report = estimate_pmf(SimParams(SystemConfig(8, 4, 1), iterations=500, seed=1))
    record = compare_to_exact(report)
    assert record.tv_distance == 0
    assert record.max_abs_mass_error == 0


def test_compare_to_exact_small_at_reference_size():
    for slots in (4, 8):
        params = SimParams(SystemConfig(8, slots, 12), iterations=100000, seed=42)
        record = compare_to_exact(estimate_pmf(params))
        assert 0 <= record.tv_distance <= Fraction(1, 100)
        assert record.max_abs_mass_error <= 2 * record.tv_distance


def test_compare_rejects_ternary():
    report = estimate_pmf(
        SimParams(SystemConfig(4, 2, 5), iterations=100, seed=0, mode="ternary")
    )
    with pytest.raises(ValueError):
        compare_to_exact(report)


def test_tv_distance_shrinks_with_more_frames():
    cfg = SystemConfig(8, 4, 12)
    medians = []
    for iterations in (1000, 10000, 100000):
        distances = [
            float(
                compare_to_exact(
                    estimate_pmf(SimParams(cfg, iterations=iterations, seed=seed))
                ).tv_distance
            )
            for seed in (11, 12, 13)
        ]
        medians.append(statistics.median(distances))
    assert medians[0] >= medians[1] >= medians[2]


def test_empirical_distribution_matches_brute_force_tolerance():
    exact = success_pmf(SystemConfig(2, 1, 2)).mass
    report = estimate_pmf(SimParams(SystemConfig(2, 1, 2), iterations=100000, seed=8))
    for a, b in zip(exact, report.pmf_hat.mass):
        assert abs(float(a) - float(b)) < 0.01


def test_report_json_carries_reproduction_data():
    params = SimParams(SystemConfig(8, 4, 12), iterations=2000, seed=77)
    payload = json.loads(estimate_pmf(params).to_json())
    assert payload["rng"] == RNG_ALGORITHM == "numpy-pcg64"
    assert payload["seed"] == 77
    assert payload["iterations"] == 2000
    assert payload["mode"] == "binary"
    assert sum(payload["counts"]) == 2000
    assert len(payload["mass"]) == 5


def test_report_csv_extends_metrics_schema():
    params = SimParams(SystemConfig(8, 4, 12), iterations=1000, seed=4)
    text = estimate_pmf(params).to_csv()
    header, row = text.strip().split("\n")
    assert header == "M,K,T,expected_successes,success_rate,efficiency,mode,seed,iterations"
    assert row.startswith("8,4,12,")
    assert row.endswith(",binary,4,1000")


def test_comparison_record_serialization():
    params = SimParams(SystemConfig(8, 8, 12), iterations=5000, seed=6)
    record = compare_to_exact(estimate_pmf(params))
    payload = json.loads(record.to_json())
    assert set(payload) == {
        "M", "K", "T", "mode", "seed", "iterations", "rng",
        "tv_distance", "max_abs_mass_error",
    }
    header = record.to_csv().split("\n", 1)[0]
    assert header == "M,K,T,mode,seed,iterations,tv_distance,max_abs_mass_error"
