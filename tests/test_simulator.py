"""Seeded Monte Carlo runs: protocol rules, determinism, convergence."""

from __future__ import annotations

import json
import math
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
from accessframe.simulator import _BLOCK_BYTES, _block_bytes, _block_frames


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


def test_binary_counts_equal_ternary_when_everyone_fits():
    # with a slot for every token, all active tokens are granted, so the
    # binary hypergeometric draw returns the singles and, taking every
    # token, consumes no stream: both modes tally the same user choices
    # even across blocks
    for tokens, slots, users in [(4, 4, 6), (8, 9, 12), (3, 5, 2)]:
        cfg = SystemConfig(tokens, slots, users)
        for iterations in (1, 1000, 2 * _block_frames(cfg) + 3):
            binary = estimate_pmf(SimParams(cfg, iterations=iterations, seed=5))
            ternary = estimate_pmf(
                SimParams(cfg, iterations=iterations, seed=5, mode="ternary")
            )
            assert binary.counts == ternary.counts


def test_binary_grant_matches_exact_pmf_when_crowded():
    # K is below the typical number of active tokens, so the grant's
    # choice among them matters
    n = 10_000
    rng = make_rng(17)
    for cfg in (SystemConfig(4, 1, 3), SystemConfig(8, 4, 12)):
        exact = success_pmf(cfg).mass
        frames = [simulate_frame(cfg, DetectionMode.BINARY, rng) for _ in range(n)]
        tally = np.bincount([f.successes for f in frames], minlength=len(exact))
        assert len(tally) == len(exact)
        block = estimate_pmf(SimParams(cfg, iterations=n, seed=17))
        for counts in (tally, block.counts):
            _assert_within_sampling_noise(exact, counts)


def test_binary_matches_exact_pmf_with_wide_token_indices():
    # more tokens than an int16 holds: choices are drawn as int64
    cfg = SystemConfig(40000, 4, 12)
    report = estimate_pmf(SimParams(cfg, iterations=3000, seed=23))
    _assert_within_sampling_noise(success_pmf(cfg).mass, report.counts)


def _assert_within_sampling_noise(exact, counts):
    """TV between the exact masses and the tallied frame counts stays
    within its mean under sampling (bounded by sum sqrt(p(1-p)/N) / 2)
    plus a McDiarmid margin with false-alarm probability 1e-9."""
    n = sum(counts)
    noise = sum(math.sqrt(float(p * (1 - p)) / n) for p in exact) / 2
    bound = noise + math.sqrt(math.log(1e9) / (2 * n))
    tv = sum(abs(float(p) - c / n) for p, c in zip(exact, counts)) / 2
    assert tv <= bound, (tv, bound)


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
    cfg = SystemConfig(4, 2, 6)
    n = _block_frames(cfg) + 17
    report = estimate_pmf(SimParams(cfg, iterations=n, seed=3))
    assert sum(report.counts) == n


def test_seeded_streams_are_pinned_to_the_rng_version():
    # any change to these counts changes the published stream, so it must
    # come with a new RNG_ALGORITHM version
    assert RNG_ALGORITHM == "numpy-pcg64/v3"
    binary = SimParams(
        SystemConfig(8, 3, 10), iterations=(1 << 15) + 17, seed=20260
    )
    assert estimate_pmf(binary).counts == (3459, 13283, 12948, 3095)
    ternary = SimParams(
        SystemConfig(6, 2, 5), iterations=1000, seed=77, mode="ternary"
    )
    assert estimate_pmf(ternary).counts == (34, 278, 688)
    # two full blocks and a partial one at a benchmark-sized frame
    crowded = SimParams(SystemConfig(128, 4, 160), iterations=1500, seed=20261)
    assert 1500 > 2 * _block_frames(crowded.config)
    assert 1500 % _block_frames(crowded.config) != 0
    assert estimate_pmf(crowded).counts == (94, 348, 581, 367, 110)


def test_estimate_pmf_refuses_oversized_blocks_before_drawing():
    # blocks are cut to the byte budget, so only a frame whose own
    # choices hold gigabytes is over the limit
    tracemalloc.start()
    try:
        for mode in DetectionMode:
            params = SimParams(
                SystemConfig(8, 4, 4 * 10**8), iterations=100000, seed=1, mode=mode
            )
            with pytest.raises(ValueError, match="fewer users or tokens"):
                estimate_pmf(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # 20000 users fit many frames to a block
    for mode in DetectionMode:
        params = SimParams(SystemConfig(8, 4, 20000), iterations=100, seed=1, mode=mode)
        assert _block_frames(params.config) < 100
        assert sum(estimate_pmf(params).counts) == 100


def test_estimate_pmf_peak_stays_within_the_block_budget():
    # a benchmark-sized run holds about one budgeted block, whatever N is
    for mode in DetectionMode:
        params = SimParams(
            SystemConfig(128, 46, 160), iterations=50000, seed=5, mode=mode
        )
        tracemalloc.start()
        try:
            estimate_pmf(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * _BLOCK_BYTES, mode


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
    assert payload["rng"] == RNG_ALGORITHM == "numpy-pcg64/v3"
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


@pytest.mark.parametrize(
    "tokens, slots, users",
    [(8, 4, 12), (4, 4, 2000), (128, 4, 160), (400, 4, 10), (1, 1, 1), (1, 4, 40)],
    ids=["8-12", "4-2000", "128-160", "400-10", "1-1-1", "1-4-40"],
)
def test_block_bytes_bounds_the_traced_peak(tokens, slots, users):
    # the estimate behind _BLOCK_BYTES_LIMIT must stay an upper bound on
    # the block actually drawn, also over two full blocks and a partial
    # one, apart from numpy's fixed-size buffers for the cast to intp (one
    # per input operand of np.add)
    cast_buffers = 2 * np.getbufsize() * np.dtype(np.intp).itemsize
    for mode in DetectionMode:
        config = SystemConfig(tokens, slots, users)
        block = _block_frames(config)
        # one untraced frame first, so numpy.random's first import stays
        # out of the trace when this test runs on its own
        estimate_pmf(SimParams(config, iterations=1, seed=5, mode=mode))
        for frames in (2000, 2 * block + 17):
            params = SimParams(config, iterations=frames, seed=5, mode=mode)
            tracemalloc.start()
            try:
                estimate_pmf(params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            drawn = _block_bytes(config, min(frames, block))
            assert peak <= drawn + cast_buffers, (mode, frames)
