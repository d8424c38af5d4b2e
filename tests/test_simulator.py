"""Seeded Monte Carlo runs: protocol rules, determinism, convergence."""

from __future__ import annotations

import json
import math
import statistics
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accessframe.analysis import (
    PmfKind,
    SuccessPmf,
    SystemConfig,
    outcome_probability,
    success_pmf,
)
from accessframe.simulator import (
    RNG_ALGORITHM,
    ComparisonRecord,
    DetectionMode,
    EmpiricalReport,
    FrameTrace,
    SimParams,
    compare_to_exact,
    estimate_pmf,
    make_rng,
    simulate_frame,
)
from accessframe.simulator import _GRANT_CELLS, _grant_law, _walk_states
from oracles import brute_force_ternary_pmf


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


def test_simulate_frame_refuses_oversized_frames_before_drawing():
    # a frame holds its draws and a count per token, so one past the
    # limit is refused before numpy allocates any of them
    rng = make_rng(1)
    state = rng.bit_generator.state
    tracemalloc.start()
    try:
        for mode in DetectionMode:
            for tokens, users in ((10**12, 12), (12, 10**12), (10**7, 1)):
                with pytest.raises(ValueError, match="fewer tokens or users"):
                    simulate_frame(SystemConfig(tokens, 4, users), mode, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert rng.bit_generator.state == state


def test_frame_trace_validation():
    cfg = SystemConfig(3, 1, 3)
    good = FrameTrace(cfg, DetectionMode.BINARY, (1, 2, 0), (0,))
    assert good.successes == 1
    # a granted collision wastes its slot
    assert FrameTrace(cfg, DetectionMode.BINARY, (1, 2, 0), (1,)).successes == 0
    with pytest.raises(ValueError):
        FrameTrace(cfg, DetectionMode.BINARY, (1, 1, 0), (0,))  # counts sum short
    with pytest.raises(ValueError):
        FrameTrace(cfg, DetectionMode.BINARY, (1, 2, 0), (2,))  # idle token granted
    with pytest.raises(ValueError):
        FrameTrace(cfg, DetectionMode.BINARY, (1, 2, 0), ())  # slot left idle
    with pytest.raises(ValueError):
        FrameTrace(cfg, DetectionMode.TERNARY, (1, 2, 0), (1,))  # ternary grant
    # a mode given by its value is checked under its own rule
    assert FrameTrace(cfg, "binary", (1, 2, 0), (1,)).mode is DetectionMode.BINARY
    with pytest.raises(ValueError):
        FrameTrace(cfg, "x", (1, 2, 0), (0,))  # no such mode
    wide = SystemConfig(3, 2, 3)
    with pytest.raises(ValueError):
        FrameTrace(wide, DetectionMode.BINARY, (1, 1, 1), (0, 0))  # granted twice
    with pytest.raises(ValueError):
        FrameTrace(wide, DetectionMode.BINARY, (1, -1, 3), (0, 2))  # negative count
    # a grant past either end of the tokens is refused, not wrapped or missed
    for mode, counts in (("binary", (1, 2, 0)), ("ternary", (1, 1, 1))):
        for outside in (cfg.tokens, -1):
            with pytest.raises(ValueError, match="eligible, each once"):
                FrameTrace(cfg, mode, counts, (outside,))
    # counts and selection given as lists are kept as tuples of ints, so the
    # trace hashes and equals the same trace built from tuples
    listed = FrameTrace(cfg, "binary", [1, 2, 0], [0])
    assert (listed.counts, listed.selected) == ((1, 2, 0), (0,))
    assert listed == good and hash(listed) == hash(good)


def test_binary_counts_equal_ternary_when_everyone_fits():
    # with a slot for every token, all active tokens are granted, so the
    # binary grant law puts every frame of a state on its singles, and the
    # grant is drawn after the walk: both modes tally the same walk
    for tokens, slots, users in [(4, 4, 6), (8, 9, 12), (3, 5, 2)]:
        cfg = SystemConfig(tokens, slots, users)
        for iterations in (1, 1000, 100_003):
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
    # more tokens than an int16 holds, and far more than users
    cfg = SystemConfig(40000, 4, 12)
    report = estimate_pmf(SimParams(cfg, iterations=3000, seed=23))
    _assert_within_sampling_noise(success_pmf(cfg).mass, report.counts)


def _ternary_from_binary(cfg):
    """Exact ternary pmf from the binary pmf with a slot for every user:
    then every active token is granted, so the successes are the
    singles, which ternary detection caps at the data slots."""
    singles = success_pmf(cfg.replace(data_slots=cfg.users)).mass
    k = cfg.max_successes
    return [*singles[:k], sum(singles[k:])]


@pytest.mark.parametrize(
    "tokens, slots, users, iterations",
    [(4, 2, 8, 2000), (4, 2, 8, 60000), (40000, 4, 12, 20000), (4, 2, 16, 20000)],
    ids=["4-8-2000", "4-8-60000", "40000-12", "4-16-absorbing"],
)
def test_both_modes_match_the_exact_laws(tokens, slots, users, iterations):
    # few and many frames, T << M, and T >= 2M, where three quarters of
    # the frames reach the absorbing state (every token collided)
    cfg = SystemConfig(tokens, slots, users)
    if tokens**users <= 10**6:
        ternary = brute_force_ternary_pmf(tokens, slots, users)
    else:  # too many assignments to enumerate
        ternary = _ternary_from_binary(cfg)
    laws = {"binary": success_pmf(cfg).mass, "ternary": ternary}
    for mode, exact in laws.items():
        report = estimate_pmf(SimParams(cfg, iterations, seed=31, mode=mode))
        _assert_within_sampling_noise(exact, report.counts)


def test_ternary_from_binary_matches_enumeration():
    for tokens, slots, users in [(3, 1, 4), (4, 2, 5), (5, 3, 4), (2, 2, 6), (6, 6, 3)]:
        assert _ternary_from_binary(
            SystemConfig(tokens, slots, users)
        ) == brute_force_ternary_pmf(tokens, slots, users)


def _joint_law(cfg):
    """Exact probability of each (singles, collisions) split."""
    return {
        (s, c): outcome_probability(cfg, s, c)
        for s in range(min(cfg.tokens, cfg.users) + 1)
        for c in range(min(cfg.tokens - s, (cfg.users - s) // 2) + 1)
    }


@pytest.mark.parametrize(
    "tokens, users, frames",
    [(6, 7, 20000), (3, 9, 20000), (40, 5, 20000), (5, 5, 7)],
    ids=["T~M", "T>=2M-absorbing", "T<<M", "few-frames"],
)
def test_walk_states_follow_the_exact_joint_law(tokens, users, frames):
    # the walk's final states against the exact law of (singles,
    # collisions), which no draw of the grant touches
    cfg = SystemConfig(tokens, 1, users)
    law = _joint_law(cfg)
    assert sum(law.values()) == 1
    _, singles, active, counts = _walk_states(SimParams(cfg, frames, seed=19))
    splits = zip(singles.tolist(), (active - singles).tolist())
    held = dict(zip(splits, counts.tolist()))
    assert set(held) <= set(law)
    _assert_within_sampling_noise(list(law.values()), [held.get(k, 0) for k in law])


def _assert_walk_invariants(cfg, frames, singles, active, counts):
    assert singles.dtype == active.dtype == counts.dtype == np.int64
    assert int(counts.sum()) == frames and (counts > 0).all()
    assert (0 <= singles).all() and (singles <= active).all()
    assert (active <= min(cfg.tokens, cfg.users)).all()
    # every collision holds at least two users
    assert (singles + 2 * (active - singles) <= cfg.users).all()
    # each occupied state is listed once
    assert len(set(zip(singles.tolist(), active.tolist()))) == len(counts)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12), st.integers(0, 30), st.integers(1, 10**9), st.integers(0, 2**32)
)
def test_walk_states_keep_their_invariants_after_every_user(
    tokens, users, frames, seed
):
    for t in range(users + 1):
        cfg = SystemConfig(tokens, 1, t)
        _, *states = _walk_states(SimParams(cfg, frames, seed=seed))
        _assert_walk_invariants(cfg, frames, *states)


def test_walk_states_keep_their_invariants_past_2_15_tokens():
    # min(M, T) = 2^15 keys states by values past an int16
    cfg = SystemConfig(1 << 15, 4, (1 << 15) + 1)
    _assert_walk_invariants(cfg, 2, *_walk_states(SimParams(cfg, 2, seed=3))[1:])


def test_grant_law_matches_exact_hypergeometric_weights():
    # each row against C(s, d) C(a - s, k - d) / C(a, k), including rows
    # whose exact weights pass a float's range
    states = [(s, a) for a in range(13) for s in range(a + 1)]
    states += [(700, 1300), (1300, 1300), (0, 1300), (12000, 20700), (1, 2)]
    for cap in (0, 1, 4, 12, 1024):
        singles = np.array([s for s, _ in states], dtype=np.int64)
        active = np.array([a for _, a in states], dtype=np.int64)
        width = min(cap, int(singles.max())) + 1
        law = _grant_law(singles, active, cap, width)
        for (s, a), row in zip(states, law):
            k = min(a, cap)
            for d, p in enumerate(row.tolist()):
                ways = math.comb(s, d) * math.comb(a - s, k - d) if d <= k else 0
                exact = ways / math.comb(a, k)
                assert abs(p - exact) <= 1e-12 * exact, (s, a, cap, d)


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
    assert sum(report.pmf_hat.mass) == 1
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
    # totals cover every frame, however many
    cfg = SystemConfig(4, 2, 6)
    for n in (1, 24983, 2**40 + 17):
        for mode in DetectionMode:
            report = estimate_pmf(SimParams(cfg, iterations=n, seed=3, mode=mode))
            assert sum(report.counts) == n


def test_seeded_streams_are_pinned_to_the_rng_version():
    # any change to these counts changes the published stream, so it must
    # come with a new RNG_ALGORITHM version
    assert RNG_ALGORITHM == "numpy-pcg64/v5"
    binary = SimParams(
        SystemConfig(8, 3, 10), iterations=(1 << 15) + 17, seed=20260
    )
    assert estimate_pmf(binary).counts == (3684, 13284, 12664, 3153)
    ternary = SimParams(
        SystemConfig(6, 2, 5), iterations=1000, seed=77, mode="ternary"
    )
    assert estimate_pmf(ternary).counts == (34, 252, 714)
    # a benchmark-sized frame
    crowded = SimParams(SystemConfig(128, 4, 160), iterations=100_000, seed=20261)
    assert estimate_pmf(crowded).counts == (6083, 24911, 37740, 25213, 6053)
    # and one traced frame per mode
    cfg = SystemConfig(12, 3, 10)
    counts = (3, 1, 0, 0, 2, 1, 1, 0, 0, 1, 1, 0)
    for mode, selected in (("binary", (1, 4, 5)), ("ternary", (1, 5, 6))):
        trace = simulate_frame(cfg, mode, make_rng(2030))
        assert trace == FrameTrace(cfg, mode, counts, selected)


def test_estimate_pmf_refuses_oversized_blocks_before_drawing():
    # memory does not grow with the frames, so only a walk over so many
    # state-steps that it takes hours is over the limit
    tracemalloc.start()
    try:
        for mode in DetectionMode:
            # 10**400 users: a price past float range
            for users in (4 * 10**8, 10**400):
                params = SimParams(
                    SystemConfig(8, 4, users), iterations=100000, seed=1, mode=mode
                )
                with pytest.raises(ValueError, match="fewer users"):
                    estimate_pmf(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # 20000 users fit
    for mode in DetectionMode:
        params = SimParams(SystemConfig(8, 4, 20000), iterations=100, seed=1, mode=mode)
        assert sum(estimate_pmf(params).counts) == 100
    # and any frame count that a 64-bit count holds
    for frames, fits in ((2**63 - 1, True), (2**63, False)):
        params = SimParams(SystemConfig(8, 4, 12), iterations=frames, seed=1)
        if fits:
            assert sum(estimate_pmf(params).counts) == frames
        else:
            with pytest.raises(ValueError, match="fewer frames"):
                estimate_pmf(params)


def test_estimate_pmf_takes_any_token_count_that_a_float_holds():
    # the walk reads the token count only as a float, so the first count
    # that rounds past float range is the first one refused
    largest = 2**1024 - 2**970 - 1
    for mode in DetectionMode:
        for tokens in (2**63 + 1, 10**300, largest, largest + 1, 10**309):
            params = SimParams(SystemConfig(tokens, 1, 3), 10, seed=1, mode=mode)
            if tokens <= largest:
                assert estimate_pmf(params).counts == (0, 10)
            else:
                with pytest.raises(ValueError, match="fewer tokens"):
                    estimate_pmf(params)


@pytest.mark.parametrize(
    "tokens, slots, users",
    [
        (128, 46, 160), (8, 4, 12), (4, 4, 2000), (400, 4, 10), (1, 1, 1),
        (1, 4, 40), (64, 8, 70), (1000, 4, 20), (40000, 4, 12),
    ],
    ids=[
        "128-160", "8-12", "4-2000", "400-10", "1-1-1", "1-4-40",
        "64-70", "1000-20", "40000-12",
    ],
)
def test_estimate_pmf_peak_does_not_grow_with_frames(tokens, slots, users):
    # a run holds its occupied states (a few hundred at most here) and
    # one chunk of binary grant rows with its float temporaries (about
    # 1.2 MB), so 40x the frames of a benchmark-sized run stay under one
    # bound, also where the walk absorbs early (4-2000), where T << M
    # (40000-12) and where a single token takes every user (1-4-40)
    config = SystemConfig(tokens, slots, users)
    for mode in DetectionMode:
        # one untraced frame first, so numpy.random's first import stays
        # out of the trace when this test runs on its own
        estimate_pmf(SimParams(config, iterations=1, seed=5, mode=mode))
        for frames in (50_000, 2_000_000):
            tracemalloc.start()
            try:
                estimate_pmf(SimParams(config, iterations=frames, seed=5, mode=mode))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 48 * _GRANT_CELLS, (mode, frames, peak)


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
    cfg = SystemConfig(8, 4, 1)
    report = estimate_pmf(SimParams(cfg, iterations=500, seed=1))
    record = compare_to_exact(report, success_pmf(cfg))
    assert record.tv_distance == 0
    assert record.max_abs_mass_error == 0


def test_compare_to_exact_small_at_reference_size():
    for slots in (4, 8):
        cfg = SystemConfig(8, slots, 12)
        params = SimParams(cfg, iterations=100000, seed=42)
        record = compare_to_exact(estimate_pmf(params), success_pmf(cfg))
        assert 0 <= record.tv_distance <= Fraction(1, 100)
        assert record.max_abs_mass_error <= 2 * record.tv_distance


@st.composite
def _two_laws(draw):
    """A config and two count vectors over its outcomes, each with a
    positive total, so over denominators that mostly differ."""
    config = SystemConfig(draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                          draw(st.integers(0, 4)))
    laws = [
        draw(
            st.lists(st.integers(0, 50), min_size=config.max_successes + 1,
                     max_size=config.max_successes + 1).filter(any)
        )
        for _ in range(2)
    ]
    return config, *laws


@settings(deadline=None)
@given(_two_laws())
def test_compare_equals_the_mass_by_mass_fraction_distance(laws):
    config, simulated, reference = laws
    frames = sum(simulated)
    report = EmpiricalReport(SimParams(config, iterations=frames, seed=0), simulated)
    exact = SuccessPmf(config, reference, sum(reference), PmfKind.EMPIRICAL)
    # the reference arithmetic: one Fraction gap per mass
    gaps = [
        abs(Fraction(c, frames) - Fraction(e, sum(reference)))
        for c, e in zip(simulated, reference)
    ]
    assert compare_to_exact(report, exact) == ComparisonRecord(
        report.params, sum(gaps) / 2, max(gaps)
    )


def test_compare_rejects_ternary():
    cfg = SystemConfig(4, 2, 5)
    report = estimate_pmf(SimParams(cfg, iterations=100, seed=0, mode="ternary"))
    with pytest.raises(ValueError, match="ternary"):
        compare_to_exact(report, success_pmf(cfg))


def test_compare_rejects_a_law_of_another_config():
    # the same number of outcomes, so only the configuration tells them apart
    cfg = SystemConfig(8, 4, 12)
    report = estimate_pmf(SimParams(cfg, iterations=2000, seed=42))
    for other in (cfg.replace(tokens=9), cfg.replace(users=13)):
        with pytest.raises(ValueError, match="exact law is of"):
            compare_to_exact(report, success_pmf(other))


def test_tv_distance_shrinks_with_more_frames():
    cfg = SystemConfig(8, 4, 12)
    exact = success_pmf(cfg)
    medians = []
    for iterations in (1000, 10000, 100000):
        distances = [
            float(
                compare_to_exact(
                    estimate_pmf(SimParams(cfg, iterations=iterations, seed=seed)),
                    exact,
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
    assert payload["rng"] == RNG_ALGORITHM == "numpy-pcg64/v5"
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
    record = compare_to_exact(estimate_pmf(params), success_pmf(params.config))
    payload = json.loads(record.to_json())
    assert set(payload) == {
        "M", "K", "T", "mode", "seed", "iterations", "rng",
        "tv_distance", "max_abs_mass_error",
    }
    header = record.to_csv().split("\n", 1)[0]
    assert header == "M,K,T,mode,seed,iterations,tv_distance,max_abs_mass_error"
