"""Exact success distributions against brute-force oracles and closed forms."""

from __future__ import annotations

import sys
import threading
import tracemalloc
from fractions import Fraction

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
from accessframe.combinatorics import stirling2_strip
from oracles import (
    brute_force_pmf,
    expected_successes_by_occupancy,
    hypergeometric_by_enumeration,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(tokens=0, data_slots=1, users=1)
    with pytest.raises(ValueError):
        SystemConfig(tokens=1, data_slots=0, users=1)
    with pytest.raises(ValueError):
        SystemConfig(tokens=1, data_slots=1, users=-1)
    SystemConfig(tokens=1, data_slots=1, users=0)  # zero users is a real frame


def test_config_derived_quantities():
    cfg = SystemConfig(8, 4, 12)
    assert cfg.max_successes == 4
    assert cfg.frame_slots == 5
    assert SystemConfig(3, 9, 2).max_successes == 2


def test_config_accepts_integer_like_values():
    import numpy as np

    cfg = SystemConfig(np.int64(4), np.int32(2), np.int64(3))
    assert (cfg.tokens, cfg.data_slots, cfg.users) == (4, 2, 3)
    assert type(cfg.tokens) is int


def test_outcome_probabilities_two_tokens_two_users():
    cfg = SystemConfig(2, 1, 2)
    assert outcome_probability(cfg, 2, 0) == Fraction(1, 2)
    assert outcome_probability(cfg, 0, 1) == Fraction(1, 2)
    assert outcome_probability(cfg, 1, 0) == 0  # one user cannot leave the other idle


def test_outcome_probabilities_sum_to_one():
    for tokens, users in [(2, 2), (3, 4), (4, 1), (5, 0), (2, 6)]:
        cfg = SystemConfig(tokens, 1, users)
        total = sum(
            outcome_probability(cfg, s, c)
            for s in range(tokens + 1)
            for c in range(tokens - s + 1)
        )
        assert total == 1, (tokens, users)


def test_outcome_probability_rejects_impossible_splits():
    cfg = SystemConfig(2, 1, 2)
    with pytest.raises(ValueError):
        outcome_probability(cfg, 2, 1)
    with pytest.raises(ValueError):
        outcome_probability(cfg, -1, 0)


def test_success_pmf_two_tokens():
    assert success_pmf(SystemConfig(2, 1, 2)).mass == (Fraction(1, 2), Fraction(1, 2))
    assert success_pmf(SystemConfig(2, 2, 2)).mass == (
        Fraction(1, 2),
        Fraction(0),
        Fraction(1, 2),
    )


def test_success_pmf_lone_user_always_wins():
    assert success_pmf(SystemConfig(8, 4, 1)).mass == (Fraction(0), Fraction(1))


def test_success_pmf_no_users_is_point_mass():
    pmf = success_pmf(SystemConfig(4, 2, 0))
    assert pmf.mass == (Fraction(1),)
    assert pmf.mean() == 0


def test_success_pmf_support_and_kind():
    pmf = success_pmf(SystemConfig(8, 4, 12))
    assert len(pmf) == 5  # d = 0 .. min(M, K, T)
    assert pmf.kind is PmfKind.EXACT
    assert pmf.total() == 1


def test_success_pmf_matches_brute_force():
    for tokens in range(1, 5):
        for users in range(5):
            for slots in range(1, 5):
                cfg = SystemConfig(tokens, slots, users)
                assert success_pmf(cfg).mass == tuple(
                    brute_force_pmf(tokens, slots, users)
                ), cfg


def test_success_pmf_is_split_mixture_of_hypergeometrics():
    # the optimized accumulation must equal the literal two-stage law:
    # condition on the contention split, then draw slots without replacement
    for cfg in [SystemConfig(4, 2, 5), SystemConfig(3, 3, 4), SystemConfig(8, 4, 6)]:
        direct = [Fraction(0)] * (cfg.max_successes + 1)
        for s in range(min(cfg.tokens, cfg.users) + 1):
            for c in range(min(cfg.tokens, cfg.users) - s + 1):
                p_split = outcome_probability(cfg, s, c)
                if p_split == 0:
                    continue
                k = min(s + c, cfg.data_slots)
                for d, p_grant in hypergeometric_by_enumeration(s, c, k).items():
                    direct[d] += p_split * p_grant
        assert success_pmf(cfg).mass == tuple(direct), cfg


def test_success_pmf_deep_load_is_normalized_with_occupancy_mean():
    cfg = SystemConfig(8, 4, 1600)
    pmf = success_pmf(cfg)
    assert pmf.total() == 1
    assert pmf.mean() == expected_successes_by_occupancy(8, 4, 1600)


tokens = st.integers(1, 10)
slots = st.integers(1, 10)
users = st.integers(0, 30)


@settings(deadline=None)
@given(tokens, slots, users)
def test_success_pmf_masses_sum_to_one(m, k, t):
    assert success_pmf(SystemConfig(m, k, t)).total() == 1


@settings(deadline=None)
@given(tokens, slots, users)
def test_success_pmf_masses_are_assignment_counts(m, k, t):
    # every mass counts some of the m**t equally likely assignments
    for p in success_pmf(SystemConfig(m, k, t)).mass:
        assert (p * m**t).denominator == 1


@settings(deadline=None)
@given(tokens, slots, users)
def test_success_pmf_mean_matches_occupancy_sum(m, k, t):
    mean = success_pmf(SystemConfig(m, k, t)).mean()
    assert mean == expected_successes_by_occupancy(m, k, t)


@settings(deadline=None)
@given(tokens, st.integers(0, 10), users)
def test_success_pmf_is_constant_once_slots_cover_active_tokens(m, extra, t):
    # at most min(m, t) tokens are active, so more slots change nothing
    k = max(1, min(m, t))
    wide = success_pmf(SystemConfig(m, k + extra, t))
    assert wide.mass == success_pmf(SystemConfig(m, k, t)).mass


def test_success_pmf_refuses_oversized_inputs_before_building():
    stirling2_strip.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="fewer users or tokens"):
            success_pmf(SystemConfig(64, 8, 20000))
        with pytest.raises(ValueError, match="fewer users or tokens"):
            success_pmf(SystemConfig(1000, 8, 1000))  # the split sum is too large
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert stirling2_strip.cache_info().currsize == 0


def test_success_pmf_is_safe_across_threads():
    # the strip cache holds one entry, so these configurations keep
    # evicting each other; every result must still match a serial run
    configs = [SystemConfig(8, 4, 400), SystemConfig(16, 8, 300)]
    serial = {cfg: success_pmf(cfg) for cfg in configs}
    results: list[tuple[SystemConfig, object]] = []
    lock = threading.Lock()

    def work(cfg: SystemConfig) -> None:
        for _ in range(10):
            pmf = success_pmf(cfg)
            with lock:
                results.append((cfg, pmf))

    threads = [threading.Thread(target=work, args=(cfg,)) for cfg in configs * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 10 * len(threads)
    assert all(pmf == serial[cfg] for cfg, pmf in results)


def test_success_pmf_saturates_at_token_count():
    base = success_pmf(SystemConfig(6, 6, 9)).mass
    for slots in (7, 10, 25):
        assert success_pmf(SystemConfig(6, slots, 9)).mass == base


def test_success_pmf_closed_form_when_slots_cover_tokens():
    # with K >= M every active token is granted, so a user succeeds iff
    # nobody else picked its token
    for tokens, users in [(8, 12), (4, 7), (2, 3)]:
        pmf = success_pmf(SystemConfig(tokens, tokens, users))
        sigma = pmf.mean() / users
        assert sigma == Fraction(tokens - 1, tokens) ** (users - 1)


def test_pmf_json_round_trip_is_exact():
    pmf = success_pmf(SystemConfig(8, 4, 12))
    clone = SuccessPmf.from_json(pmf.to_json())
    assert clone == pmf
    assert clone.to_json() == pmf.to_json()


def test_pmf_json_schema():
    payload = success_pmf(SystemConfig(2, 2, 2)).to_json_dict()
    assert payload == {
        "M": 2,
        "K": 2,
        "T": 2,
        "kind": "exact",
        "mass": ["1/2", "0/1", "1/2"],
    }


def test_pmf_json_rejects_unknown_kind():
    text = success_pmf(SystemConfig(2, 1, 2)).to_json().replace('"exact"', '"float"')
    with pytest.raises(ValueError):
        SuccessPmf.from_json(text)


def test_pmf_csv_layout():
    text = success_pmf(SystemConfig(2, 1, 2)).to_csv()
    assert text == "d,probability\n0,0.5\n1,0.5\n"
