"""Success rate, efficiency, sweeps and the data-phase optimizer."""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import accessframe
from accessframe import metrics
from accessframe.analysis import SystemConfig, success_pmf
from accessframe.metrics import (
    CSV_HEADER,
    Axis,
    FrameMetrics,
    expected_successes,
    frame_metrics,
    optimal_data_slots,
    sweep,
)
from charges import charged_work
from oracles import expected_successes_by_occupancy


def test_success_rate_values():
    assert frame_metrics(SystemConfig(2, 1, 2)).success_rate == Fraction(1, 4)
    assert frame_metrics(SystemConfig(2, 2, 2)).success_rate == Fraction(1, 2)
    assert frame_metrics(SystemConfig(8, 4, 1)).success_rate == 1


def test_success_rate_needs_users():
    with pytest.raises(ValueError, match="success rate needs at least one user"):
        frame_metrics(SystemConfig(4, 2, 0))


def test_efficiency_values():
    assert frame_metrics(SystemConfig(2, 1, 2)).efficiency == Fraction(1, 4)
    assert frame_metrics(SystemConfig(8, 4, 1)).efficiency == Fraction(1, 5)
    assert frame_metrics(SystemConfig(2, 2, 2)).efficiency == Fraction(1, 3)
    assert expected_successes(SystemConfig(4, 2, 0)) == 0  # defined without users


def test_rate_and_efficiency_share_the_mean():
    for tokens in (2, 3, 8):
        for slots in (1, 4, 9):
            for users in (1, 5, 12):
                cfg = SystemConfig(tokens, slots, users)
                mean, report = expected_successes(cfg), frame_metrics(cfg)
                assert report.success_rate * users == mean
                assert report.efficiency * (slots + 1) == mean


def test_frame_metrics_consistency():
    report = frame_metrics(SystemConfig(8, 4, 12))
    assert report.expected_successes == report.success_rate * 12
    assert report.efficiency == report.expected_successes / 5
    assert 0 <= report.success_rate <= 1


def test_frame_metrics_rejects_inconsistent_fields():
    cfg = SystemConfig(2, 1, 2)
    with pytest.raises(ValueError):
        FrameMetrics(config=cfg, expected_successes=Fraction(3))  # rate above 1
    with pytest.raises(ValueError):
        FrameMetrics(config=cfg, expected_successes=Fraction(3, 2))  # above K
    with pytest.raises(ValueError):
        FrameMetrics(config=cfg, expected_successes=Fraction(-1, 2))
    with pytest.raises(ValueError):
        FrameMetrics(config=cfg.replace(users=0), expected_successes=Fraction(0))


def test_frame_metrics_csv():
    text = frame_metrics(SystemConfig(2, 1, 2)).to_csv()
    assert text == f"{CSV_HEADER}\n2,1,2,0.5,0.25,0.25\n"


def test_sweep_over_users_decreases_rate():
    report = sweep(SystemConfig(8, 8, 1), Axis.USERS, range(1, 31))
    assert len(report.rows) == 30
    rates = [row.success_rate for row in report.rows]
    assert all(b < a for a, b in zip(rates, rates[1:]))


def test_sweep_over_slots_saturates_at_token_count():
    report = sweep(SystemConfig(8, 1, 12), "data_slots", range(8, 17))
    rates = {row.success_rate for row in report.rows}
    assert len(rates) == 1  # no benefit past slots == tokens


def test_sweep_single_token_harmonic_efficiency():
    report = sweep(SystemConfig(1, 1, 1), Axis.DATA_SLOTS, range(1, 4))
    assert [row.efficiency for row in report.rows] == [
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 4),
    ]


def test_sweep_rows_follow_axis_values():
    report = sweep(SystemConfig(4, 2, 9), Axis.USERS, (1, 4, 7))
    assert report.values == (1, 4, 7)
    assert [row.config.users for row in report.rows] == [1, 4, 7]
    assert all(row.config.tokens == 4 for row in report.rows)


def test_sweep_rejects_bad_values():
    base = SystemConfig(4, 2, 9)
    with pytest.raises(ValueError):
        sweep(base, Axis.USERS, ())
    with pytest.raises(ValueError):
        sweep(base, Axis.USERS, (3, 3, 4))  # duplicates
    with pytest.raises(ValueError):
        sweep(base, Axis.USERS, (4, 3))  # unsorted
    with pytest.raises(ValueError):
        sweep(base, Axis.DATA_SLOTS, (0, 1))  # invalid config per row


def test_sweep_fixed_fields_exclude_the_axis():
    by_users = sweep(SystemConfig(8, 4, 1), Axis.USERS, (1, 2))
    assert by_users.fixed == {"M": 8, "K": 4}
    by_slots = sweep(SystemConfig(8, 1, 12), Axis.DATA_SLOTS, (1, 2))
    assert by_slots.fixed == {"M": 8, "T": 12}


def test_sweep_csv_layout():
    text = sweep(SystemConfig(1, 1, 1), Axis.DATA_SLOTS, range(1, 3)).to_csv()
    assert text == f"{CSV_HEADER}\n1,1,1,1,1,0.5\n1,2,1,1,1,0.333333333333\n"


def test_sweep_json_is_lossless():
    payload = json.loads(sweep(SystemConfig(2, 1, 1), Axis.USERS, (1, 2)).to_json())
    assert payload["axis"] == "users"
    assert payload["values"] == [1, 2]
    assert payload["provenance"] == {"kind": "exact", "seed": None, "iterations": None}
    assert payload["rows"][1] == {
        "M": 2,
        "K": 1,
        "T": 2,
        "expected_successes": "1/2",
        "success_rate": "1/4",
        "efficiency": "1/4",
    }


def test_optimal_data_slots_single_token():
    assert optimal_data_slots(1, 1, 8) == (1, Fraction(1, 2))


def test_optimal_data_slots_two_tokens_two_users():
    # rho(K=1) = 1/4, rho(K=2) = 1/3, and more slots only stretch the frame
    assert optimal_data_slots(2, 2, 4) == (2, Fraction(1, 3))


def test_optimal_data_slots_stays_below_token_count_under_load():
    best_k, best_rho = optimal_data_slots(8, 12, 8)
    assert best_k == 6
    assert best_k < 8
    assert best_rho == Fraction(757488207, 2147483648)


def test_optimal_data_slots_is_exhaustively_optimal():
    for tokens, users, k_max in [
        (3, 5, 6), (8, 12, 8), (2, 2, 4), (8, 12, 20), (3, 5, 40)
    ]:
        best_k, best_rho = optimal_data_slots(tokens, users, k_max)
        for k in range(1, k_max + 1):
            rho = frame_metrics(SystemConfig(tokens, k, users)).efficiency
            assert rho <= best_rho
            if rho == best_rho:
                assert best_k <= k  # ties break to the shorter frame


def test_optimal_data_slots_stops_once_slots_cover_active_tokens(monkeypatch):
    # past K = min(M, T) the mean is constant and efficiency only falls;
    # the scan reads every K from one surjection row
    slots_read, rows_built = [], []
    numerators = metrics._numerators
    surjection_rows = metrics.surjection_rows

    def counting_numerators(tokens, users, slots):
        slots_read.extend(slots)
        return numerators(tokens, users, slots)

    def counting_rows(rows, cols):
        rows_built.extend(rows)
        return surjection_rows(rows, cols)

    monkeypatch.setattr(metrics, "_numerators", counting_numerators)
    monkeypatch.setattr(metrics, "surjection_rows", counting_rows)
    for tokens, users in [(8, 12), (12, 5), (3, 3)]:
        slots_read.clear()
        rows_built.clear()
        optimal_data_slots(tokens, users, 50)
        assert slots_read == list(range(1, min(tokens, users) + 1))
        assert rows_built == [users - 1]


def _surjections(n, j):
    # inclusion-exclusion, independent of the roll
    return sum((-1) ** (j - i) * comb(j, i) * i**n for i in range(j + 1))


@settings(deadline=None)
@given(
    st.integers(1, 12),
    st.sets(st.integers(1, 20), min_size=1),
    st.sets(st.integers(1, 25), min_size=1),
)
def test_every_grid_entry_is_the_direct_sum(tokens, users, slots):
    # K runs past min(M, t) as well as below it
    users, slots = sorted(users), sorted(slots)
    grid = metrics._numerators(tokens, users, slots)
    assert len(grid) == len(users)
    for t, row in zip(users, grid):
        assert row == [
            t * sum(
                comb(tokens, a) * min(a, k) * _surjections(t - 1, a - 1)
                for a in range(1, tokens + 1)
            )
            for k in slots
        ]


def test_expected_successes_is_the_pmf_mean():
    for tokens in range(1, 13):
        for slots in range(1, 13):
            for users in range(0, 15):
                cfg = SystemConfig(tokens, slots, users)
                assert expected_successes(cfg) == success_pmf(cfg).mean(), cfg
    cfg = SystemConfig(128, 32, 256)
    assert expected_successes(cfg) == success_pmf(cfg).mean()


@settings(deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 120))
def test_expected_successes_matches_occupancy_sum(tokens, slots, users):
    assert expected_successes(
        SystemConfig(tokens, slots, users)
    ) == expected_successes_by_occupancy(tokens, slots, users)


def test_scans_equal_fresh_metrics_per_row():
    # a users sweep rolls one row forward, a data-slots sweep and the
    # optimizer read one row; each row must equal a fresh evaluation
    by_users = sweep(SystemConfig(24, 6, 1), Axis.USERS, (1, 2, 5, 23, 24, 25, 60))
    by_slots = sweep(SystemConfig(24, 1, 40), Axis.DATA_SLOTS, (1, 7, 24, 25, 90))
    for row in by_users.rows + by_slots.rows:
        assert row == frame_metrics(row.config)
    best_k, best_rho = optimal_data_slots(24, 40, 30)
    assert best_rho == frame_metrics(SystemConfig(24, best_k, 40)).efficiency


def test_metrics_refuse_oversized_inputs_before_building(monkeypatch):
    # a seeded first row fits users far past the tokens: 64 tokens and
    # 20000 users are computed, against the pmf's mean
    config = SystemConfig(64, 8, 20000)
    fitting = frame_metrics(config)
    assert fitting.expected_successes == success_pmf(config).mean()
    best_k, best = optimal_data_slots(64, 20000, 8)
    assert best == frame_metrics(config.replace(data_slots=best_k)).efficiency
    assert sweep(config, Axis.USERS, range(19990, 20001)).rows[-1] == fitting
    assert sweep(config, Axis.DATA_SLOTS, (1, 8)).rows[-1] == fitting

    def no_rows(rows, cols):
        raise AssertionError("a row was built before the cost guard")

    monkeypatch.setattr(metrics, "surjection_rows", no_rows)
    for call in [
        # 10**5 users: reducing and writing a mean over 64**(10**5) is too long
        lambda: frame_metrics(SystemConfig(64, 8, 10**5)),
        lambda: optimal_data_slots(64, 10**5, 8),
        lambda: sweep(SystemConfig(64, 8, 1), Axis.USERS, range(99990, 100001)),
        # each row is within the limit, the sums over 1000 of them are not
        lambda: sweep(SystemConfig(1000, 100, 1), Axis.USERS, range(1, 1001)),
        lambda: sweep(SystemConfig(64, 1, 10**5), Axis.DATA_SLOTS, (1, 2)),
        # every value is cheap, but there are too many to report; a range
        # is refused before it is walked
        lambda: sweep(SystemConfig(8, 4, 12), Axis.DATA_SLOTS, range(1, 10**12)),
        lambda: sweep(SystemConfig(8, 4, 1), Axis.USERS, range(1, 10**12)),
        lambda: sweep(SystemConfig(8, 4, 12), Axis.DATA_SLOTS, range(1, 100001)),
        # more values than len() of a range can count
        lambda: sweep(SystemConfig(8, 4, 12), Axis.DATA_SLOTS, range(1, 10**20)),
        lambda: sweep(SystemConfig(8, 4, 1), Axis.USERS, range(1, 10**20)),
        # user counts and sweep lengths past float range
        lambda: frame_metrics(SystemConfig(4, 2, 10**400)),
        lambda: optimal_data_slots(4, 10**400, 2),
        lambda: sweep(SystemConfig(4, 2, 1), Axis.USERS, range(1, 10**400)),
        lambda: sweep(SystemConfig(4, 2, 5), Axis.DATA_SLOTS, range(1, 10**400)),
    ]:
        with pytest.raises(ValueError, match="fewer users or tokens"):
            call()


def test_metrics_estimate_grows_with_tokens():
    # past 2**53 tokens the two large lgammas of log2 C(M, a) cancel to
    # float noise; the estimate reads an upper bound there instead
    tokens = sorted([10**9, 10**15, 10**17, 10**20, 2**64])
    works = [
        charged_work(metrics, lambda: expected_successes(SystemConfig(m, 4, 300)))[0]
        for m in tokens
    ]
    assert works == sorted(works), dict(zip(tokens, works))


def test_users_sweep_from_zero_users_fails_before_building(monkeypatch):
    def no_rows(rows, cols):
        raise AssertionError("a row was built before the zero-user check")

    monkeypatch.setattr(metrics, "surjection_rows", no_rows)
    for values in (range(0, 600), (0, 5, 9)):
        with pytest.raises(ValueError, match="success rate needs at least one user"):
            sweep(SystemConfig(600, 100, 1), Axis.USERS, values)


def test_unordered_sweep_fails_before_building(monkeypatch):
    def no_rows(rows, cols):
        raise AssertionError("a row was built before the order check")

    monkeypatch.setattr(metrics, "surjection_rows", no_rows)
    for base, axis in [
        (SystemConfig(600, 100, 1), Axis.USERS),
        (SystemConfig(600, 100, 600), Axis.DATA_SLOTS),
    ]:
        for values in (range(600, 0, -1), (1, 5, 5, 9)):
            with pytest.raises(ValueError, match="strictly increasing"):
                sweep(base, axis, values)


def test_optimal_data_slots_validation():
    with pytest.raises(ValueError):
        optimal_data_slots(0, 1, 1)
    with pytest.raises(ValueError):
        optimal_data_slots(1, 0, 1)
    with pytest.raises(ValueError):
        optimal_data_slots(1, 1, 0)


def test_provenance_validation():
    # Only exact sweeps exist, so every sweep JSON carries the one exact
    # provenance object, kept for schema stability.
    assert not hasattr(accessframe, "Provenance")
    assert not hasattr(metrics, "Provenance")
    base = SystemConfig(3, 2, 4)
    for axis, values in ((Axis.USERS, (1, 5)), (Axis.DATA_SLOTS, (1, 3))):
        payload = json.loads(sweep(base, axis, values).to_json())
        assert payload["provenance"] == {
            "kind": "exact",
            "seed": None,
            "iterations": None,
        }
