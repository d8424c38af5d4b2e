"""Exact combinatorial primitives against independent enumeration."""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import comb, factorial, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accessframe import analysis, metrics
from accessframe.analysis import SystemConfig, outcome_probability
from accessframe.combinatorics import (
    SURJECTION_WORK_LIMIT,
    exact_work,
    surjection_rows,
)
from charges import charged_work
from oracles import (
    _size2_partition_triangle,
    min_size2_partition_counts,
    surjection_counts,
)


def stirling2_assoc(n: int, k: int) -> int:
    """S(n, k), the partitions of an n-set into k blocks of size at least
    two, read off the library's contention-split law: with no singles,
    the k collision tokens of M = max(k, 1) label the k blocks, so
    S(n, k) = P(0 singles, k collisions | M, T = n) * M**n / k!."""
    tokens = max(k, 1)
    split = outcome_probability(SystemConfig(tokens, 1, n), 0, k)
    partitions = split * tokens**n / factorial(k)
    assert partitions.denominator == 1, (n, k, partitions)
    return partitions.numerator


def test_stirling_base_case():
    assert stirling2_assoc(2, 1) == 1


def test_stirling_empty_set_convention():
    # one way to split nothing into no blocks; this choice is what makes
    # the recurrence reproduce the base case and the pmf sum to 1
    assert stirling2_assoc(0, 0) == 1


def test_stirling_zero_rules():
    assert stirling2_assoc(0, 1) == 0
    assert stirling2_assoc(3, 0) == 0
    assert stirling2_assoc(5, 3) == 0  # 3 blocks of size >= 2 need 6 elements
    assert stirling2_assoc(7, 4) == 0
    assert stirling2_assoc(1, 1) == 0
    # a negative set or block count is no split: the law refuses it
    with pytest.raises(ValueError, match="users must be >= 0"):
        stirling2_assoc(-1, 0)
    with pytest.raises(ValueError, match="must be non-negative"):
        stirling2_assoc(5, -1)


def test_stirling_hand_values():
    assert stirling2_assoc(4, 2) == 3
    assert stirling2_assoc(5, 2) == 10
    assert stirling2_assoc(6, 3) == 15
    assert stirling2_assoc(7, 2) == 56
    assert stirling2_assoc(7, 3) == 105
    assert stirling2_assoc(8, 4) == 105


def test_stirling_matches_partition_enumeration():
    for n in range(13):
        counts = min_size2_partition_counts(n)
        for k in range(n + 1):
            assert stirling2_assoc(n, k) == counts.get(k, 0), (n, k)


@lru_cache(maxsize=None)
def _triangle(max_n: int) -> dict[tuple[int, int], int]:
    """Every interior S(n, k), n <= max_n, from full triangular rows of
    the recurrence S(n, k) = k * S(n - 1, k) + (n - 1) * S(n - 2, k - 1):
    the reference the inclusion-exclusion over surjections must match."""
    rows = _size2_partition_triangle(max_n, max_n // 2)
    return {(n, k): v for n, row in enumerate(rows) for k, v in enumerate(row)}


@settings(deadline=None)
@given(st.integers(0, 300), st.data())
def test_stirling2_assoc_matches_full_triangle(n, data):
    k = data.draw(st.integers(0, n // 2 + 1))
    assert stirling2_assoc(n, k) == _triangle(300).get((n, k), 0), (n, k)


def test_stirling2_assoc_refuses_oversized_inputs():
    with pytest.raises(ValueError, match="fewer users or tokens"):
        stirling2_assoc(20000, 5000)
    with pytest.raises(ValueError, match="fewer users or tokens"):
        stirling2_assoc(10**9, 10**8)  # the estimate itself stops early


def test_stirling2_assoc_without_blocks_needs_no_roll(monkeypatch):
    rows_from_zero = analysis.surjection_rows

    def no_rows(rows, cols):
        # row 0 is where the roll starts: asking for it alone rolls nothing
        if rows.stop > 1:
            raise AssertionError("a surjection row was rolled")
        return rows_from_zero(rows, cols)

    monkeypatch.setattr(analysis, "surjection_rows", no_rows)
    assert stirling2_assoc(10**9, 0) == 0
    assert stirling2_assoc(0, 0) == 1
    assert outcome_probability(SystemConfig(1, 1, 10**6), 0, 0) == 0


def _rows(rows: int, cols: int) -> list[tuple[int, ...]]:
    """Rows 0 .. rows, the whole roll."""
    return list(surjection_rows(range(rows + 1), cols))


def test_surjection_rows_match_map_enumeration():
    for cols in range(8):
        for n, row in enumerate(_rows(6, cols)):
            counts = surjection_counts(n)
            assert row == tuple(counts.get(j, 0) for j in range(min(cols, n) + 1))


@settings(deadline=None)
@given(st.integers(0, 150), st.integers(0, 30))
def test_surjection_rows_match_inclusion_exclusion(rows, cols):
    # surj(n, j) = sum_i (-1)**(j - i) * C(j, i) * i**n
    for n, row in enumerate(_rows(rows, cols)):
        assert len(row) == min(cols, n) + 1
        for j, value in enumerate(row):
            assert value == sum(
                (-1) ** (j - i) * comb(j, i) * i**n for i in range(j + 1)
            ), (n, j)


@settings(deadline=None)
@given(st.integers(0, 400), st.integers(0, 400), st.integers(0, 60))
def test_surjection_work_bounds_row_size(a, b, cols):
    # the estimate is meant as an upper bound on the digits of the window
    rows = range(a, b)
    bits = sum(v.bit_length() for row in surjection_rows(rows, cols) for v in row)
    assert exact_work(rows, cols) >= bits


#: windows near row 0, and windows starting far past their columns
WINDOWS = st.one_of(
    st.tuples(st.integers(0, 120), st.integers(0, 120), st.integers(0, 30)),
    st.tuples(st.integers(0, 3000), st.integers(-3, 12), st.integers(0, 16)).map(
        lambda w: (w[0], w[0] + w[1], w[2])
    ),
)


@settings(deadline=None)
@given(WINDOWS)
def test_surjection_rows_yield_the_rows_asked_for(window):
    # any window, empty ones included, is that slice of the whole roll: a
    # seeded first row equals the row rolled from row 0
    a, b, cols = window
    whole = islice(surjection_rows(range(max(a, b)), cols), a, None)
    assert list(surjection_rows(range(a, b), cols)) == list(whole)


def test_surjection_work_prices_rolls_against_the_limit():
    # the largest benchmark window passes with 100x headroom; tokens =
    # users = 1000 in the metrics passes too
    assert exact_work(range(256), 127) * 100 < SURJECTION_WORK_LIMIT
    assert exact_work(range(999, 1000), 999) < SURJECTION_WORK_LIMIT
    # a seeded row far past its columns is cheap; rolling to it is not,
    # and neither is a seed of 2000 columns
    assert exact_work(range(19999, 20000), 63) * 10 < SURJECTION_WORK_LIMIT
    assert exact_work(range(20000), 63) > SURJECTION_WORK_LIMIT
    assert exact_work(range(1999, 2000), 1999) > SURJECTION_WORK_LIMIT
    assert exact_work(range(10**9), 10**8) > SURJECTION_WORK_LIMIT  # stops early
    # a count past float range is not priced, and neither is a seed whose
    # estimate overflows below it
    assert exact_work(range(10**400, 10**400 + 1), 4) == inf
    assert exact_work(range(1), 1, means=10**400) == inf
    assert exact_work(range(10**200, 10**200 + 1), 4) == inf


def test_surjection_rows_reject_bad_shapes():
    with pytest.raises(ValueError):
        surjection_rows(range(-1, 2), 2)
    with pytest.raises(ValueError):
        surjection_rows(range(5), -1)


@settings(deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 60),
    st.integers(0, 300),
    st.lists(st.integers(1, 300), min_size=1, max_size=8, unique=True),
    st.lists(st.integers(1, 80), min_size=1, max_size=8, unique=True),
)
def test_entry_estimates_cover_their_rolls(tokens, slots, users, by_users, by_slots):
    # every entry point prices the roll it asks for, so the roll needs no
    # guard of its own
    config = SystemConfig(tokens, slots, users)
    users_sweep = (metrics, lambda: metrics.sweep(config, "users", sorted(by_users)))
    entries = [
        (analysis, lambda: analysis.success_pmf(config)),
        (metrics, lambda: metrics.expected_successes(config)),
        users_sweep,
    ]
    if users >= 1:
        entries += [
            (metrics, lambda: metrics.sweep(config, "data_slots", sorted(by_slots))),
            (metrics, lambda: metrics.optimal_data_slots(tokens, users, slots)),
        ]
    for module, call in entries:
        work, roll = charged_work(module, call)
        assert work <= SURJECTION_WORK_LIMIT
        if roll:
            rows, cols = roll
            assert work >= exact_work(rows, cols), roll
    # and asks for no row below the one its first user count reads
    _, (rows, _cols) = charged_work(*users_sweep)
    assert rows.start == min(by_users) - 1
