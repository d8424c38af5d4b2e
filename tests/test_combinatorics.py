"""Exact combinatorial primitives against independent enumeration."""

from __future__ import annotations

from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accessframe.combinatorics import (
    STRIP_WORK_LIMIT,
    SURJECTION_WORK_LIMIT,
    stirling2_assoc,
    stirling2_strip,
    strip_work,
    surjection_rows,
    surjection_work,
)
from oracles import min_size2_partition_counts, surjection_counts


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
    the same recurrence: the reference the capped strip must reproduce."""
    entries = {(0, 0): 1}
    for n in range(2, max_n + 1):
        for k in range(1, n // 2 + 1):
            entries[(n, k)] = k * entries.get((n - 1, k), 0) + (n - 1) * entries.get(
                (n - 2, k - 1), 0
            )
    return entries


def _check_strip(rows: int, cols: int, first_row: int, expected) -> None:
    strip = stirling2_strip(rows, cols, first_row)
    assert len(strip) == rows - first_row + 1
    for r, row in enumerate(strip, start=first_row):
        assert len(row) == min(cols, r // 2) + 1, (r, cols)
        assert row == tuple(expected(r, k) for k in range(len(row))), r


@settings(deadline=None)
@given(st.data())
def test_strip_matches_partition_enumeration(data):
    rows = data.draw(st.integers(0, 12))
    cols = data.draw(st.integers(0, 7))
    first_row = data.draw(st.integers(0, rows))
    _check_strip(
        rows, cols, first_row, lambda r, k: min_size2_partition_counts(r).get(k, 0)
    )


@settings(deadline=None)
@given(st.data())
def test_strip_matches_full_triangle(data):
    rows = data.draw(st.integers(0, 300))
    cols = data.draw(st.integers(0, rows // 2 + 1))
    first_row = data.draw(st.integers(0, rows))
    triangle = _triangle(300)
    _check_strip(rows, cols, first_row, lambda r, k: triangle.get((r, k), 0))


def test_strip_is_immutable_and_reused():
    strip = stirling2_strip(40, 5, 30)
    assert isinstance(strip, tuple) and all(isinstance(row, tuple) for row in strip)
    assert stirling2_strip(40, 5, 30) is strip


@settings(deadline=None)
@given(st.integers(0, 400), st.integers(0, 60))
def test_strip_work_bounds_strip_size(rows, cols):
    # the memory bound on STRIP_WORK_LIMIT relies on this
    bits = sum(v.bit_length() for row in stirling2_strip(rows, cols) for v in row)
    assert strip_work(rows, cols) >= bits


def test_strip_refuses_oversized_inputs():
    # the largest benchmark strip passes with 10x headroom
    assert strip_work(1600, 16) * 10 < STRIP_WORK_LIMIT < strip_work(20000, 64)
    with pytest.raises(ValueError, match="fewer users or tokens"):
        stirling2_strip(20000, 64)
    with pytest.raises(ValueError, match="fewer users or tokens"):
        stirling2_assoc(10**9, 10**8)  # the estimate itself stops early


def test_strip_rejects_bad_shapes():
    with pytest.raises(ValueError):
        stirling2_strip(-1, 2)
    with pytest.raises(ValueError):
        stirling2_strip(5, -1)
    with pytest.raises(ValueError):
        stirling2_strip(5, 2, 6)


def _rows(rows: int, cols: int) -> list[tuple[int, ...]]:
    return list(surjection_rows(rows, cols))


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
@given(st.integers(0, 400), st.integers(0, 60))
def test_surjection_work_bounds_row_size(rows, cols):
    # the estimate is meant as an upper bound on the digits it rolls
    bits = sum(v.bit_length() for row in surjection_rows(rows, cols) for v in row)
    assert surjection_work(rows, cols) >= bits


def test_surjection_rows_refuse_oversized_inputs_before_building():
    # the largest benchmark row passes with 100x headroom; tokens =
    # users = 1000 in the metrics passes too
    assert surjection_work(255, 127) * 100 < SURJECTION_WORK_LIMIT
    assert surjection_work(999, 999) < SURJECTION_WORK_LIMIT
    assert surjection_work(19999, 63) > SURJECTION_WORK_LIMIT
    with pytest.raises(ValueError, match="fewer users or tokens"):
        surjection_rows(19999, 63)  # refused on the call, not on the first row
    with pytest.raises(ValueError, match="fewer users or tokens"):
        surjection_rows(10**9, 10**8)  # the estimate itself stops early


def test_surjection_rows_reject_bad_shapes():
    with pytest.raises(ValueError):
        surjection_rows(-1, 2)
    with pytest.raises(ValueError):
        surjection_rows(5, -1)
