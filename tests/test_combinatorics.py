"""Exact combinatorial primitives against independent enumeration."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accessframe.combinatorics import (
    STRIP_WORK_LIMIT,
    binomial,
    falling_factorial,
    hypergeometric_pmf,
    stirling2_assoc,
    stirling2_strip,
    strip_work,
)
from oracles import (
    hypergeometric_by_enumeration,
    min_size2_partition_counts,
    pascal_triangle,
)


def test_binomial_matches_pascal_triangle():
    triangle = pascal_triangle(40)
    for n in range(41):
        for k in range(n + 1):
            assert binomial(n, k) == triangle[n][k]


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_falling_factorial_values():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(5, 5) == 120
    assert falling_factorial(3, 4) == 0  # more factors than items


def test_falling_factorial_rejects_negatives():
    with pytest.raises(ValueError):
        falling_factorial(-1, 1)
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


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


def test_hypergeometric_hand_values():
    # 2 singles, 1 collision, 2 slots drawn
    assert hypergeometric_pmf(2, 1, 2, 1) == Fraction(2, 3)
    assert hypergeometric_pmf(2, 1, 2, 2) == Fraction(1, 3)
    assert hypergeometric_pmf(2, 1, 2, 0) == 0
    assert hypergeometric_pmf(3, 2, 5, 3) == 1  # draw everything


def test_hypergeometric_matches_enumeration():
    for s in range(5):
        for c in range(5):
            for k in range(s + c + 1):
                expected = hypergeometric_by_enumeration(s, c, k)
                for d in range(k + 1):
                    assert hypergeometric_pmf(s, c, k, d) == expected.get(
                        d, Fraction(0)
                    ), (s, c, k, d)


def test_hypergeometric_sums_to_one():
    for s in range(6):
        for c in range(6):
            for k in range(s + c + 1):
                total = sum(hypergeometric_pmf(s, c, k, d) for d in range(k + 1))
                assert total == 1, (s, c, k)


def test_hypergeometric_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hypergeometric_pmf(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        hypergeometric_pmf(0, -1, 0, 0)
    with pytest.raises(ValueError):
        hypergeometric_pmf(1, 1, -1, 0)
    with pytest.raises(ValueError):
        hypergeometric_pmf(1, 1, 3, 1)  # cannot draw more than s + c
