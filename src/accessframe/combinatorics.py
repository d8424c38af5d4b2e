"""Exact combinatorial primitives on one counting recurrence: the
surjection numbers, and the 2-associated Stirling numbers read off them.

Everything here is integer arithmetic on Python ints, so results are
exact at any magnitude.  Surjection rows are built by rolling their
recurrence forward row by row, capped at the columns their callers read;
the cost of a roll is estimated, and refused over a fixed limit, before
it starts.
"""

from __future__ import annotations

import math
from collections import deque
from operator import add, mul
from typing import Iterator

__all__ = [
    "stirling2_assoc",
    "SURJECTION_WORK_LIMIT",
    "surjection_work",
    "surjection_rows",
]


def _log2_factorial(n: int) -> float:
    return math.lgamma(n + 1) / math.log(2)


def _log2_binomial(n: int, k: int) -> float:
    """log2 C(n, k) for 0 <= k <= n, in O(1) whatever the size."""
    return _log2_factorial(n) - _log2_factorial(k) - _log2_factorial(n - k)


def stirling2_assoc(n: int, k: int) -> int:
    """Number of partitions of an n-set into k blocks of size at least two.

    By inclusion-exclusion over the j blocks that are singletons,

        k! * S(n, k) = sum_j (-1)**j * C(k, j) * (n)_j * surj(n - j, k - j),

    which reads surjection rows n - k .. n capped at k columns.  S(0, 0) = 1
    (the empty partition), and S(n, k) = 0 whenever k > floor(n / 2) or
    either argument is negative.  Inputs whose roll would cost more than
    :data:`SURJECTION_WORK_LIMIT` raise ``ValueError`` before it starts.
    """
    if n < 0 or k < 0 or 2 * k > n:
        return 0
    rows = deque(surjection_rows(n, k), maxlen=k + 1)  # rows n - k .. n
    labelled = sum(
        (-1) ** j * math.comb(k, j) * math.perm(n, j) * rows[k - j][k - j]
        for j in range(k + 1)
    )
    return labelled // math.factorial(k)


#: Largest surjection roll :func:`surjection_rows` agrees to do, in
#: estimated bit-operations (see :func:`surjection_work`).  An entry of
#: the surjection recurrence is one addition and one small-integer
#: multiplication, which on a 2-core x86-64 host take 0.08-0.19 ns per
#: estimated bit-operation, so the limit stops a roll at about a second.
#: :func:`~accessframe.analysis.success_pmf` and the metrics hold their
#: whole computation, roll included, to the same limit.  Row 999 capped at
#: 999 columns (tokens = users = 1000 in the metrics) estimates 2.9e9; the
#: largest row the benchmark workloads ask for (users 256, 128 columns)
#: estimates 3.4e7.
SURJECTION_WORK_LIMIT = 8.0e9

#: Fixed costs of the surjection roll in the same units, measured: about
#: 50 ns per entry and 1.5 us of interpreter work per row.
_SURJECTION_ENTRY_BITS = 400
_SURJECTION_ROW_BITS = 12000


def surjection_work(rows: int, cols: int) -> float:
    """Estimated bigint work, in bit-operations, to roll surjection rows
    0..rows capped at ``cols`` columns.

    surj(r, j) <= j**r, so row r, which holds columns 0..w with
    w = min(cols, r), has at most r * log2(w!) + w + 1 bits and costs
    that plus the fixed costs.  Rows r >= cols all have w = cols and are
    summed in closed form; the rows below are summed one by one, stopping
    as soon as the total passes :data:`SURJECTION_WORK_LIMIT`, so the
    estimate is cheap for any input and never below the rows' total bit
    length.
    """
    head = min(rows + 1, cols)
    work = 0.0
    for r in range(head):
        work += (
            r * _log2_factorial(r)
            + _SURJECTION_ENTRY_BITS * (r + 1)
            + _SURJECTION_ROW_BITS
        )
        if work > SURJECTION_WORK_LIMIT:
            return work
    tail = rows + 1 - head
    work += (head + rows) * tail / 2 * _log2_factorial(cols)
    work += tail * (_SURJECTION_ENTRY_BITS * (cols + 1) + _SURJECTION_ROW_BITS)
    return work


def surjection_rows(rows: int, cols: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..rows of the surjection numbers, capped at ``cols`` columns,
    one row at a time.

    surj(n, j) = j! * S(n, j) counts the maps from an n-set onto a j-set
    (S the ordinary Stirling numbers of the second kind).  They follow

        surj(n, j) = j * (surj(n - 1, j) + surj(n - 1, j - 1))

    from surj(0, 0) = 1, and surj(n, j) = 0 for j > n and for j = 0 < n.
    Row n is yielded as a tuple over j = 0 .. min(cols, n), and only the
    latest row is held, so a caller that needs a row per user count walks
    them in one pass.  Inputs whose :func:`surjection_work` exceeds
    :data:`SURJECTION_WORK_LIMIT` raise ``ValueError`` here, before the
    first row.
    """
    if rows < 0 or cols < 0:
        raise ValueError(f"need rows >= 0 and cols >= 0, got ({rows}, {cols})")
    work = surjection_work(rows, cols)
    if work > SURJECTION_WORK_LIMIT:
        raise ValueError(
            f"surjection counts up to n={rows} in {cols} columns need an "
            f"estimated {work:.2g} or more bit-operations, over the limit of "
            f"{SURJECTION_WORK_LIMIT:.2g}; use fewer users or tokens"
        )
    return _roll_surjections(rows, cols)


def _roll_surjections(rows: int, cols: int) -> Iterator[tuple[int, ...]]:
    row: tuple[int, ...] = (1,)  # row 0
    yield row
    for n in range(1, rows + 1):
        # j * (surj(n-1, j) + surj(n-1, j-1)) for j = 1 .. min(cols, n)
        sums = map(add, row[1:] + (0,), row)
        row = (0, *map(mul, range(1, min(cols, n) + 1), sums))
        yield row
