"""Exact combinatorial primitives: 2-associated Stirling numbers of the
second kind and surjection numbers.

Everything here is integer arithmetic on Python ints, so results are
exact at any magnitude.  Both tables are built by rolling a recurrence
forward row by row, capped at the columns their callers read; the cost
of each is estimated, and refused over a fixed limit, before it is
built.
"""

from __future__ import annotations

import functools
import math
from operator import add, mul
from typing import Iterator

__all__ = [
    "STRIP_WORK_LIMIT",
    "strip_work",
    "stirling2_strip",
    "stirling2_assoc",
    "SURJECTION_WORK_LIMIT",
    "surjection_work",
    "surjection_rows",
]


#: Largest partition strip :func:`stirling2_strip` agrees to build, in
#: estimated bit-operations (see :func:`strip_work`).  On a 2-core x86-64
#: host one estimated bit-operation takes 0.2-0.6 ns, so the limit stops
#: a build at about a second; the estimate is never below the strip's
#: total bit length, so a strip kept whole (tokens >= users) holds at
#: most about 250 MB of digits.  The largest strip the test suite and the
#: benchmark workloads ask for (users 1600, 16 columns) is about 6e7,
#: 34x below the limit.  :func:`~accessframe.analysis.success_pmf` holds
#: its split sum to the same limit.
STRIP_WORK_LIMIT = 2.0e9

#: Fixed costs in the same units: one machine word per entry, and the
#: interpreter work of one row, measured as costing about as much as
#: 4096 bit-operations.
_ENTRY_BITS = 64
_ROW_BITS = 4096


def _log2_factorial(n: int) -> float:
    return math.lgamma(n + 1) / math.log(2)


def strip_work(rows: int, cols: int) -> float:
    """Estimated bigint work, in bit-operations, to build rows 0..rows of
    the partition strip capped at ``cols`` columns.

    S(r, k) is about r*log2(k) bits wide, so row r, which holds columns
    1..w with w = min(cols, r // 2), costs r * log2(w!) plus the fixed
    costs.  Rows r >= 2 * cols all have w = cols and are summed in closed
    form; the rows below are summed one by one, stopping as soon as the
    total passes :data:`STRIP_WORK_LIMIT`, so the estimate is cheap for
    any input.  Since S(r, k) <= k**r / k!, every entry has at most
    r*log2(k) + 1 bits, so the estimate is never below the strip's total
    bit length.
    """
    head = min(rows + 1, 2 * cols)
    work = 0.0
    for r in range(head):
        w = r // 2
        work += r * _log2_factorial(w) + _ENTRY_BITS * w + _ROW_BITS
        if work > STRIP_WORK_LIMIT:
            return work
    tail = rows + 1 - head
    work += (head + rows) * tail / 2 * _log2_factorial(cols)
    work += tail * (_ENTRY_BITS * cols + _ROW_BITS)
    return work


@functools.lru_cache(maxsize=1)
def stirling2_strip(
    rows: int, cols: int, first_row: int = 0
) -> tuple[tuple[int, ...], ...]:
    """Rows first_row..rows of the 2-associated Stirling numbers of the
    second kind, capped at ``cols`` columns.

    S(r, k) counts the partitions of an r-element set into exactly k
    blocks, each holding at least two elements.  Interior values follow

        S(r, k) = k * S(r - 1, k) + (r - 1) * S(r - 2, k - 1)

    and S(r, k) = 0 whenever k > floor(r / 2), r <= 0 or k <= 0, with the
    single exception S(0, 0) = 1 (the empty partition).  That exception is
    what lets the recurrence reproduce S(2, 1) = 1 and keeps distributions
    built on these counts normalized.

    ``strip[i][k]`` is S(r, k) for r = first_row + i and
    k = 0 .. min(cols, r // 2).  Every row from 0 up is computed, but only
    the last two are held while rolling forward, plus the kept rows.
    Inputs whose :func:`strip_work` exceeds :data:`STRIP_WORK_LIMIT`
    raise ``ValueError`` before anything is built.  The result is
    immutable and only the most recent one is cached, so a scan over data
    slots at fixed tokens and users builds it once, and concurrent callers
    can share it safely.
    """
    if rows < 0 or cols < 0 or not 0 <= first_row <= rows:
        raise ValueError(
            f"need 0 <= first_row <= rows and cols >= 0, got "
            f"({rows}, {cols}, {first_row})"
        )
    work = strip_work(rows, cols)
    if work > STRIP_WORK_LIMIT:
        raise ValueError(
            f"partition counts up to n={rows} with {cols} blocks need an "
            f"estimated {work:.2g} or more bit-operations, over the limit of "
            f"{STRIP_WORK_LIMIT:.2g}; use fewer users or tokens"
        )
    older: tuple[int, ...] = ()
    newer: tuple[int, ...] = (1,)  # row 0
    kept = [newer] if first_row == 0 else []
    for r in range(1, rows + 1):
        width, r1 = min(cols, r // 2), r - 1
        row = (0, *[
            k * a + r1 * b
            for k, a, b in zip(range(1, width + 1), newer[1:] + (0,), older)
        ])
        older, newer = newer, row
        if r >= first_row:
            kept.append(row)
    return tuple(kept)


def stirling2_assoc(n: int, k: int) -> int:
    """Number of partitions of an n-set into k blocks of size at least two.

    Out-of-range (n, k) return 0 per the boundary rules on
    :func:`stirling2_strip`; in range, this builds the strip that ends at
    row n and column k.
    """
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n // 2:
        return 0
    return stirling2_strip(n, k, n)[0][k]


#: Largest surjection roll :func:`surjection_rows` agrees to do, in
#: estimated bit-operations (see :func:`surjection_work`).  An entry of
#: the surjection recurrence is one addition and one small-integer
#: multiplication, which on a 2-core x86-64 host take 0.08-0.19 ns per
#: estimated bit-operation, so the limit stops a roll at about a second,
#: the same intent as :data:`STRIP_WORK_LIMIT`.  Row 999 capped at 999
#: columns (tokens = users = 1000 in the metrics) estimates 2.9e9; the
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
