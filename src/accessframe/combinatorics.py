"""Exact combinatorial primitives: binomials, falling factorials,
2-associated Stirling numbers, and the hypergeometric pmf.

Everything here is integer or rational arithmetic on Python ints, so
results are exact at any magnitude.  Counts are plain ``int``;
probabilities are ``fractions.Fraction`` and therefore always reduced.
The Stirling numbers are built as a column-capped strip whose cost is
estimated, and refused over a fixed limit, before it is built.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

__all__ = [
    "binomial",
    "falling_factorial",
    "STRIP_WORK_LIMIT",
    "strip_work",
    "stirling2_strip",
    "stirling2_assoc",
    "hypergeometric_pmf",
]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def falling_factorial(t: int, s: int) -> int:
    """Product of the s descending terms t * (t-1) * ... * (t-s+1).

    The empty product (s = 0) is 1; once a factor reaches zero (s > t)
    the result is 0.
    """
    if t < 0 or s < 0:
        raise ValueError(f"arguments must be non-negative, got ({t}, {s})")
    return math.perm(t, s)


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


def hypergeometric_pmf(s: int, c: int, k: int, d: int) -> Fraction:
    """Probability of drawing exactly d of the s marked items when k items
    are drawn without replacement from a pool of s + c.

    Exact value C(s, d) * C(c, k - d) / C(s + c, k); zero outside the
    support max(0, k - c) <= d <= min(s, k).  Drawing the whole pool
    (k = s + c) leaves d = s as the only outcome.
    """
    if s < 0 or c < 0 or k < 0:
        raise ValueError(f"s, c, k must be non-negative, got ({s}, {c}, {k})")
    if k > s + c:
        raise ValueError(f"cannot draw {k} items from a pool of {s + c}")
    numerator = binomial(s, d) * binomial(c, k - d)
    if numerator == 0:
        return Fraction(0)
    return Fraction(numerator, binomial(s + c, k))
