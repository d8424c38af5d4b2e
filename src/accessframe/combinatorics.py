"""Exact combinatorial primitives on one counting recurrence: the
surjection numbers, and the 2-associated Stirling numbers read off them,
with the one cost model every exact computation is held to.

Everything here is integer arithmetic on Python ints, so results are
exact at any magnitude.  Surjection rows are built by rolling their
recurrence forward row by row, capped at the columns their callers read.
:func:`exact_work` prices an exact plan (a roll, the products and
reductions over it, and fixed costs per item), and
:func:`refuse_oversized` refuses one over :data:`SURJECTION_WORK_LIMIT`
before it starts.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import accumulate, chain
from operator import add, mul
from collections.abc import Iterable, Iterator

__all__ = [
    "stirling2_assoc",
    "SURJECTION_WORK_LIMIT",
    "exact_work",
    "refuse_oversized",
    "surjection_rows",
]


def _log2_factorial(n: int) -> float:
    return math.lgamma(n + 1) / math.log(2)


def stirling2_assoc(n: int, k: int) -> int:
    """Number of partitions of an n-set into k blocks of size at least two.

    By inclusion-exclusion over the j blocks that are singletons,

        k! * S(n, k) = sum_j (-1)**j * C(k, j) * (n)_j * surj(n - j, k - j),

    which reads surjection rows n - k .. n capped at k columns.  S(0, 0) = 1
    (the empty partition), and S(n, k) = 0 whenever k > floor(n / 2), k = 0
    < n or either argument is negative; those need no roll.  Other inputs
    whose roll :func:`surjection_rows` refuses raise ``ValueError`` before
    it starts.
    """
    if n < 0 or k < 0 or 2 * k > n:
        return 0
    if k == 0:
        return int(n == 0)
    rows = deque(surjection_rows(n, k), maxlen=k + 1)  # rows n - k .. n
    labelled = sum(
        (-1) ** j * math.comb(k, j) * math.perm(n, j) * rows[k - j][k - j]
        for j in range(k + 1)
    )
    return labelled // math.factorial(k)


#: Largest estimated cost, in the bit-operations of :func:`exact_work`,
#: that an exact computation agrees to take: about a second.  Row 999
#: capped at 999 columns (tokens = users = 1000 in the metrics) estimates
#: 2.9e9; the largest row the benchmark workloads ask for (users 256, 128
#: columns) estimates 3.4e7.
SURJECTION_WORK_LIMIT = 8.0e9

#: Measured fixed costs of :func:`exact_work`'s items, in its units: an
#: entry of the roll (about 50 ns), a row of it (1.5 us of interpreter
#: work), one moment weight built and its product added (about 200 ns),
#: one inversion step over one count (about 40 ns), and one reported mean
#: with its metrics, report row and rendering (27-36 us per row of a long
#: sweep).
_SURJECTION_ENTRY_BITS = 400
_SURJECTION_ROW_BITS = 12000
_WEIGHT_BITS = 2000
_STEP_BITS = 400
_MEAN_BITS = 300_000


def exact_work(
    rows: int,
    cols: int,
    products: Iterable[tuple[int, int]] = (),
    coefficients: tuple[int, int, float] = (0, 0, 0.0),
    fractions: Iterable[tuple[float, float]] = (),
    *,
    weights: int = 0,
    steps: tuple[int, float] = (0, 0.0),
    means: int = 0,
) -> float:
    """Estimated bigint work, in bit-operations, of an exact plan: the one
    cost model every exact computation is priced by.

    The plan rolls surjection rows 0..rows capped at ``cols`` columns
    (none when rows < 0); multiplies row n capped at w columns, for each
    (n, w) of ``products``, by coefficients C(c, a) * x with a <= v and
    x < 2**e, where (c, v, e) = ``coefficients``; reduces ``count``
    fractions of ``bits`` bits for each (count, bits) of ``fractions``;
    builds ``weights`` moment weights; takes steps[0] inversion steps, each
    adding a count of steps[1] bits; and reports ``means`` means.

    Measured on a 2-core x86-64 host, where a bit-operation takes
    0.08-0.19 ns: row n capped at w columns holds w + 1 entries
    surj(n, j) <= j**n, so at most n * log2(w!) bits beyond one per entry;
    a coefficient is at most log2 C(c, min(v, c // 2)) + e bits wide; a
    product costs one bit-operation per 64 bit pairs, an addition one per
    bit and a reduction one per 32 squared bits; and each row and entry of
    the roll, weight, step and mean adds its fixed cost above.

    Fixed costs come first, then the rows of the roll (those past ``cols``
    in closed form), the products and the fractions, and the sum stops as
    soon as it passes :data:`SURJECTION_WORK_LIMIT`.  So the estimate is
    cheap for any input, a plan of too many items is refused before they
    are walked, and it is never below the roll's total bit length.
    """
    step_count, step_bits = steps
    c, v, e = coefficients
    a = min(v, c // 2)
    coefficient_bits = (
        _log2_factorial(c) - _log2_factorial(a) - _log2_factorial(c - a) + e
    )
    fixed = (
        weights * _WEIGHT_BITS
        + step_count * (step_bits + _STEP_BITS)
        + means * _MEAN_BITS
    )
    head = max(0, min(rows + 1, cols))
    terms = chain(
        [fixed],
        (
            r * _log2_factorial(r)
            + _SURJECTION_ENTRY_BITS * (r + 1)
            + _SURJECTION_ROW_BITS
            for r in range(head)
        ),
        (  # rows head..rows all have cols columns
            (head + rows) * tail / 2 * _log2_factorial(cols)
            + tail * (_SURJECTION_ENTRY_BITS * (cols + 1) + _SURJECTION_ROW_BITS)
            for tail in [rows + 1 - head]
            if tail > 0
        ),
        (n * _log2_factorial(w) * coefficient_bits / 64 for n, w in products),
        (count * bits**2 / 32 for count, bits in fractions),
    )
    work = 0.0
    for work in accumulate(terms):
        if work > SURJECTION_WORK_LIMIT:
            break
    return work


def refuse_oversized(work: float, what: str) -> None:
    """Raise ``ValueError`` when ``work``, an estimate of :func:`exact_work`,
    is over :data:`SURJECTION_WORK_LIMIT`; ``what`` names the computation
    refused.  Every exact entry point calls this before any work starts."""
    if work > SURJECTION_WORK_LIMIT:
        raise ValueError(
            f"{what} would take an estimated {work:.2g} or more "
            f"bit-operations, over the limit of {SURJECTION_WORK_LIMIT:.2g}; "
            "use fewer users or tokens"
        )


def surjection_rows(rows: int, cols: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..rows of the surjection numbers, capped at ``cols`` columns,
    one row at a time.

    surj(n, j) = j! * S(n, j) counts the maps from an n-set onto a j-set
    (S the ordinary Stirling numbers of the second kind).  They follow

        surj(n, j) = j * (surj(n - 1, j) + surj(n - 1, j - 1))

    from surj(0, 0) = 1, and surj(n, j) = 0 for j > n and for j = 0 < n.
    Row n is yielded as a tuple over j = 0 .. min(cols, n), and only the
    latest row is held, so a caller that needs a row per user count walks
    them in one pass.  A roll whose :func:`exact_work` is over
    :data:`SURJECTION_WORK_LIMIT` raises ``ValueError`` here, before the
    first row.
    """
    if rows < 0 or cols < 0:
        raise ValueError(f"need rows >= 0 and cols >= 0, got ({rows}, {cols})")
    refuse_oversized(
        exact_work(rows, cols),
        f"surjection counts up to n={rows} in {cols} columns",
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
