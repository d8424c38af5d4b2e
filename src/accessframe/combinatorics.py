"""The roll and the cost model of the exact path: the surjection
numbers on their one counting recurrence, and the one cost model every
exact computation is held to.

The roll is integer arithmetic on Python ints, so results are exact at
any magnitude.  :func:`surjection_rows` rolls the recurrence
forward from row 0 and yields the rows its caller reads, capped at the
columns the caller reads.  It prices nothing itself: every caller first
prices its whole plan (a roll, the products and reductions over it, and
fixed costs per item) with :func:`exact_work`, and :func:`refuse_oversized`
refuses one over :data:`SURJECTION_WORK_LIMIT` before it starts.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, islice
from operator import add, mul
from collections.abc import Iterable, Iterator

__all__ = [
    "SURJECTION_WORK_LIMIT",
    "exact_work",
    "refuse_oversized",
    "surjection_rows",
]


def _log2_factorial(n: int) -> float:
    return math.lgamma(n + 1) / math.log(2)


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
    # the lgamma difference is exact to well under a bit below 2**40, but
    # its two large terms cancel to float noise past 2**53; from 2**40 on
    # read a * log2(c) - log2(a!), within a**2 / c bits above log2 C(c, a)
    coefficient_bits = e + (
        _log2_factorial(c) - _log2_factorial(a) - _log2_factorial(c - a)
        if c < 2**40
        else a * math.log2(c) - _log2_factorial(a)
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


def surjection_rows(rows: range, cols: int) -> Iterator[tuple[int, ...]]:
    """The surjection numbers of each row n in ``rows``, capped at ``cols``
    columns, one row at a time.

    surj(n, j) = j! * S(n, j) counts the maps from an n-set onto a j-set
    (S the ordinary Stirling numbers of the second kind).  They follow

        surj(n, j) = j * (surj(n - 1, j) + surj(n - 1, j - 1))

    from surj(0, 0) = 1, and surj(n, j) = 0 for j > n and for j = 0 < n.
    Row n is yielded as a tuple over j = 0 .. min(cols, n).  The roll
    always starts at row 0, and only the latest row is held, so a caller
    that needs a row per user count walks them in one pass.  Nothing is
    priced here: a caller refuses an oversized roll with
    :func:`exact_work` and :func:`refuse_oversized` before it asks.
    """
    if rows.start < 0 or cols < 0:
        raise ValueError(f"need rows >= 0 and cols >= 0, got ({rows}, {cols})")

    def roll(row: tuple[int, ...], n: int) -> tuple[int, ...]:
        # row n: j * (surj(n-1, j) + surj(n-1, j-1)) for j = 1 .. min(cols, n)
        sums = map(add, row[1:] + (0,), row)
        return (0, *map(mul, range(1, min(cols, n) + 1), sums))

    # rows 0 .. stop - 1, of which islice skips those below the window
    every_row = accumulate(range(1, rows.stop), roll, initial=(1,))
    return islice(every_row, rows.start, rows.stop, rows.step)
