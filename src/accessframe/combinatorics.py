"""The roll, the cost model and the refusal rules of the exact path: the
surjection numbers on their one counting recurrence, the one cost model
every exact computation is held to, and the rules every module refuses by.

The roll is integer arithmetic on Python ints, so results are exact at
any magnitude.  :func:`surjection_rows` seeds the first row its caller
reads, rolls the recurrence over the rest, and caps each row at the
columns the caller reads.  It prices nothing itself: every caller first
prices its whole plan with :func:`exact_work`, and :func:`refuse_oversized`
refuses one over :data:`SURJECTION_WORK_LIMIT` before it starts.  As the
bottom of the import graph it also holds :func:`_at_least`, the integer
bound, and :func:`_count_text`, which writes any refused number short.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, islice
from operator import add, mul, sub
from operator import index as as_int
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
#: 2.8e9; the benchmark's largest window (users 1 .. 256) estimates 3.9e7.
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
    rows: range,
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

    The plan seeds the first row of the window ``rows`` and rolls the rest,
    capped at ``cols`` columns; multiplies row n capped at w columns, for
    each (n, w) of ``products``, by coefficients C(c, a) * x with a <= v
    and x < 2**e, where (c, v, e) = ``coefficients``; reduces and writes
    ``count`` fractions of ``bits`` bits for each (count, bits) of
    ``fractions``; builds ``weights`` moment weights; takes steps[0]
    inversion steps of steps[1] bits each; and reports ``means`` means.

    Measured on a 2-core x86-64 host, where a bit-operation takes
    0.08-0.19 ns: row n capped at w columns holds w + 1 entries surj(n, j)
    <= j**n, at most n * log2(w!) bits beyond one per entry, and its seed
    takes w + 1 powers of b = n * log2(w) bits, b**log2(3) / 16 each, and
    (w + 1)(w + 2)/2 differences, b / 2 each; a coefficient is at most
    log2 C(c, min(v, c // 2)) + e bits wide; a product costs one per 64 bit
    pairs, an addition one per bit and a fraction, reduced and written in
    decimal on Python 3.10 and 3.11, one per 32 squared bits; and each row
    and entry of the roll, weight, step and mean adds its fixed cost above.

    Fixed costs come first, then the seed, the other rows (each as wide as
    the last), the products and the fractions, and the sum stops as soon
    as it passes :data:`SURJECTION_WORK_LIMIT`.  So the estimate is cheap
    for any input, a plan of too many items is refused before they are
    walked, and it is never below the window's total bit length.
    """
    try:
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
        seed = window = 0.0
        if rows:
            first, last = rows[0], rows[-1]
            w, top = min(cols, first), min(cols, last)
            b = first * math.log2(max(w, 1))
            entry = b / 2 + _SURJECTION_ENTRY_BITS
            seed = (w + 1) * (b ** math.log2(3) / 16 + (w + 2) / 2 * entry)
            window = (last - first) * (
                (first + 1 + last) / 2 * _log2_factorial(top)
                + _SURJECTION_ENTRY_BITS * (top + 1)
                + _SURJECTION_ROW_BITS
            )
        terms = chain(
            [fixed, seed, window],
            (n * _log2_factorial(w) * coefficient_bits / 64 for n, w in products),
            (count * bits**2 / 32 for count, bits in fractions),
        )
        work = 0.0
        for work in accumulate(terms):
            if work > SURJECTION_WORK_LIMIT:
                break
        return work
    except OverflowError:
        # a count past float range cannot be priced: the plan is refused
        return math.inf


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


def _count_text(n) -> str:
    """A number as a refusal message writes it, short and under the int ->
    str digit limit: an int in full up to 31 digits, past that as ``2**k or
    more`` (``-2**k or less``), and a rational as its two parts so written."""
    if not isinstance(n, int):
        top = _count_text(n.numerator)
        return top if n.denominator == 1 else f"{top}/{_count_text(n.denominator)}"
    bits = n.bit_length()
    if bits <= 100:
        return str(n)
    return f"-2**{bits - 1} or less" if n < 0 else f"2**{bits - 1} or more"


def _at_least(name: str, value, low: int) -> int:
    """``value`` as an int (by ``operator.index``), refused below ``low``."""
    value = as_int(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {_count_text(value)}")
    return value


def surjection_rows(rows: range, cols: int) -> Iterator[tuple[int, ...]]:
    """The surjection numbers of each row n in ``rows``, capped at ``cols``
    columns, one row at a time.

    surj(n, j) = j! * S(n, j), S the Stirling numbers of the second kind,
    counts the maps from an n-set onto a j-set; row n is a tuple over
    j = 0 .. min(cols, n).  The window's first row is seeded: surj(n, j) =
    sum_i (-1)**(j - i) * C(j, i) * i**n is the j-th forward difference of
    i**n at 0 (Feller, vol. 1, ch. IV).  The rest are rolled on surj(n, j)
    = j * (surj(n - 1, j) + surj(n - 1, j - 1)), holding only the latest
    row, so a caller that needs a row per user count walks them in one pass.
    """
    _at_least("the first row", rows.start, 0)
    cols = _at_least("cols", cols, 0)
    if not rows:
        return iter(())

    def roll(row: tuple[int, ...], n: int) -> tuple[int, ...]:
        # row n: j * (surj(n-1, j) + surj(n-1, j-1)) for j = 1 .. min(cols, n)
        sums = map(add, row[1:] + (0,), row)
        return (0, *map(mul, range(1, min(cols, n) + 1), sums))

    # table k holds the k-th differences of i**start; 0**0 == 1 seeds row 0
    table = [i**rows.start for i in range(min(cols, rows.start) + 1)]
    tables = accumulate(table[1:], lambda t, _: list(map(sub, t[1:], t)), initial=table)
    seed = tuple(t[0] for t in tables)
    window = accumulate(range(rows.start + 1, rows.stop), roll, initial=seed)
    return islice(window, 0, None, rows.step)
