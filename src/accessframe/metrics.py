"""Frame-level performance metrics and parameter sweeps.

One entry per question: :func:`frame_metrics` for one configuration,
:func:`sweep` for an axis, :func:`optimal_data_slots` for the best data
phase and :func:`expected_successes` for the bare mean.  Their documents
are written by the records :class:`FrameMetrics`, :class:`SweepReport`
and :class:`OptimalDataSlots`.  Two scalar summaries of the success count S:

* success rate, the probability that a given user gets its packet
  through, i.e. expected successes divided by the number of users;
* efficiency, expected successes per slot of the whole access frame
  (one contention slot plus ``data_slots`` data slots).

Both need only the mean, and the mean needs no pmf.  By symmetry over
users, E[S] is T times the chance that user 1 is delivered: its token is
one of a active tokens, no other user chose it, and it is among the
min(a, K) granted, so

    E[S] * M**T = T * sum_{a >= 1} C(M, a) * min(a, K) * surj(T - 1, a - 1)

with surj(n, j) the number of maps from n users onto j tokens (the other
T - 1 users cover the other a - 1 active tokens).  That reads one row of
:func:`~accessframe.combinatorics.surjection_rows`, capped at min(M, T)
columns, and the row does not depend on K.  Every result is an exact
rational.

All four entries read one grid of E[S] * M**T over user counts and data
slots.  One window yields the rows of every user count wanted: row
min(users) - 1 is seeded and the rest rolled, so a users :func:`sweep`
seeds once; a data-slots :func:`sweep`, :func:`optimal_data_slots` and
:func:`expected_successes` read a single seeded row.  Once a row is
read, each K costs O(1) bigint operations: min(a, K) counts the j < K
below a, so the sum over a is a prefix sum, up to K, of the suffix sums
sum_{a > j} of its terms.  Inputs whose rows, sums and reductions
would cost too much are refused before any row is built (see
:func:`~accessframe.combinatorics.exact_work`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from numbers import Rational
from operator import attrgetter, mul
from operator import index as as_int

from . import _EXPORTS
from .analysis import (
    CSV_HEADER,
    Record,
    SystemConfig,
    _count_text,
    csv_fields,
    csv_float,
    json_rational,
)
from .combinatorics import exact_work, refuse_oversized, surjection_rows

__all__ = [*_EXPORTS["metrics"]]

class Axis(str, Enum):
    """Which configuration field a sweep varies."""

    USERS = "users"
    DATA_SLOTS = "data_slots"


class FrameMetrics(Record):
    """Exact per-frame summary for one configuration: the mean success
    count E, with the success rate E / users and the efficiency
    E / frame_slots read off it.  Needs at least one user, and E is a
    rational (kept as a ``Fraction``) in [0, config.max_successes]."""

    config: SystemConfig
    expected_successes: Fraction

    def __post_init__(self) -> None:
        mean = self.expected_successes
        if type(mean) is not Fraction:  # the common case skips the ABC check
            if not isinstance(mean, Rational):
                raise ValueError(f"expected successes must be rational, got {mean!r}")
            mean = Fraction(mean)
            object.__setattr__(self, "expected_successes", mean)
        if self.config.users < 1:
            raise ValueError("success rate needs at least one user")
        most = self.config.max_successes
        # in integers: a Fraction's denominator is positive
        if not 0 <= mean.numerator <= most * mean.denominator:
            shown = f"{_count_text(mean)} outside [0, {_count_text(most)}]"
            raise ValueError(f"expected successes {shown}")

    @property
    def success_rate(self) -> Fraction:
        return self.expected_successes / self.config.users

    @property
    def efficiency(self) -> Fraction:
        return self.expected_successes / self.config.frame_slots

    def to_json_dict(self) -> dict:
        return {
            **self.config.to_json_dict(),
            "expected_successes": json_rational(self.expected_successes),
            "success_rate": json_rational(self.success_rate),
            "efficiency": json_rational(self.efficiency),
        }

    def to_csv(self) -> str:
        row = csv_fields(
            self.config, self.expected_successes, self.success_rate, self.efficiency
        )
        return f"{CSV_HEADER}\n{row}\n"


class OptimalDataSlots(Record):
    """The answer of :func:`optimal_data_slots` for ``tokens``, ``users``
    and at most ``k_max`` data slots: the best size ``data_slots`` and
    its ``efficiency``."""

    tokens: int
    users: int
    k_max: int
    data_slots: int
    efficiency: Fraction

    def to_json_dict(self) -> dict:
        return {
            "M": self.tokens,
            "T": self.users,
            "k_max": self.k_max,
            "K_star": self.data_slots,
            "efficiency": json_rational(self.efficiency),
        }

    def to_csv(self) -> str:
        row = f"{self.tokens},{self.users},{self.k_max},{self.data_slots}"
        return f"M,T,k_max,K_star,efficiency\n{row},{csv_float(self.efficiency)}\n"


def _count(values: Sequence[int]) -> int:
    """``len(values)`` of a non-empty sequence, also of a range past
    ``sys.maxsize`` values, where ``len()`` overflows."""
    if isinstance(values, range):
        return (values[-1] - values[0]) // values.step + 1
    return len(values)


def _refuse_oversized(tokens: int, users: Sequence[int], means_per_row: int) -> None:
    """Refuse, before any row is built, ``means_per_row`` means at each of
    ``users``: the window of rows from the smallest to the largest, the sum
    for t users over row t - 1 capped at min(tokens, t) - 1 columns with
    coefficients C(tokens, a) * min(a, K), and the reductions over
    tokens**t."""
    # a range is not walked for its smallest and largest values: it may be
    # refused on its number of means alone
    ends = (users[0], users[-1]) if isinstance(users, range) else users
    top = max(ends)
    width = min(tokens, top)
    means = _count(users) * means_per_row
    work = exact_work(
        range(max(min(ends), 1) - 1, top),
        width - 1,
        products=((t - 1, min(tokens, t) - 1) for t in users if t >= 1),
        coefficients=(tokens, width, width.bit_length()),
        fractions=((means_per_row, t * math.log2(tokens)) for t in users if t >= 1),
        means=means,
    )
    refuse_oversized(
        work,
        f"computing {_count_text(means)} mean success count(s) for "
        f"{_count_text(tokens)} tokens",
    )


def _numerators(
    tokens: int, users: Sequence[int], slots: Sequence[int]
) -> list[list[int]]:
    """E[S] * tokens**t for each t of ``users``, strictly increasing from
    1 or more, at each K of ``slots``: one list per user count.

    One window yields rows min(users) - 1 .. max(users) - 1.  With
    w_a = C(M, a) * surj(t - 1, a - 1), the sum in the module docstring
    is t * sum_a min(a, K) * w_a = t * sum_{j < K} sum_{a > j} w_a, read
    at each K from one prefix sum of the suffix sums.
    """
    lo, top = users[0], users[-1]
    width = min(tokens, top)
    occupancies = [math.comb(tokens, a) for a in range(1, width + 1)]
    wanted = set(users)
    grid = []
    for t, row in enumerate(surjection_rows(range(lo - 1, top), width - 1), start=lo):
        if t not in wanted:
            continue
        # row t - 1 has min(tokens, t) columns; past them every w_a is 0
        above = list(accumulate(reversed(list(map(mul, occupancies, row)))))
        above.reverse()
        sums = list(accumulate(above, initial=0))
        grid.append([t * sums[min(k, len(row))] for k in slots])
    return grid


def expected_successes(config: SystemConfig) -> Fraction:
    """Exact mean of the per-frame success count, from one surjection row
    (see the module docstring); no pmf is built."""
    _refuse_oversized(config.tokens, (config.users,), 1)
    if config.users == 0:
        return Fraction(0)
    ((numerator,),) = _numerators(config.tokens, (config.users,), (config.data_slots,))
    return Fraction(numerator, config.tokens**config.users)


def frame_metrics(config: SystemConfig) -> FrameMetrics:
    """All three summaries from a single evaluation of the mean."""
    return FrameMetrics(config, expected_successes(config))


def _check_increasing(values: tuple[int, ...]) -> None:
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("axis values must be strictly increasing")


class SweepReport(Record):
    """Metrics tabulated along one axis, everything else held fixed.

    There is at least one row.  Every row agrees with the first on the
    fixed fields, and ``fixed`` reads them off it; ``values`` reads the
    swept field off each row.  Rows come sorted by the axis, one per
    value, duplicates rejected.  The axis may be given by its value and
    the rows as any sequence.
    """

    axis: Axis
    rows: tuple[FrameMetrics, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", Axis(self.axis))
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("sweep needs at least one axis value")
        held = attrgetter(*(f for f in SystemConfig._fields if f != self.axis.value))
        first = held(self.rows[0].config)
        if any(held(row.config) != first for row in self.rows):
            fixed = ", ".join(f"{k!r}: {_count_text(v)}" for k, v in self.fixed.items())
            raise ValueError(f"every row must hold {{{fixed}}} fixed")
        _check_increasing(self.values)

    @property
    def values(self) -> tuple[int, ...]:
        """The swept field's value in each row."""
        return tuple(getattr(row.config, self.axis.value) for row in self.rows)

    @property
    def fixed(self) -> dict:
        """The configuration fields the sweep holds constant."""
        out = self.rows[0].config.to_json_dict()
        del out[{"users": "T", "data_slots": "K"}[self.axis.value]]
        return out

    def to_json_dict(self) -> dict:
        return {
            "fixed": self.fixed,
            "axis": self.axis.value,
            "values": list(self.values),
            # only the exact path fills a sweep; kept for schema stability
            "provenance": {"kind": "exact", "seed": None, "iterations": None},
            "rows": [row.to_json_dict() for row in self.rows],
        }

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines += [
            csv_fields(r.config, r.expected_successes, r.success_rate, r.efficiency)
            for r in self.rows
        ]
        return "\n".join(lines) + "\n"


def sweep(base: SystemConfig, axis: Axis | str, values: Iterable[int]) -> SweepReport:
    """Evaluate exact metrics for each value of the swept axis.

    ``base`` supplies the fields held fixed; its swept field is ignored.
    ``values`` must be non-empty and strictly increasing (so the report
    is sorted and duplicate-free by construction).  Invalid values fail
    with the corresponding configuration error.
    """
    axis = Axis(axis)
    if not isinstance(values, range):  # a range is checked before it is walked
        values = tuple(as_int(v) for v in values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    if axis is Axis.USERS:
        users, slots = values, (base.data_slots,)
    else:
        users, slots = (base.users,), values
    _refuse_oversized(base.tokens, users, _count(slots))
    configs = [base.replace(**{axis.value: v}) for v in values]
    # rows without users or out of order fail anyway: fail before the roll
    if min(users) < 1:
        raise ValueError("success rate needs at least one user")
    _check_increasing(values)
    grid = _numerators(base.tokens, users, slots)
    means = [Fraction(n, base.tokens**t) for t, row in zip(users, grid) for n in row]
    return SweepReport(axis, map(FrameMetrics, configs, means))


def optimal_data_slots(tokens: int, users: int, k_max: int) -> tuple[int, Fraction]:
    """Data-phase size maximizing efficiency, searched exhaustively.

    Scans data_slots = 1 .. min(k_max, tokens, users) over one
    surjection row and returns (best size, its efficiency).  Ties go to
    the smallest size: equal efficiency with a shorter frame is strictly
    more useful.  At most min(tokens, users) tokens are active, so a
    larger data phase leaves the mean unchanged and only lengthens the
    frame.
    """
    tokens, users, k_max = as_int(tokens), as_int(users), as_int(k_max)
    if tokens < 1 or users < 1 or k_max < 1:
        raise ValueError("tokens, users and k_max must all be >= 1")
    scan = min(k_max, tokens, users)
    _refuse_oversized(tokens, (users,), 1)
    ((first, *rest),) = _numerators(tokens, (users,), range(1, scan + 1))
    # efficiency is numerator(k) / ((k + 1) * tokens**users): compare the
    # candidates by cross-multiplying and reduce only the winner
    best_k, best = 1, first
    for k, n in enumerate(rest, start=2):
        if n * (best_k + 1) > best * (k + 1):
            best_k, best = k, n
    return best_k, Fraction(best, (best_k + 1) * tokens**users)
