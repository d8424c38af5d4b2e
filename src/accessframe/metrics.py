"""Frame-level performance metrics and parameter sweeps.

Two scalar summaries of the success count S:

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
rational.  :func:`optimal_data_slots` and a data-slots :func:`sweep`
build the row once and read every K from it; a users :func:`sweep` rolls
the row forward one user at a time.  Inputs whose row and sums would
cost too much are refused before any row is built (see
:func:`~accessframe.combinatorics.exact_work`).
"""

from __future__ import annotations

import json
import math
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from operator import index as as_int
from operator import mul

from .analysis import CSV_HEADER, Record, SystemConfig, csv_fields, json_rational
from .combinatorics import exact_work, refuse_oversized, surjection_rows

__all__ = [
    "Axis",
    "Provenance",
    "FrameMetrics",
    "SweepReport",
    "CSV_HEADER",
    "expected_successes",
    "success_rate",
    "efficiency",
    "frame_metrics",
    "sweep",
    "optimal_data_slots",
]

class Axis(str, Enum):
    """Which configuration field a sweep varies."""

    USERS = "users"
    DATA_SLOTS = "data_slots"


class Provenance(Record):
    """How a table's numbers were produced.

    ``kind`` is "exact" for the closed-form path and "simulated" for
    Monte Carlo estimates, which must also carry their seed and
    iteration count so the table can be regenerated bit for bit.
    """

    kind: str
    seed: int | None = None
    iterations: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "simulated"):
            raise ValueError(f"kind must be 'exact' or 'simulated', got {self.kind!r}")
        if self.kind == "simulated":
            if self.seed is None or self.iterations is None:
                raise ValueError("simulated provenance requires seed and iterations")
        elif self.seed is not None or self.iterations is not None:
            raise ValueError("exact provenance carries no seed or iterations")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "iterations": self.iterations}


class FrameMetrics(Record):
    """Exact per-frame summary for one configuration.

    The three fields are redundant by construction and that redundancy
    is checked: expected = rate * users = efficiency * frame_slots.
    """

    config: SystemConfig
    expected_successes: Fraction
    success_rate: Fraction
    efficiency: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.success_rate <= 1:
            raise ValueError(f"success rate {self.success_rate} outside [0, 1]")
        k = self.config.data_slots
        if not 0 <= self.efficiency <= Fraction(k, k + 1):
            raise ValueError(f"efficiency {self.efficiency} outside [0, K/(K+1)]")
        if self.expected_successes != self.success_rate * self.config.users:
            raise ValueError("expected_successes != success_rate * users")
        if self.expected_successes != self.efficiency * self.config.frame_slots:
            raise ValueError("expected_successes != efficiency * frame_slots")

    def to_json_dict(self) -> dict:
        return {
            "M": self.config.tokens,
            "K": self.config.data_slots,
            "T": self.config.users,
            "expected_successes": json_rational(self.expected_successes),
            "success_rate": json_rational(self.success_rate),
            "efficiency": json_rational(self.efficiency),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        row = csv_fields(
            self.config, self.expected_successes, self.success_rate, self.efficiency
        )
        return f"{CSV_HEADER}\n{row}\n"


def _refuse_oversized(tokens: int, users: Sequence[int], means_per_row: int) -> None:
    """Refuse, before any row is built, ``means_per_row`` means at each of
    ``users``: the roll up to the largest, the sum for t users over row
    t - 1 capped at min(tokens, t) - 1 columns with coefficients
    C(tokens, a) * min(a, K), and the reductions over tokens**t."""
    # a range is not walked for its largest value: it may be refused on
    # its number of means alone
    top = max(users[0], users[-1]) if isinstance(users, range) else max(users)
    width = min(tokens, top)
    means = len(users) * means_per_row
    work = exact_work(
        top - 1,
        width - 1,
        products=((t - 1, min(tokens, t) - 1) for t in users if t >= 1),
        coefficients=(tokens, width, width.bit_length()),
        fractions=((means_per_row, t * math.log2(tokens)) for t in users if t >= 1),
        means=means,
    )
    refuse_oversized(
        work, f"computing {means} mean success count(s) for {tokens} tokens"
    )


def _numerators_by_slots(tokens: int, users: int) -> Callable[[int], int]:
    """E[S] * tokens**users at fixed tokens and users, as a function of
    the data slots.

    With w_a = C(M, a) * surj(T - 1, a - 1) the sum in the module
    docstring splits at K into sum_{a <= K} a * w_a + K * sum_{a > K} w_a;
    both parts are prefix sums over a, so every K costs O(1) bigint
    operations once the row is built.
    """
    if users == 0:
        return lambda slots: 0
    width = min(tokens, users)
    row = deque(surjection_rows(users - 1, width - 1), maxlen=1)[0]
    weights = [math.comb(tokens, a) * n for a, n in enumerate(row, start=1)]
    below = list(accumulate(map(mul, range(1, width + 1), weights), initial=0))
    above = list(accumulate(reversed(weights), initial=0))[::-1]

    def numerator(slots: int) -> int:
        k = min(slots, width)
        return users * (below[k] + k * above[k])

    return numerator


def _means_by_users(tokens: int, slots: int, users: tuple[int, ...]) -> list[Fraction]:
    """E[S] for each of ``users`` at fixed tokens and data slots, from one
    pass over the surjection rows up to the largest user count."""
    top = max(users)
    by_users = {0: Fraction(0)}
    if top >= 1:
        width = min(tokens, top)
        wanted = set(users)
        coefficients = [
            math.comb(tokens, a) * min(a, slots) for a in range(1, width + 1)
        ]
        for t, row in enumerate(surjection_rows(top - 1, width - 1), start=1):
            if t in wanted:
                total = sum(map(mul, coefficients, row))
                by_users[t] = Fraction(t * total, tokens**t)
    return [by_users[t] for t in users]


def expected_successes(config: SystemConfig) -> Fraction:
    """Exact mean of the per-frame success count, from one surjection row
    (see the module docstring); no pmf is built."""
    _refuse_oversized(config.tokens, (config.users,), 1)
    numerator = _numerators_by_slots(config.tokens, config.users)
    return Fraction(numerator(config.data_slots), config.tokens**config.users)


def success_rate(config: SystemConfig) -> Fraction:
    """Per-user success probability: expected successes over users.

    Undefined without users; rejects users == 0.
    """
    if config.users < 1:
        raise ValueError("success rate needs at least one user")
    return expected_successes(config) / config.users


def efficiency(config: SystemConfig) -> Fraction:
    """Expected successes per access-frame slot (contention slot included)."""
    return expected_successes(config) / config.frame_slots


def _frame_metrics(config: SystemConfig, expected: Fraction) -> FrameMetrics:
    if config.users < 1:
        raise ValueError("success rate needs at least one user")
    return FrameMetrics(
        config=config,
        expected_successes=expected,
        success_rate=expected / config.users,
        efficiency=expected / config.frame_slots,
    )


def frame_metrics(config: SystemConfig) -> FrameMetrics:
    """All three summaries from a single evaluation of the mean."""
    return _frame_metrics(config, expected_successes(config))


class SweepReport(Record):
    """Metrics tabulated along one axis, everything else held fixed.

    ``base`` supplies the fixed fields; the swept field's value in
    ``base`` is irrelevant (each row replaces it).  Rows come sorted by
    the axis, one per value, duplicates rejected.
    """

    base: SystemConfig
    axis: Axis
    values: tuple[int, ...]
    rows: tuple[FrameMetrics, ...]
    provenance: Provenance

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.values):
            raise ValueError("one row per axis value")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("axis values must be strictly increasing")
        for value, row in zip(self.values, self.rows):
            if getattr(row.config, self.axis.value) != value:
                raise ValueError("row does not match its axis value")

    @property
    def fixed(self) -> dict:
        """The configuration fields the sweep holds constant."""
        out = {"M": self.base.tokens, "K": self.base.data_slots, "T": self.base.users}
        del out[{"users": "T", "data_slots": "K"}[self.axis.value]]
        return out

    def to_json_dict(self) -> dict:
        return {
            "fixed": self.fixed,
            "axis": self.axis.value,
            "values": list(self.values),
            "provenance": self.provenance.to_json_dict(),
            "rows": [row.to_json_dict() for row in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines += [
            csv_fields(r.config, r.expected_successes, r.success_rate, r.efficiency)
            for r in self.rows
        ]
        return "\n".join(lines) + "\n"


def sweep(base: SystemConfig, axis: Axis | str, values: Iterable[int]) -> SweepReport:
    """Evaluate exact metrics for each value of the swept axis.

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
        _refuse_oversized(base.tokens, values, 1)
    else:
        _refuse_oversized(base.tokens, (base.users,), len(values))
    values = tuple(values)
    configs = [base.replace(**{axis.value: v}) for v in values]
    if axis is Axis.USERS:
        means = _means_by_users(base.tokens, base.data_slots, values)
    else:
        numerator = _numerators_by_slots(base.tokens, base.users)
        assignments = base.tokens**base.users
        means = [Fraction(numerator(k), assignments) for k in values]
    rows = tuple(_frame_metrics(c, e) for c, e in zip(configs, means))
    return SweepReport(
        base=base,
        axis=axis,
        values=values,
        rows=rows,
        provenance=Provenance(kind="exact"),
    )


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
    numerator = _numerators_by_slots(tokens, users)
    # efficiency is numerator(k) / ((k + 1) * tokens**users): compare the
    # candidates by cross-multiplying and reduce only the winner
    best_k, best = 1, numerator(1)
    for k in range(2, scan + 1):
        n = numerator(k)
        if n * (best_k + 1) > best * (k + 1):
            best_k, best = k, n
    return best_k, Fraction(best, (best_k + 1) * tokens**users)
