"""Frame-level performance metrics and parameter sweeps.

Two scalar summaries of the exact success distribution:

* success rate, the probability that a given user gets its packet
  through, i.e. expected successes divided by the number of users;
* efficiency, expected successes per slot of the whole access frame
  (one contention slot plus ``data_slots`` data slots).

Both are exact rationals.  :func:`sweep` tabulates them along one axis
(users or data slots) and :func:`optimal_data_slots` exhaustively finds
the data-phase size that maximizes efficiency for a given load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from operator import index as as_int
from typing import Iterable

from .analysis import SystemConfig, success_pmf

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

#: Column order shared by every tabular export in the package.
CSV_HEADER = "M,K,T,expected_successes,success_rate,efficiency"


class Axis(str, Enum):
    """Which configuration field a sweep varies."""

    USERS = "users"
    DATA_SLOTS = "data_slots"


@dataclass(frozen=True)
class Provenance:
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


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def csv_fields(
    config: SystemConfig,
    expected: Fraction,
    rate: Fraction | None,
    eff: Fraction,
) -> str:
    """One CSV data row in :data:`CSV_HEADER` order, 12 significant digits.

    ``rate`` may be None (no users); its field is then left empty.
    """
    rate_field = "" if rate is None else f"{float(rate):.12g}"
    return (
        f"{config.tokens},{config.data_slots},{config.users},"
        f"{float(expected):.12g},{rate_field},{float(eff):.12g}"
    )


@dataclass(frozen=True)
class FrameMetrics:
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
            "expected_successes": _rational(self.expected_successes),
            "success_rate": _rational(self.success_rate),
            "efficiency": _rational(self.efficiency),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        row = csv_fields(
            self.config, self.expected_successes, self.success_rate, self.efficiency
        )
        return f"{CSV_HEADER}\n{row}\n"


def expected_successes(config: SystemConfig) -> Fraction:
    """Exact mean of the per-frame success count."""
    return success_pmf(config).mean()


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


def frame_metrics(config: SystemConfig) -> FrameMetrics:
    """All three summaries from a single pmf evaluation."""
    expected = expected_successes(config)
    if config.users < 1:
        raise ValueError("success rate needs at least one user")
    return FrameMetrics(
        config=config,
        expected_successes=expected,
        success_rate=expected / config.users,
        efficiency=expected / config.frame_slots,
    )


@dataclass(frozen=True)
class SweepReport:
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
    values = tuple(as_int(v) for v in values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    rows = tuple(
        frame_metrics(replace(base, **{axis.value: v})) for v in values
    )
    return SweepReport(
        base=base,
        axis=axis,
        values=values,
        rows=rows,
        provenance=Provenance(kind="exact"),
    )


def optimal_data_slots(tokens: int, users: int, k_max: int) -> tuple[int, Fraction]:
    """Data-phase size maximizing efficiency, searched exhaustively.

    Scans data_slots = 1 .. min(k_max, tokens, users) and returns (best
    size, its efficiency).  Ties go to the smallest size: equal
    efficiency with a shorter frame is strictly more useful.  At most
    min(tokens, users) tokens are active, so a larger data phase leaves
    the pmf unchanged and only lengthens the frame.
    """
    tokens, users, k_max = as_int(tokens), as_int(users), as_int(k_max)
    if tokens < 1 or users < 1 or k_max < 1:
        raise ValueError("tokens, users and k_max must all be >= 1")
    best_k, best_value = 1, efficiency(SystemConfig(tokens, 1, users))
    for k in range(2, min(k_max, tokens, users) + 1):
        value = efficiency(SystemConfig(tokens, k, users))
        if value > best_value:
            best_k, best_value = k, value
    return best_k, best_value
