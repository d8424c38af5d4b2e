"""Closed-form distribution of data-phase successes in one access frame.

Model: ``users`` stations each activate one of ``tokens`` contention
tokens uniformly and independently.  The base station only sees which
tokens are active (not how many users chose each), grants a uniformly
random subset of min(active, data_slots) of them a data slot, and a
granted token delivers its packet iff exactly one user activated it.

:func:`success_pmf` evaluates the exact distribution of the number of
delivered packets per frame by summing, over every split of the active
tokens into s singles and c collisions, the probability of that split
times the hypergeometric probability that d of the granted slots land on
singles.  The partition counts of every split come from one strip of
rows users - min(tokens, users) .. users, built per configuration by
:func:`~accessframe.combinatorics.stirling2_strip`, which refuses inputs
too large to compute before doing any work.  All reference-path
arithmetic is exact rational; the terms of the sum span many orders of
magnitude and exact normalization is part of the contract.
:func:`success_pmf_float` is an optional log-domain fast path for
configurations where big-rational arithmetic gets slow.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import index as as_int

from .combinatorics import (
    binomial,
    falling_factorial,
    stirling2_assoc,
    stirling2_strip,
)

__all__ = [
    "SystemConfig",
    "ContentionOutcome",
    "PmfKind",
    "SuccessPmf",
    "PrecisionLossError",
    "outcome_probability",
    "success_pmf",
    "success_pmf_float",
    "DEFAULT_LOG_BUDGET",
]


@dataclass(frozen=True)
class SystemConfig:
    """One access-frame scenario: tokens M, data slots K, users T.

    M and K are free of any ordering constraint; the analysis holds for
    M > K and M <= K alike.
    """

    tokens: int
    data_slots: int
    users: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", as_int(self.tokens))
        object.__setattr__(self, "data_slots", as_int(self.data_slots))
        object.__setattr__(self, "users", as_int(self.users))
        if self.tokens < 1:
            raise ValueError(f"tokens must be >= 1, got {self.tokens}")
        if self.data_slots < 1:
            raise ValueError(f"data_slots must be >= 1, got {self.data_slots}")
        if self.users < 0:
            raise ValueError(f"users must be >= 0, got {self.users}")

    @property
    def max_successes(self) -> int:
        """Largest possible number of data-phase successes."""
        return min(self.tokens, self.data_slots, self.users)

    @property
    def frame_slots(self) -> int:
        """Total frame length: one contention slot plus the data slots."""
        return self.data_slots + 1


@dataclass(frozen=True)
class ContentionOutcome:
    """A realized contention split: ``singles`` tokens picked by exactly
    one user, ``collisions`` tokens picked by two or more."""

    config: SystemConfig
    singles: int
    collisions: int

    def __post_init__(self) -> None:
        s, c = self.singles, self.collisions
        if s < 0 or c < 0:
            raise ValueError("singles and collisions must be non-negative")
        if s + c > self.config.tokens:
            raise ValueError(
                f"{s} singles + {c} collisions exceed {self.config.tokens} tokens"
            )
        if s > self.config.users or s + 2 * c > self.config.users:
            raise ValueError(
                f"split ({s}, {c}) needs more than {self.config.users} users"
            )

    @property
    def slots_drawn(self) -> int:
        """Tokens actually granted a slot: min(active, data_slots)."""
        return min(self.singles + self.collisions, self.config.data_slots)

    @property
    def max_active(self) -> int:
        """Upper bound on active tokens, min(tokens, users)."""
        return min(self.config.tokens, self.config.users)

    def probability(self) -> Fraction:
        return outcome_probability(self.config, self.singles, self.collisions)

    @classmethod
    def from_counts(cls, config: SystemConfig, counts) -> "ContentionOutcome":
        """Build from per-token user counts (e.g. a simulated frame)."""
        counts = list(counts)
        if len(counts) != config.tokens or sum(counts) != config.users:
            raise ValueError("counts must cover every token and sum to users")
        return cls(
            config,
            singles=sum(1 for n in counts if n == 1),
            collisions=sum(1 for n in counts if n >= 2),
        )


class PmfKind(str, Enum):
    EXACT = "exact"
    FLOAT = "float"
    EMPIRICAL = "empirical"


class PrecisionLossError(ArithmeticError):
    """The log-domain path cannot certify the requested accuracy."""


#: Largest log magnitude any intermediate quantity may reach on the
#: float path.  Every term is an exact integer ratio before its logs are
#: taken, so a mass's relative error is bounded by the absolute error of
#: those logs, about machine epsilon times the largest log magnitude
#: handled.  1e3 keeps every mass within the 1e-10 relative-error
#: contract: at the budget boundary (M=3 to 64, T up to 900) the worst
#: measured against the exact path is 1.5e-13.
DEFAULT_LOG_BUDGET = 1.0e3

#: A mass whose largest term is below this log would be subnormal or
#: zero in float arithmetic, losing the relative-error contract.
_LOG_FLOAT_MIN = math.log(sys.float_info.min)


def outcome_probability(config: SystemConfig, singles: int, collisions: int) -> Fraction:
    """Exact probability that contention splits the active tokens into
    exactly ``singles`` single-user tokens and ``collisions`` multi-user
    tokens.

    Infeasible splits (for example singles + 2*collisions > users) have
    probability zero; a split claiming more tokens than exist is an error.
    """
    if singles < 0 or collisions < 0:
        raise ValueError("singles and collisions must be non-negative")
    if singles + collisions > config.tokens:
        raise ValueError(
            f"{singles} + {collisions} active tokens exceed {config.tokens}"
        )
    partitions = stirling2_assoc(config.users - singles, collisions)
    weight = _outcome_weight(config, singles, collisions, partitions)
    if weight == 0:
        return Fraction(0)
    return Fraction(weight, config.tokens**config.users)


def _outcome_weight(config: SystemConfig, s: int, c: int, partitions: int) -> int:
    """Number of user-to-token assignments realizing the split (s, c),
    given ``partitions`` = S(users - s, c) from :func:`stirling2_strip`."""
    return (
        binomial(config.tokens, s)
        * falling_factorial(config.users, s)
        * binomial(config.tokens - s, c)
        * partitions
        * math.factorial(c)
    )


def _split_strip(config: SystemConfig) -> tuple[tuple[int, ...], ...]:
    """The partition counts every feasible split reads: rows users - m ..
    users, where m = min(tokens, users), capped at min(tokens, users // 2)
    blocks.  Row ``m - s`` holds S(users - s, c) for c = 0 ..
    min(tokens, (users - s) // 2), and every split (s, c) has
    c <= min(m - s, (users - s) // 2), so no lookup leaves the strip."""
    t = config.users
    m = min(config.tokens, t)
    return stirling2_strip(t, min(config.tokens, t // 2), t - m)


def success_pmf(config: SystemConfig) -> "SuccessPmf":
    """Exact pmf of the number of data-phase successes, over
    d = 0 .. min(tokens, data_slots, users).

    Every mass is accumulated as integers over one common denominator and
    reduced once, so the result is exact however wildly the terms differ
    in magnitude.  With no users the pmf is a point mass at zero.  Raises
    ``ValueError`` before any work when the partition counts would cost
    more than :data:`~accessframe.combinatorics.STRIP_WORK_LIMIT`.
    """
    t, big_m, big_k = config.users, config.tokens, config.data_slots
    m = min(big_m, t)
    strip = _split_strip(config)

    # (weight, s, c, draw size, subset count) for every split that can occur
    terms: list[tuple[int, int, int, int, int]] = []
    for s in range(m + 1):
        row = strip[m - s]
        for c in range(min(m - s, (t - s) // 2) + 1):
            if row[c] == 0:  # no users left over for zero collisions
                continue
            weight = _outcome_weight(config, s, c, row[c])
            k = min(s + c, big_k)
            terms.append((weight, s, c, k, math.comb(s + c, k)))

    common = math.lcm(*(subsets for *_rest, subsets in terms)) if terms else 1
    acc = [0] * (config.max_successes + 1)
    for weight, s, c, k, subsets in terms:
        scale = weight * (common // subsets)
        for d in range(max(0, k - c), min(s, k) + 1):
            acc[d] += scale * math.comb(s, d) * math.comb(c, k - d)

    denominator = big_m**t * common
    mass = tuple(Fraction(a, denominator) for a in acc)
    return SuccessPmf(config=config, mass=mass, kind=PmfKind.EXACT)


def success_pmf_float(
    config: SystemConfig, log_budget: float = DEFAULT_LOG_BUDGET
) -> "SuccessPmf":
    """Log-domain evaluation of the same pmf in float arithmetic.

    Each term is carried as the log of its exact integer numerator and
    denominator (the partition counts come from the same strip as
    :func:`success_pmf`), then exponentiated and summed per mass.  Raises
    :class:`PrecisionLossError` when any term's log magnitude exceeds
    ``log_budget``, or when a mass of the support would fall below the
    normal float range, beyond which the usual 1e-10 relative agreement
    with :func:`success_pmf` can no longer be certified.
    """
    t, big_m, big_k = config.users, config.tokens, config.data_slots
    m = min(big_m, t)
    log_assignments = t * math.log(big_m)
    if log_assignments > log_budget:
        raise PrecisionLossError(
            f"log magnitude {log_assignments:.3g} exceeds budget "
            f"{log_budget:.3g}; use the exact path"
        )
    strip = _split_strip(config)

    mass = [0.0] * (config.max_successes + 1)
    largest = [-math.inf] * len(mass)  # largest log term of each mass
    worst = log_assignments
    for s in range(m + 1):
        row = strip[m - s]
        for c in range(min(m - s, (t - s) // 2) + 1):
            if row[c] == 0:
                continue
            lg_weight = math.log(_outcome_weight(config, s, c, row[c]))
            k = min(s + c, big_k)
            lg_denom = log_assignments + math.log(math.comb(s + c, k))
            worst = max(worst, lg_denom)
            for d in range(max(0, k - c), min(s, k) + 1):
                lg_num = lg_weight + math.log(math.comb(s, d) * math.comb(c, k - d))
                worst = max(worst, lg_num)
                largest[d] = max(largest[d], lg_num - lg_denom)
                mass[d] += math.exp(lg_num - lg_denom)

    if worst > log_budget:
        raise PrecisionLossError(
            f"log magnitude {worst:.3g} exceeds budget {log_budget:.3g}; "
            "use the exact path"
        )
    for d, lg_term in enumerate(largest):
        if -math.inf < lg_term < _LOG_FLOAT_MIN:
            raise PrecisionLossError(
                f"P(S={d}) is about e^{lg_term:.4g}, below the normal float "
                "range; use the exact path"
            )
    return SuccessPmf(config=config, mass=tuple(mass), kind=PmfKind.FLOAT)


@dataclass(frozen=True)
class SuccessPmf:
    """Distribution of the per-frame success count S, indexed d = 0 ..
    min(tokens, data_slots, users).

    ``kind`` records provenance: "exact" (rational masses summing to
    exactly 1), "float" (log-domain path), or "empirical" (simulated
    frequencies, exact multiples of 1/N).
    """

    config: SystemConfig
    mass: tuple
    kind: PmfKind

    def __len__(self) -> int:
        return len(self.mass)

    def __getitem__(self, d: int):
        return self.mass[d]

    def mean(self):
        """Expected number of successes per frame."""
        return sum(d * p for d, p in enumerate(self.mass))

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.mass)

    def total(self):
        return sum(self.mass)

    def to_json_dict(self) -> dict:
        if self.kind is PmfKind.FLOAT:
            rendered = [float(p) for p in self.mass]
        else:
            rendered = [f"{p.numerator}/{p.denominator}" for p in self.mass]
        return {
            "M": self.config.tokens,
            "K": self.config.data_slots,
            "T": self.config.users,
            "kind": self.kind.value,
            "mass": rendered,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SuccessPmf":
        payload = json.loads(text)
        config = SystemConfig(
            tokens=payload["M"], data_slots=payload["K"], users=payload["T"]
        )
        kind = PmfKind(payload["kind"])
        if kind is PmfKind.FLOAT:
            mass = tuple(float(p) for p in payload["mass"])
        else:
            mass = tuple(Fraction(p) for p in payload["mass"])
        return cls(config=config, mass=mass, kind=kind)

    def to_csv(self) -> str:
        lines = ["d,probability"]
        lines += [f"{d},{float(p):.12g}" for d, p in enumerate(self.mass)]
        return "\n".join(lines) + "\n"
