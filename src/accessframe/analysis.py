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
:func:`~accessframe.combinatorics.stirling2_strip`.  Inputs whose strip
or split sum would cost too much are refused before any work starts.
All arithmetic is exact rational; the terms of the sum span many orders
of magnitude and exact normalization is part of the contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import index as as_int

from .combinatorics import (
    STRIP_WORK_LIMIT,
    binomial,
    falling_factorial,
    stirling2_assoc,
    stirling2_strip,
)

__all__ = [
    "SystemConfig",
    "PmfKind",
    "SuccessPmf",
    "outcome_probability",
    "success_pmf",
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


class PmfKind(str, Enum):
    EXACT = "exact"
    EMPIRICAL = "empirical"


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


def _split_sum_work(config: SystemConfig) -> float:
    """Estimated work of the split sum in :func:`success_pmf`, in the
    bit-operations of :func:`~accessframe.combinatorics.strip_work`: one
    pass over the weight of every split (s, c), each weight being below
    tokens**users, so users * log2(tokens) bits wide.  Rows of s are summed
    only until the total passes :data:`STRIP_WORK_LIMIT`, so the estimate
    is cheap for any input."""
    t = config.users
    m = min(config.tokens, t)
    bits = t * math.log2(config.tokens)
    work = 0.0
    for s in range(m + 1):
        work += (min(m - s, (t - s) // 2) + 1) * bits
        if work > STRIP_WORK_LIMIT:
            break
    return work


def success_pmf(config: SystemConfig) -> "SuccessPmf":
    """Exact pmf of the number of data-phase successes, over
    d = 0 .. min(tokens, data_slots, users).

    Every mass is accumulated as integers over one common denominator and
    reduced once, so the result is exact however wildly the terms differ
    in magnitude.  With no users the pmf is a point mass at zero.  Raises
    ``ValueError`` before any work when the split sum or the partition
    counts would cost more than :data:`STRIP_WORK_LIMIT`.
    """
    t, big_m, big_k = config.users, config.tokens, config.data_slots
    m = min(big_m, t)
    if _split_sum_work(config) > STRIP_WORK_LIMIT:
        raise ValueError(
            f"the split sum for {big_m} tokens and {t} users needs more than "
            f"the {STRIP_WORK_LIMIT:.2g} estimated bit-operations allowed; "
            "use fewer users or tokens"
        )
    # rows t - m .. t capped at min(M, t // 2) blocks: row m - s holds
    # S(t - s, c) for every c <= min(m - s, (t - s) // 2) a split reads
    strip = stirling2_strip(t, min(big_m, t // 2), t - m)

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


@dataclass(frozen=True)
class SuccessPmf:
    """Distribution of the per-frame success count S, indexed d = 0 ..
    min(tokens, data_slots, users).

    ``kind`` records provenance: "exact" (rational masses summing to
    exactly 1) or "empirical" (simulated frequencies, exact multiples of
    1/N).
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
        return {
            "M": self.config.tokens,
            "K": self.config.data_slots,
            "T": self.config.users,
            "kind": self.kind.value,
            "mass": [f"{p.numerator}/{p.denominator}" for p in self.mass],
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
        mass = tuple(Fraction(p) for p in payload["mass"])
        return cls(config=config, mass=mass, kind=kind)

    def to_csv(self) -> str:
        lines = ["d,probability"]
        lines += [f"{d},{float(p):.12g}" for d, p in enumerate(self.mass)]
        return "\n".join(lines) + "\n"
