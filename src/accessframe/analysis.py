"""Closed-form distribution of data-phase successes in one access frame.

Model: ``users`` stations each activate one of ``tokens`` contention
tokens uniformly and independently.  The base station only sees which
tokens are active (not how many users chose each), grants a uniformly
random subset of min(active, data_slots) of them a data slot, and a
granted token delivers its packet iff exactly one user activated it.

:func:`success_pmf` counts, for each d, the user-to-token assignments
that deliver d packets, so every mass is an integer multiple of
tokens**-users.  The grant is uniform and the tokens are exchangeable,
so the count is as if the k = min(active, data_slots) lowest-indexed
active tokens were granted: a split into s singles and c collisions adds
its assignments with the singles in given ranks, times the
C(k, d) * C(s + c - k, s - d) rankings that put d singles among the
granted.  The partition counts of every split come from one strip of
rows users - min(tokens, users) .. users, built per configuration by
:func:`~accessframe.combinatorics.stirling2_strip`.  Inputs whose strip
or split sum would cost too much are refused before any work starts.
All arithmetic is on exact integers, so the masses sum to exactly 1.
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
    count = _split_count(config, singles, collisions, partitions)
    ranks = math.comb(singles + collisions, singles)
    return Fraction(ranks * count, config.tokens**config.users)


def _split_count(config: SystemConfig, s: int, c: int, partitions: int) -> int:
    """Number of user-to-token assignments with s singles and c collisions
    whose singles hold s given ranks among the s + c active tokens, given
    ``partitions`` = S(users - s, c) from :func:`stirling2_strip`."""
    return (
        math.comb(config.tokens, s + c)
        * math.perm(config.users, s)
        * math.factorial(c)
        * partitions
    )


#: Measured cost of building one split's count in :func:`success_pmf`, in
#: passes over its tokens**users-wide bits; each grant term d of the split
#: then adds one more pass.
_SPLIT_COUNT_PASSES = 16


def _split_sum_work(config: SystemConfig) -> float:
    """Estimated work of the split sum in :func:`success_pmf`, in the
    bit-operations of :func:`~accessframe.combinatorics.strip_work`.

    Every split (s, c) builds its count from binomials, a falling
    factorial and a factorial, below tokens**users and so
    users * log2(tokens) bits wide, then adds one product per grant term
    d = max(0, k - c) .. min(s, k), k = min(s + c, data_slots).  On a
    2-core x86-64 host, at tokens = users = 100..400, building a count
    took about 6.4 ns per bit and a grant term 0.5 ns per bit, so a
    count is weighted :data:`_SPLIT_COUNT_PASSES` passes over its bits and
    a term one; a pass then takes 0.4-0.7 ns, close to a strip
    bit-operation (0.2-0.6 ns).  Rows of s are summed only until the
    total passes :data:`STRIP_WORK_LIMIT`, so the estimate is cheap for
    any input.
    """
    t, big_k = config.users, config.data_slots
    m = min(config.tokens, t)
    bits = t * math.log2(config.tokens)
    work = 0.0
    for s in range(m + 1):
        passes = 0
        for c in range(min(m - s, (t - s) // 2) + 1):
            k = min(s + c, big_k)
            passes += _SPLIT_COUNT_PASSES + min(s, k) - max(0, k - c) + 1
        work += passes * bits
        if work > STRIP_WORK_LIMIT:
            break
    return work


def success_pmf(config: SystemConfig) -> "SuccessPmf":
    """Exact pmf of the number of data-phase successes, over
    d = 0 .. min(tokens, data_slots, users).

    Every mass is an integer count of assignments over tokens**users,
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

    # assignments whose k lowest-indexed active tokens hold d singles
    acc = [0] * (config.max_successes + 1)
    for s in range(m + 1):
        row = strip[m - s]
        for c in range(min(m - s, (t - s) // 2) + 1):
            if row[c] == 0:  # no users left over for zero collisions
                continue
            count = _split_count(config, s, c, row[c])
            a = s + c
            k = min(a, big_k)
            for d in range(max(0, k - c), min(s, k) + 1):
                acc[d] += count * (math.comb(k, d) * math.comb(a - k, s - d))

    assignments = big_m**t
    mass = tuple(Fraction(n, assignments) for n in acc)
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
