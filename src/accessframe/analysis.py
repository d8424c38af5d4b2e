"""Closed-form distribution of data-phase successes in one access frame.

Model: ``users`` stations each activate one of ``tokens`` contention
tokens uniformly and independently.  The base station only sees which
tokens are active (not how many users chose each), grants a uniformly
random subset of min(active, data_slots) of them a data slot, and a
granted token delivers its packet iff exactly one user activated it.

:func:`success_pmf` counts, for each d, the user-to-token assignments
that deliver d packets, so every mass is an integer multiple of
tokens**-users.  The counts come from the binomial moments
B_r = E[C(S, r)] of the success count S (Feller, vol. 1, ch. IV, sec. 3).
Fix r tokens among a active ones to be singles: distinct users fill them
in (T)_r ways, the other users cover the other a - r active tokens, and
all r are granted with probability (k)_r / (a)_r, k = min(a, K).  Summed
over the active sets and the r-subsets of each,

    B_r * M**T = (T)_r * sum_{a=r}^{min(M, T)} C(M, a) * C(min(a, K), r)
                 * surj(T - r, a - r),

with surj(n, j) the number of maps from n users onto j tokens.  Moment r
reads row T - r of :func:`~accessframe.combinatorics.surjection_rows`,
so r = 0 .. min(M, K, T) reads rows T - min(M, K, T) .. T of one roll.
Inverting the moments gives the counts,

    P(S = d) * M**T = sum_{r >= d} (-1)**(r - d) * C(r, d) * B_r * M**T.

Inputs whose roll, sums and reductions would cost too much are refused
before any work starts (see :func:`~accessframe.combinatorics.exact_work`).
All arithmetic is on exact integers, so the masses sum to exactly 1.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from fractions import Fraction
from operator import index as as_int
from operator import mul, sub

from .combinatorics import (
    exact_work,
    refuse_oversized,
    stirling2_assoc,
    surjection_rows,
)

__all__ = [
    "SystemConfig",
    "PmfKind",
    "SuccessPmf",
    "outcome_probability",
    "success_pmf",
]


class Record:
    """Base of the package's frozen value records.

    A subclass lists its fields as class annotations, in order; a class
    attribute of the same name is that field's default.  A record takes
    its fields by position or by name, runs ``__post_init__`` (which may
    normalise a field through ``object.__setattr__``), and is immutable
    from then on.  Records of the same class with equal fields compare
    and hash equal, and the repr names every field.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(
                f"{cls.__name__} has {len(cls._fields)} fields, got {len(args)} values"
            )
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif hasattr(cls, name):
                values[name] = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__name__} needs a value for {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or normalise the fields; the base accepts any values."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked like a new record."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class SystemConfig(Record):
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


def _decimal(n: int) -> str:
    """``str(n)`` at any size.  CPython refuses int -> str conversions
    past ``sys.get_int_max_str_digits()`` digits; a longer int is split
    at a power of ten into halves converted on their own, so that
    interpreter-wide limit is never changed."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    # 0.15 digits per bit is about half of n's digits and fewer than all
    # of them, so the high half is positive and has no leading zeros
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _parse_decimal(text: str) -> int:
    """``int(text)`` for an optionally signed run of decimal digits at any
    size, the inverse of :func:`_decimal`."""
    try:
        return int(text)
    except ValueError:
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise
    k = len(digits) // 2
    value = _parse_decimal(digits[:-k]) * 10**k + _parse_decimal(digits[-k:])
    return -value if text.startswith("-") else value


def json_rational(value: Fraction | None) -> str | None:
    """An exact rational as the ``"numerator/denominator"`` string the JSON
    documents carry, however many digits it has; None stays None."""
    if value is None:
        return None
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, also for a ``"numerator/denominator"`` string
    too long for it (the inverse of :func:`json_rational`)."""
    try:
        return Fraction(text)
    except ValueError:
        numerator, slash, denominator = text.partition("/")
        if not slash:
            raise
    return Fraction(_parse_decimal(numerator), _parse_decimal(denominator))


#: Column order shared by every tabular export in the package.
CSV_HEADER = "M,K,T,expected_successes,success_rate,efficiency"


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
    # C(M, s) single tokens filled by distinct users, and (M - s)_c
    # ordered collision tokens to label the blocks of the other users
    partitions = stirling2_assoc(config.users - singles, collisions)
    count = (
        math.comb(config.tokens, singles)
        * math.perm(config.users, singles)
        * math.perm(config.tokens - singles, collisions)
        * partitions
    )
    return Fraction(count, config.tokens**config.users)


def success_pmf(config: SystemConfig) -> "SuccessPmf":
    """Exact pmf of the number of data-phase successes, over
    d = 0 .. min(tokens, data_slots, users).

    Every mass is an integer count of assignments over tokens**users,
    reduced once, so the result is exact however wildly the terms differ
    in magnitude.  With no users the pmf is a point mass at zero.  Raises
    ``ValueError`` before any work when the roll, the moment sums and the
    reductions would together cost too much (see
    :func:`~accessframe.combinatorics.exact_work`).
    """
    t, big_m, big_k = config.users, config.tokens, config.data_slots
    width, top = min(big_m, t), config.max_successes
    # moment r multiplies row T - r, capped at width - r columns, by weights
    # C(M, a) * C(min(a, K), r) < C(M, a) * 2**top; step r of the inversion
    # updates top - r + 1 counts, and top + 1 masses reduce, over M**T
    count_bits = t * math.log2(big_m) + 2 * top
    work = exact_work(
        t,
        width,
        products=((t - r, width - r) for r in range(top + 1)),
        coefficients=(big_m, width, top),
        fractions=[(top + 1, count_bits)],
        weights=(top + 1) * (width + 1) - top * (top + 1) // 2,
        steps=((top + 1) * (top + 2) // 2, count_bits),
    )
    refuse_oversized(work, f"the exact pmf for {big_m} tokens and {t} users")
    occupancies = [math.comb(big_m, a) for a in range(width + 1)]
    moments = [0] * (top + 1)
    for n, row in enumerate(surjection_rows(t, width)):
        r = t - n
        if r <= top:  # row n holds surj(T - r, a - r) for a = r .. width
            weights = [
                occupancies[a] * math.comb(min(a, big_k), r)
                for a in range(r, width + 1)
            ]
            moments[r] = math.perm(t, r) * sum(map(mul, weights, row))

    # the inversion is the coefficient list of sum_r B_r * (x - 1)**r,
    # evaluated by Horner's rule: multiply by (x - 1), then add B_r
    counts: list[int] = []
    for moment in reversed(moments):
        counts = list(map(sub, [0, *counts], [*counts, 0]))
        counts[0] += moment

    assignments = big_m**t
    mass = tuple(Fraction(c, assignments) for c in counts)
    return SuccessPmf(config=config, mass=mass, kind=PmfKind.EXACT)


class SuccessPmf(Record):
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
            "mass": [json_rational(p) for p in self.mass],
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
        mass = tuple(parse_rational(p) for p in payload["mass"])
        return cls(config=config, mass=mass, kind=kind)

    def to_csv(self) -> str:
        lines = ["d,probability"]
        lines += [f"{d},{float(p):.12g}" for d, p in enumerate(self.mass)]
        return "\n".join(lines) + "\n"
