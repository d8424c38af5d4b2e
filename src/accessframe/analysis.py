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
so r = 0 .. min(M, K, T) reads one window, rows T - min(M, K, T) .. T,
whose first row is seeded from powers and the rest rolled.
Inverting the moments gives the counts,

    P(S = d) * M**T = sum_{r >= d} (-1)**(r - d) * C(r, d) * B_r * M**T.

Inputs whose rows, sums, reductions and decimal writing would cost too
much are refused before any work starts (see
:func:`~accessframe.combinatorics.exact_work`).
All arithmetic is on exact integers, so the masses sum to exactly 1.

:func:`outcome_probability`, the law of the contention split, reads a
window of the same rows; only the benchmark's ternary oracle calls it.
"""

from __future__ import annotations

import json
import math
import reprlib
from enum import Enum
from fractions import Fraction
from operator import index as as_int
from operator import mul, sub

from . import _EXPORTS
from .combinatorics import exact_work, refuse_oversized, surjection_rows

__all__ = [*_EXPORTS["analysis"]]


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
        values = zip(self._fields, self._values())
        fields = ", ".join(f"{name}={_repr(value)}" for name, value in values)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked like a new record."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def to_json(self) -> str:
        """The record's JSON document: its ``to_json_dict()``, indented."""
        return json.dumps(self.to_json_dict(), indent=2)


class SystemConfig(Record):
    """One access-frame scenario: tokens M, data slots K, users T.

    M and K are free of any ordering constraint; the analysis holds for
    M > K and M <= K alike.
    """

    tokens: int
    data_slots: int
    users: int

    def __post_init__(self) -> None:
        for name, low in (("tokens", 1), ("data_slots", 1), ("users", 0)):
            object.__setattr__(self, name, _at_least(name, getattr(self, name), low))

    @property
    def max_successes(self) -> int:
        """Largest possible number of data-phase successes."""
        return min(self.tokens, self.data_slots, self.users)

    @property
    def frame_slots(self) -> int:
        """Total frame length: one contention slot plus the data slots."""
        return self.data_slots + 1

    def to_json_dict(self) -> dict:
        """The ``M``, ``K``, ``T`` fields that head every document."""
        return {"M": self.tokens, "K": self.data_slots, "T": self.users}


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


def _count_text(n: int | Fraction) -> str:
    """A number as a refusal message writes it, short and under the int ->
    str digit limit: an int in full up to 31 digits, past that as ``2**k or
    more`` (``-2**k or less``), and a rational as its two parts so written."""
    if isinstance(n, Fraction):
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


def _repr(value) -> str:
    """``repr(value)`` of a record field, with every int, also inside a
    tuple or a ``Fraction``, written by :func:`_decimal` at any size."""
    if type(value) is int:
        return _decimal(value)
    if type(value) is Fraction:
        return f"Fraction({_decimal(value.numerator)}, {_decimal(value.denominator)})"
    if type(value) is tuple:
        items = ", ".join(map(_repr, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    return repr(value)


def _parse_decimal(digits: str) -> int:
    """The int a non-empty run of ASCII digits spells, at any size: read by
    ``int()`` under the interpreter's digit limit, split in halves past it."""
    try:
        return int(digits)
    except ValueError:
        pass
    k = len(digits) // 2
    return _parse_decimal(digits[:-k]) * 10**k + _parse_decimal(digits[-k:])


def json_rational(value: Fraction | None) -> str | None:
    """An exact rational as the ``"numerator/denominator"`` string the JSON
    documents carry, however many digits it has; None stays None."""
    if value is None:
        return None
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def parse_rational(text: str) -> Fraction:
    """The rational a :func:`json_rational` string spells, at any length:
    an optional ``-``, ASCII digits, ``/`` and ASCII digits.  Anything else
    (not a string, another form such as ``"0.5"``, or a zero denominator)
    raises ``ValueError``."""
    if not isinstance(text, str):
        raise ValueError(f"a rational must be a string, got {text!r}")
    numerator, _, denominator = text.removeprefix("-").partition("/")
    if not all(side.isascii() and side.isdigit() for side in (numerator, denominator)):
        raise ValueError(f"not a [-]digits/digits rational: {reprlib.repr(text)}")
    if not denominator.strip("0"):
        raise ValueError(f"zero denominator in {reprlib.repr(text)}")
    value = Fraction(_parse_decimal(numerator), _parse_decimal(denominator))
    return -value if text.startswith("-") else value


def _is_int(value) -> bool:
    """True for a JSON integer; ``bool`` is an ``int`` subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


#: Column order shared by every tabular export in the package.
CSV_HEADER = "M,K,T,expected_successes,success_rate,efficiency"


def csv_float(value: Fraction | None) -> str:
    """A number as the CSV documents carry it, to 12 significant digits;
    None (a rate without users) is an empty field."""
    return "" if value is None else f"{float(value):.12g}"


def csv_fields(
    config: SystemConfig,
    expected: Fraction,
    rate: Fraction | None,
    eff: Fraction,
) -> str:
    """One CSV data row in :data:`CSV_HEADER` order."""
    return (
        f"{config.tokens},{config.data_slots},{config.users},"
        f"{csv_float(expected)},{csv_float(rate)},{csv_float(eff)}"
    )


class PmfKind(str, Enum):
    EXACT = "exact"
    EMPIRICAL = "empirical"


def outcome_probability(config: SystemConfig, singles: int, collisions: int) -> Fraction:
    """Exact probability that contention splits the active tokens into
    exactly ``singles`` single-user tokens and ``collisions`` multi-user
    tokens: the law the benchmark's ternary oracle sums.

    Of C(M, s) * C(M - s, c) choices of tokens, each is filled in
    sum_j (-1)**j * C(c, j) * (T)_{s + j} * surj(T - s - j, c - j) ways
    (inclusion-exclusion over j collision tokens left with one user),
    reading surjection rows T - s - c .. T - s capped at c columns.
    Infeasible splits (for example s + 2c > T) have probability zero and
    roll nothing; a split claiming more tokens than exist, or a roll over
    the cost limit, raises ``ValueError``.
    """
    if singles < 0 or collisions < 0:
        raise ValueError("singles and collisions must be non-negative")
    if singles + collisions > config.tokens:
        raise ValueError(
            f"{_count_text(singles)} + {_count_text(collisions)} active tokens "
            f"exceed {_count_text(config.tokens)}"
        )
    rest = config.users - singles
    if 2 * collisions > rest or collisions == 0 < rest:
        return Fraction(0)
    refuse_oversized(
        exact_work(range(rest - collisions, rest + 1), collisions),
        f"surjection counts up to n={rest} in {collisions} columns",
    )
    # row rest - collisions + i of the window is read at column i, with
    # i = collisions - j collision tokens holding two users or more
    window = surjection_rows(range(rest - collisions, rest + 1), collisions)
    filled = sum(
        (-1) ** (collisions - i)
        * math.comb(collisions, i)
        * math.perm(config.users, singles + collisions - i)
        * row[i]
        for i, row in enumerate(window)
    )
    count = (
        math.comb(config.tokens, singles)
        * math.comb(config.tokens - singles, collisions)
        * filled
    )
    return Fraction(count, config.tokens**config.users)


def success_pmf(config: SystemConfig) -> "SuccessPmf":
    """Exact pmf of the number of data-phase successes, over
    d = 0 .. min(tokens, data_slots, users).

    The pmf holds, for each d, the integer count of assignments over
    tokens**users, so the result is exact however wildly the terms
    differ in magnitude; a mass is reduced only when it is read.  With
    no users the pmf is a point mass at zero.  Raises ``ValueError``
    before any work when the rows, the moment sums and the reductions
    would together cost too much (see
    :func:`~accessframe.combinatorics.exact_work`).
    """
    t, big_m, big_k = config.users, config.tokens, config.data_slots
    width, top = min(big_m, t), config.max_successes
    # moment r multiplies row T - r, capped at width - r columns, by weights
    # C(M, a) * C(min(a, K), r) < C(M, a) * 2**top; step r of the inversion
    # updates top - r + 1 counts, and top + 1 masses over M**T reduce
    # when they are read
    try:
        count_bits = t * math.log2(big_m) + 2 * top
    except OverflowError:  # users past float range: exact_work prices it at inf
        count_bits = math.inf
    work = exact_work(
        range(t - top, t + 1),
        width,
        products=((t - r, width - r) for r in range(top + 1)),
        coefficients=(big_m, width, top),
        fractions=[(top + 1, count_bits)],
        weights=(top + 1) * (width + 1) - top * (top + 1) // 2,
        steps=((top + 1) * (top + 2) // 2, count_bits),
    )
    what = f"the exact pmf for {_count_text(big_m)} tokens and {_count_text(t)} users"
    refuse_oversized(work, what)
    occupancies = [math.comb(big_m, a) for a in range(width + 1)]
    moments = [0] * (top + 1)
    rows = surjection_rows(range(t - top, t + 1), width)
    for r, row in zip(range(top, -1, -1), rows):
        # row T - r holds surj(T - r, a - r) for a = r .. width
        weights = [
            occupancies[a] * math.comb(min(a, big_k), r) for a in range(r, width + 1)
        ]
        moments[r] = math.perm(t, r) * sum(map(mul, weights, row))

    # the inversion is the coefficient list of sum_r B_r * (x - 1)**r,
    # evaluated by Horner's rule: multiply by (x - 1), then add B_r
    counts: list[int] = []
    for moment in reversed(moments):
        counts = list(map(sub, [0, *counts], [*counts, 0]))
        counts[0] += moment

    return SuccessPmf(config, tuple(counts), big_m**t, PmfKind.EXACT)


class SuccessPmf(Record):
    """Distribution of the per-frame success count S, indexed d = 0 ..
    min(tokens, data_slots, users), as integer counts over one
    denominator: P(S = d) = counts[d] / denominator.

    ``kind`` records provenance: "exact" (assignments out of
    tokens**users, so the denominator divides it) or "empirical"
    (frames out of the N simulated).  The counts are kept in lowest
    terms, so equal laws are equal records; ``mass`` reads them off as
    exact fractions.  A record whose counts are not max_successes + 1
    non-negative integers summing to the denominator is refused.
    """

    config: SystemConfig
    counts: tuple[int, ...]
    denominator: int
    kind: PmfKind

    def __post_init__(self) -> None:
        counts = tuple(as_int(c) for c in self.counts)
        denominator = _at_least("the denominator", self.denominator, 1)
        kind = PmfKind(self.kind)
        outcomes = self.config.max_successes + 1
        if len(counts) != outcomes:
            raise ValueError(
                f"counts must hold max_successes + 1 = {_count_text(outcomes)} "
                f"entries, got {len(counts)}"
            )
        if min(counts) < 0:
            raise ValueError("counts must be non-negative")
        if sum(counts) != denominator:
            raise ValueError(
                f"counts must sum to the denominator {_count_text(denominator)}, "
                f"got {_count_text(sum(counts))}"
            )
        # modular, so a huge T never builds tokens**users
        config = self.config
        if kind is PmfKind.EXACT and pow(config.tokens, config.users, denominator):
            raise ValueError(
                f"the denominator {_count_text(denominator)} of an exact law must "
                f"divide tokens**users = {_count_text(config.tokens)}**"
                f"{_count_text(config.users)}"
            )
        common = math.gcd(denominator, *counts)
        object.__setattr__(self, "counts", tuple(c // common for c in counts))
        object.__setattr__(self, "denominator", denominator // common)
        object.__setattr__(self, "kind", kind)

    @property
    def mass(self) -> tuple[Fraction, ...]:
        """P(S = d) for each d, each reduced on its own."""
        return tuple(Fraction(c, self.denominator) for c in self.counts)

    def mean(self) -> Fraction:
        """Expected number of successes per frame."""
        return Fraction(sum(d * c for d, c in enumerate(self.counts)), self.denominator)

    def to_json_dict(self) -> dict:
        return {
            **self.config.to_json_dict(),
            "kind": self.kind.value,
            "mass": [json_rational(p) for p in self.mass],
        }

    @classmethod
    def from_json(cls, text: str) -> "SuccessPmf":
        """The record a :meth:`to_json` document holds.  Each mass is read
        by :func:`parse_rational`, in the one form :meth:`to_json` writes,
        and the masses are put over the least common multiple of their
        denominators, so a document that is not a law is refused like any
        other record."""
        payload = json.loads(text)
        fields = ("M", "K", "T", "kind", "mass")
        if not isinstance(payload, dict) or not payload.keys() >= set(fields):
            raise ValueError(f"a pmf document is an object with {', '.join(fields)}")
        m, k, t, kind, masses = map(payload.get, fields)
        if not all(map(_is_int, (m, k, t))):
            raise ValueError(f"M, K and T must be integers, got {m!r}, {k!r}, {t!r}")
        if not isinstance(masses, list):
            raise ValueError(f"mass must be a list, got {masses!r}")
        config = SystemConfig(m, k, t)
        mass = [parse_rational(p) for p in masses]
        denominator = math.lcm(*(p.denominator for p in mass))
        counts = tuple(p.numerator * (denominator // p.denominator) for p in mass)
        return cls(config, counts, denominator, kind)

    def to_csv(self) -> str:
        lines = ["d,probability"]
        lines += [f"{d},{csv_float(p)}" for d, p in enumerate(self.mass)]
        return "\n".join(lines) + "\n"
