"""Seeded Monte Carlo simulation of the access-reservation frame.

Each simulated frame mirrors the protocol: every user activates one of
``tokens`` contention tokens uniformly at random, the base station
grants data slots to min(eligible, data_slots) tokens chosen uniformly
from the eligible set, and a granted token succeeds iff exactly one
user activated it.  Two detection modes:

* binary: the BS sees only idle/active per token, so every active
  token is eligible and a granted collision wastes its slot;
* ternary: the BS can tell singles from collisions and grants slots
  only to single-user tokens.

:func:`estimate_pmf` tallies the per-frame success count over N
independent frames of one seeded stream; its masses are exact multiples
of 1/N.  Identical parameters give a bit-identical report under one
numpy release, verified on numpy 2.4.6: NEP 19 does not freeze
``Generator`` streams across releases, and :data:`RNG_ALGORITHM`
versions only the package's own draws.
Both tallies read only each frame's singles and active tokens, and a
frame's (singles, active) state is a Markov chain over its users.
Frames are independent copies of that chain, so instead of walking each
frame the simulator keeps how many frames sit in each occupied state and
splits each state's frames among its three moves by one multinomial
draw per user (exact lumping of i.i.d. chains).  A run costs a step per
user and occupied state, whatever N is, and stops once every frame has
reached the absorbing state where every token collided.  The gain needs
many frames per occupied state: with few, as at T ~ M in the thousands,
a step per state costs more than the per-frame walk it replaced.
A uniform grant of min(a, data_slots) of the a active tokens delivers a
hypergeometric number of the frame's singles, so the binary tally splits
each state's frames by one multinomial draw over that law.
:func:`compare_to_exact` measures a report against an exact law that its
caller builds: this module never builds one.

numpy is imported at the first draw, inside :func:`make_rng` and
:func:`estimate_pmf`, so the exact subcommands, ``--help`` and refusals
never load it.
"""

from __future__ import annotations

import sys
from enum import Enum
from fractions import Fraction
from operator import index as as_int
from typing import TYPE_CHECKING

from . import _EXPORTS
from .analysis import (
    CSV_HEADER,
    PmfKind,
    Record,
    SuccessPmf,
    SystemConfig,
    csv_fields,
    csv_float,
    json_rational,
)
from .combinatorics import _at_least, _count_text

if TYPE_CHECKING:
    import numpy as np

__all__ = [*_EXPORTS["simulator"]]

#: Generator behind every simulation and version of the package's draws
#: from it, recorded in each report; the draws also depend on numpy's release.
RNG_ALGORITHM = "numpy-pcg64/v5"

#: Each user's step through the occupied states costs about 33 us of
#: numpy calls, the cost of ``_STEP_STATES`` state-steps, plus 280-420 ns
#: per occupied state (2-core Xeon: 33-37 us per step at M=32768 T=32769
#: with 2 frames; 280 ns per state at M=T=1000 with 10^4 frames, 420 ns
#: at M=128 T=160 with 2*10^5 frames, where binomials are dearer).  A
#: walk is priced in state-steps, users times ``_STEP_STATES`` plus the
#: frames or the reachable states, whichever is fewer, and refused past
#: ``_WALK_LIMIT``, about half an hour.
_STEP_STATES = 100
_WALK_LIMIT = 6_000_000_000

#: Float cells in one chunk of the binary grant's hypergeometric rows.
_GRANT_CELLS = 1 << 15


class DetectionMode(str, Enum):
    """What the base station can read off the contention phase."""

    BINARY = "binary"
    TERNARY = "ternary"


def make_rng(seed: int) -> np.random.Generator:
    """The package's seeded random stream (PCG64 behind numpy's
    Generator).  All simulation draws come from here and nowhere else."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class SimParams(Record):
    """Everything that determines a simulation run, bit for bit."""

    config: SystemConfig
    iterations: int
    seed: int
    mode: DetectionMode = DetectionMode.BINARY

    def __post_init__(self) -> None:
        iterations = _at_least("iterations", self.iterations, 1)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "seed", as_int(self.seed))
        object.__setattr__(self, "mode", DetectionMode(self.mode))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def to_json_dict(self) -> dict:
        """The fields that head every simulated document: enough to draw
        the same frames again."""
        return {
            **self.config.to_json_dict(),
            "mode": self.mode.value,
            "seed": self.seed,
            "iterations": self.iterations,
            "rng": RNG_ALGORITHM,
        }


class EmpiricalReport(Record):
    """Tallied outcome of a simulation run.

    ``counts[d]`` is the raw number of frames with d successes.  The
    empirical pmf is those counts over the iterations, and the mean and
    the metrics are read off it as exact fractions; counts that are not
    a law over the iterations are refused as that pmf refuses them.  The
    rate is None when there are no users to succeed.
    """

    params: SimParams
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(as_int(c) for c in self.counts))
        self.pmf_hat  # refuses counts that are not a law over the iterations

    @property
    def pmf_hat(self) -> SuccessPmf:
        return SuccessPmf(
            self.params.config, self.counts, self.params.iterations, PmfKind.EMPIRICAL
        )

    @property
    def mean_successes(self) -> Fraction:
        return self.pmf_hat.mean()

    @property
    def success_rate(self) -> Fraction | None:
        users = self.params.config.users
        return self.mean_successes / users if users else None

    @property
    def efficiency(self) -> Fraction:
        return self.mean_successes / self.params.config.frame_slots

    def to_json_dict(self) -> dict:
        return {
            **self.params.to_json_dict(),
            "counts": list(self.counts),
            "mass": [json_rational(p) for p in self.pmf_hat.mass],
            "mean_successes": json_rational(self.mean_successes),
            "success_rate": json_rational(self.success_rate),
            "efficiency": json_rational(self.efficiency),
        }

    def to_csv(self) -> str:
        header = f"{CSV_HEADER},mode,seed,iterations"
        row = csv_fields(
            self.params.config, self.mean_successes, self.success_rate, self.efficiency
        )
        return (
            f"{header}\n{row},{self.params.mode.value},"
            f"{self.params.seed},{self.params.iterations}\n"
        )


def estimate_pmf(params: SimParams) -> EmpiricalReport:
    """Estimate the success pmf from ``params.iterations`` frames.

    The frames are walked together by :func:`_walk_states`, which keeps
    how many of them sit in each (singles, active tokens) state, so a
    run costs a step per user and occupied state, not per frame.  The
    grant then works per state: in binary mode a uniform grant of
    min(active, data_slots) of the active tokens takes a hypergeometric
    number of the singles, so the state's frames split by one
    multinomial draw over that law; in ternary mode every frame of the
    state delivers min(singles, data_slots) and no grant is drawn.

    Raises ``ValueError`` before drawing on 2**63 frames or more, past
    what a 64-bit count holds, on a walk priced (see :data:`_WALK_LIMIT`)
    over its limit, or on a token count past float range (1.8e308).  The
    walk indexes no token: it keys states by min(tokens, users) and reads
    the token count only as a float.
    """
    cfg = params.config
    if params.iterations >= 2**63:
        raise ValueError(
            f"simulating {_count_text(params.iterations)} frames is over the "
            "limit of 2**63 - 1 frames, the most a 64-bit count holds; "
            "use fewer frames"
        )
    width = min(cfg.tokens, cfg.users) + 1
    reachable = width * (width + 1) // 2  # pairs 0 <= s <= a <= min(M, T)
    # no credit for early absorption: a walk may run through every user
    price = cfg.users * (_STEP_STATES + min(params.iterations, reachable))
    if price > _WALK_LIMIT:
        # %g would convert the int price to a float, which past float range
        # raises; such a price is written as the bound it passes
        largest = sys.float_info.max
        steps = f"{price:.3g}" if price <= largest else f"more than {largest:.3g}"
        raise ValueError(
            f"simulating {_count_text(params.iterations)} frames of "
            f"{_count_text(cfg.users)} users walks {steps} state-steps, over the "
            f"limit of {_WALK_LIMIT:.3g}; use fewer users or frames"
        )
    try:
        float(cfg.tokens)
    except OverflowError:
        raise ValueError(
            f"simulating more than {sys.float_info.max:.3g} tokens, the most a "
            "float holds; use fewer tokens"
        ) from None
    rng = make_rng(params.seed)
    singles, active, frames = _walk_states(params, rng)
    import numpy as np

    cap = cfg.max_successes
    tally = np.zeros(cap + 1, dtype=np.int64)
    if params.mode is DetectionMode.BINARY:
        # the grant takes at most min(singles, cap) singles
        columns = min(cap, int(singles.max())) + 1
        step = max(1, _GRANT_CELLS // columns)
        for start in range(0, len(frames), step):
            part = slice(start, start + step)
            law = _grant_law(singles[part], active[part], cap, columns)
            tally[:columns] += rng.multinomial(frames[part], law).sum(axis=0)
    else:
        np.add.at(tally, np.minimum(singles, cap), frames)
    return EmpiricalReport(params=params, counts=tally)


def _walk_states(
    params: SimParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk ``params.iterations`` fresh frames through the users together,
    drawing from ``rng``, and return three int64 vectors over the distinct
    occupied states: the singles, the active tokens and the frames (one or
    more) that end there.

    In one frame a user's uniform choice lands on one of the s singles
    (the state becomes (s - 1, a)), on one of the M - a empty tokens
    (s + 1, a + 1) or on a collision (no change).  Frames are
    independent, so the n frames of a state split among the three by
    one multinomial draw, and equal states then merge.  The walk stops
    early once every frame is in (0, M), where every token collided.
    A state is keyed by a * (w + 1) + s with w = min(M, T), never by M.
    """
    import numpy as np

    config, frames = params.config, params.iterations
    tokens = float(config.tokens)
    width = min(config.tokens, config.users) + 1
    absorbed = config.tokens * width if config.tokens < width else -1
    keys = np.zeros(1, dtype=np.int64)
    counts = np.array([frames], dtype=np.int64)
    for _ in range(config.users):
        if len(keys) == 1 and keys[0] == absorbed:
            break
        active = keys // width
        # the last column, a collision, takes what the other two leave
        law = np.zeros((len(keys), 3))
        np.divide(keys - active * width, tokens, out=law[:, 0])
        np.divide(tokens - active, tokens, out=law[:, 1])
        moved = rng.multinomial(counts, law).T.ravel()
        keys = np.concatenate((keys - 1, keys + (width + 1), keys))
        # drop empty moves (a state without a single loses none, and a
        # state without an empty token fills none), then merge equal states
        held = np.flatnonzero(moved)
        keys, moved = keys[held], moved[held]
        order = np.argsort(keys, kind="stable")
        keys, moved = keys[order], moved[order]
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        keys, counts = keys[starts], np.add.reduceat(moved, starts)
    active = keys // width
    return keys - active * width, active, counts


def _grant_law(
    singles: np.ndarray, active: np.ndarray, cap: int, width: int
) -> np.ndarray:
    """Row i: the law of the singles among min(a, cap) tokens granted
    uniformly from a = ``active[i]`` active tokens, s = ``singles[i]``
    of them singles, over 0 .. width - 1 singles.

    The weight of d singles is C(s, d) C(a - s, k - d) with k = min(a,
    cap).  A row sums the logs of the exact ratios of consecutive
    weights and is scaled by its largest weight before it is
    normalised, so no row overflows however large a is.
    """
    import numpy as np

    s = singles[:, None]
    bad = active[:, None] - s
    k = np.minimum(active, cap)[:, None]
    d = np.arange(width)
    support = (d >= k - bad) & (d <= np.minimum(s, k))
    # w(d + 1) / w(d) = (s - d)(k - d) / ((d + 1)(a - s - k + d + 1))
    # between two points of the support, 1 elsewhere
    rise = np.ones((len(singles), width))
    step = support[:, :-1] & support[:, 1:]
    e = d[:-1]
    np.divide(
        (s - e) * (k - e), (e + 1) * (bad - k + e + 1), out=rise[:, 1:], where=step
    )
    log_weight = np.cumsum(np.log(rise), axis=1)
    log_weight[~support] = -np.inf
    weight = np.exp(log_weight - log_weight.max(axis=1, keepdims=True))
    return weight / weight.sum(axis=1, keepdims=True)


class ComparisonRecord(Record):
    """Empirical-vs-exact distance for one simulation run."""

    params: SimParams
    tv_distance: Fraction
    max_abs_mass_error: Fraction

    def to_json_dict(self) -> dict:
        return {
            **self.params.to_json_dict(),
            "tv_distance": float(self.tv_distance),
            "max_abs_mass_error": float(self.max_abs_mass_error),
        }

    def to_csv(self) -> str:
        p = self.params
        return (
            "M,K,T,mode,seed,iterations,tv_distance,max_abs_mass_error\n"
            f"{p.config.tokens},{p.config.data_slots},{p.config.users},"
            f"{p.mode.value},{p.seed},{p.iterations},"
            f"{csv_float(self.tv_distance)},{csv_float(self.max_abs_mass_error)}\n"
        )


def compare_to_exact(report: EmpiricalReport, exact: SuccessPmf) -> ComparisonRecord:
    """Total variation distance and worst per-mass gap between a
    report's empirical pmf and ``exact``, the law of its configuration,
    which the caller builds once, before drawing any frame.

    Ternary reports and a law of another configuration are refused.
    Each gap is an integer over the product of the two denominators, so
    each statistic is one exact fraction in [0, 1].
    """
    if report.params.mode is not DetectionMode.BINARY:
        raise ValueError("no exact reference for ternary detection")
    if exact.config != report.params.config:
        raise ValueError(
            f"the exact law is of {exact.config}, the report of {report.params.config}"
        )
    empirical = report.pmf_hat
    d_exact, d_sim = exact.denominator, empirical.denominator
    gaps = [
        abs(e * d_sim - c * d_exact)
        for e, c in zip(exact.counts, empirical.counts, strict=True)
    ]
    return ComparisonRecord(
        params=report.params,
        tv_distance=Fraction(sum(gaps), 2 * d_exact * d_sim),
        max_abs_mass_error=Fraction(max(gaps), d_exact * d_sim),
    )
