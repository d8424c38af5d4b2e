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
independent frames of one seeded stream; identical parameters give a
bit-identical report.  Empirical masses are exact multiples of 1/N.
Both tallies read only each frame's singles and active tokens, which a
block of frames counts by a walk over the users: per frame it keeps the
two counts, and each user's choice moves them, so a block costs a
vector step per user and nothing per token.  :func:`_layout` sizes a
block to about :data:`_BLOCK_BYTES` of per-frame vectors and as many of
user choices, drawn as int16 when the token indices fit, so a run holds
one cache-sized block whatever N is.
A uniform grant of min(a, data_slots) of the a active tokens delivers a
hypergeometric number of the frame's singles, so the binary tally draws
that count directly; :func:`simulate_frame` draws the granted tokens
themselves.

numpy is imported at the first draw, inside :func:`make_rng`,
:func:`simulate_frame` and :func:`estimate_pmf`, so the exact
subcommands, ``--help`` and refusals never load it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import index as as_int
from typing import TYPE_CHECKING, NamedTuple

from .analysis import (
    CSV_HEADER,
    PmfKind,
    Record,
    SuccessPmf,
    SystemConfig,
    csv_fields,
    csv_float,
    json_rational,
    success_pmf,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RNG_ALGORITHM",
    "DetectionMode",
    "SimParams",
    "FrameTrace",
    "EmpiricalReport",
    "ComparisonRecord",
    "make_rng",
    "simulate_frame",
    "estimate_pmf",
    "compare_to_exact",
]

#: Generator behind every simulation; recorded in each report so the
#: numbers can be regenerated by any implementation of this algorithm.
RNG_ALGORITHM = "numpy-pcg64/v4"

#: Working set of a block inside :func:`estimate_pmf`: its per-frame
#: counters and grant vectors fill about this many bytes, and its users'
#: choices are drawn in chunks of about as many, each freed before the
#: next.  With 2 MiB of each, a benchmark op's peak RSS was 2 MB higher
#: than with 1 MiB of each, at the same speed (``BENCH_13.json``).
_BLOCK_BYTES = 1 << 20

#: Token counts up to this have every token index fit in an int16, so
#: user choices are drawn 2 bytes wide; larger token counts draw int64.
#: The walk's counters are int16 while min(tokens, users) is below it.
_NARROW_TOKENS = 1 << 15

#: The walk costs about 5 ns per user-frame in full blocks, and each
#: user's step through a block about 6 us of numpy calls more, the cost
#: of ``_STEP_FRAMES`` user-frames (2-core Xeon: 5.1-5.3 ns at M=8
#: T=2000 and M=128 T=20000, 6.9 us at M=8 T=20000 with 100 frames).
#: :func:`estimate_pmf` walks at most ``_WALK_LIMIT``, about half an hour.
_STEP_FRAMES = 1200
_WALK_LIMIT = 360_000_000_000


class _Layout(NamedTuple):
    """How :func:`estimate_pmf` cuts a run into blocks and draws it."""

    frames: int  # frames per block
    rows: int  # users per drawn chunk of choices
    choice: int  # bytes per drawn token choice
    counter: int  # bytes per walk counter


def _layout(config: SystemConfig) -> _Layout:
    """The block layout, and with it the stream layout: a function of
    the tokens and users alone.  A block's per-frame vectors fill
    :data:`_BLOCK_BYTES`: two counters, their difference and minimum,
    two masks and the int64 inputs and output of the hypergeometric
    draw.  A chunk of users' choices fills about as many bytes."""
    choice = 2 if config.tokens <= _NARROW_TOKENS else 8
    counter = 2 if min(config.tokens, config.users) < _NARROW_TOKENS else 8
    frames = _BLOCK_BYTES // (4 * counter + 2 + 32)
    return _Layout(frames, max(1, _BLOCK_BYTES // (choice * frames)), choice, counter)


def _block_bytes(config: SystemConfig, frames: int) -> int:
    """Estimated working set of a block of ``frames`` frames in
    :func:`estimate_pmf`: one chunk of users' choices plus the per-frame
    vectors that :func:`_layout` budgets.  It bounds the peak that
    tracemalloc reports, apart from numpy's fixed-size cast buffers."""
    layout = _layout(config)
    rows = min(config.users, layout.rows)
    return frames * (rows * layout.choice + 4 * layout.counter + 2 + 32)


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
        object.__setattr__(self, "iterations", as_int(self.iterations))
        object.__setattr__(self, "seed", as_int(self.seed))
        object.__setattr__(self, "mode", DetectionMode(self.mode))
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
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


class FrameTrace(Record):
    """One simulated frame: how many users picked each token and which
    tokens got a slot; the winners are the granted single-user tokens."""

    config: SystemConfig
    mode: DetectionMode
    counts: tuple[int, ...]
    selected: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.config.tokens:
            raise ValueError("one count per token")
        if sum(self.counts) != self.config.users:
            raise ValueError("counts must sum to the number of users")
        eligible = [
            tok
            for tok, n in enumerate(self.counts)
            if (n >= 1 if self.mode is DetectionMode.BINARY else n == 1)
        ]
        if len(self.selected) != min(len(eligible), self.config.data_slots):
            raise ValueError("selection must fill min(eligible, data_slots) slots")
        if not set(self.selected) <= set(eligible):
            raise ValueError("selected tokens must be eligible")

    @property
    def successes(self) -> int:
        """Granted tokens that exactly one user picked."""
        return sum(1 for tok in self.selected if self.counts[tok] == 1)


def simulate_frame(
    config: SystemConfig, mode: DetectionMode, rng: np.random.Generator
) -> FrameTrace:
    """Run one frame and return its full trace.

    The granted subset is min(eligible, data_slots) eligible tokens
    drawn uniformly without replacement.
    """
    import numpy as np

    mode = DetectionMode(mode)
    choices = rng.integers(0, config.tokens, size=config.users)
    counts = np.bincount(choices, minlength=config.tokens)

    if mode is DetectionMode.BINARY:
        eligible = np.flatnonzero(counts)
    else:
        eligible = np.flatnonzero(counts == 1)
    grant = min(len(eligible), config.data_slots)
    selected = rng.choice(eligible, size=grant, replace=False)

    return FrameTrace(
        config=config,
        mode=mode,
        counts=tuple(int(n) for n in counts),
        selected=tuple(sorted(int(tok) for tok in selected)),
    )


class EmpiricalReport(Record):
    """Tallied outcome of a simulation run.

    ``counts[d]`` is the raw number of frames with d successes; the
    empirical pmf, the mean and the metrics on it are read off the
    counts as exact fractions of the iterations.  The rate is None when
    there are no users to succeed.
    """

    params: SimParams
    counts: tuple[int, ...]

    @property
    def pmf_hat(self) -> SuccessPmf:
        n = self.params.iterations
        mass = tuple(Fraction(c, n) for c in self.counts)
        return SuccessPmf(config=self.params.config, mass=mass, kind=PmfKind.EMPIRICAL)

    @property
    def mean_successes(self) -> Fraction:
        total = sum(d * c for d, c in enumerate(self.counts))
        return Fraction(total, self.params.iterations)

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

    Frames are drawn in blocks of :func:`_layout`, and a block counts
    each frame's singles and active tokens by a walk over the users: in
    each frame a user's uniform choice u of a token lands on an empty
    one (u >= active: both counts grow), turns a single into a collision
    (u < singles: singles shrink) or joins a collision.  Tokens are
    exchangeable, so numbering the singles first, then the collisions,
    then the empty tokens gives the law of a literal choice.

    A block draws its users' choices in chunks of the layout's rows,
    then, in binary mode only, one hypergeometric success count per
    frame.  In ternary mode the success count is min(singles,
    data_slots) whichever singles are granted, so no grant draws are
    consumed.  The layout depends only on the tokens and users, never on
    N.  Raises ``ValueError`` before drawing when there are more than
    2**63 tokens, the most an int64 draw can index, or when the walk's
    user-frames, plus :data:`_STEP_FRAMES` per user and block, pass
    :data:`_WALK_LIMIT`.
    """
    cfg = params.config
    if cfg.tokens > 2**63:
        raise ValueError(
            f"simulating {cfg.tokens} tokens is over the limit of 2**63 tokens, "
            "the most a 64-bit draw can index; use fewer tokens"
        )
    layout = _layout(cfg)
    blocks = -(-params.iterations // layout.frames)
    price = cfg.users * (params.iterations + blocks * _STEP_FRAMES)
    if price > _WALK_LIMIT:
        raise ValueError(
            f"simulating {params.iterations} frames of {cfg.users} users walks "
            f"{price:.3g} user-frames, over the limit of {_WALK_LIMIT:.3g}; "
            "use fewer users or frames"
        )
    import numpy as np

    rng = make_rng(params.seed)
    tally = np.zeros(cfg.max_successes + 1, dtype=np.int64)
    for start in range(0, params.iterations, layout.frames):
        singles, active = _walk_occupancy(
            rng, cfg, min(layout.frames, params.iterations - start)
        )
        # active <= min(tokens, users), so capping the grant at
        # max_successes rather than data_slots changes nothing and fits
        # the counters' dtype
        if params.mode is DetectionMode.BINARY:
            successes = rng.hypergeometric(
                singles, active - singles, np.minimum(active, cfg.max_successes)
            )
        else:
            successes = np.minimum(singles, cfg.max_successes)
        tally += np.bincount(successes, minlength=len(tally))
        # free this block's vectors before the next block draws
        del singles, active, successes

    return EmpiricalReport(params=params, counts=tuple(int(n) for n in tally))


def _walk_occupancy(
    rng: np.random.Generator, config: SystemConfig, frames: int
) -> tuple[np.ndarray, np.ndarray]:
    """(singles, active tokens) in each of ``frames`` fresh frames, by
    the walk of :func:`estimate_pmf`, one vector step per user."""
    import numpy as np

    layout = _layout(config)
    singles = np.zeros(frames, dtype=f"i{layout.counter}")
    active = np.zeros_like(singles)
    lands = np.empty(frames, dtype=bool)
    collides = np.empty(frames, dtype=bool)
    for start in range(0, config.users, layout.rows):
        chunk = rng.integers(
            0, config.tokens, size=(min(layout.rows, config.users - start), frames),
            dtype=f"i{layout.choice}",
        )
        for u in chunk:
            np.greater_equal(u, active, out=lands)
            np.less(u, singles, out=collides)
            active += lands
            singles += lands
            singles -= collides
        # free the chunk (u views it) before the next one is drawn
        del chunk, u
    return singles, active


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


def compare_to_exact(report: EmpiricalReport) -> ComparisonRecord:
    """Total variation distance and worst per-mass gap between an
    empirical pmf and the exact one.

    Only binary mode has a closed-form reference; ternary reports are
    rejected.  Both statistics are exact rationals in [0, 1].
    """
    if report.params.mode is not DetectionMode.BINARY:
        raise ValueError("no exact reference for ternary detection")
    return _compare(report, success_pmf(report.params.config))


def _compare(report: EmpiricalReport, exact: SuccessPmf) -> ComparisonRecord:
    """:func:`compare_to_exact` against an exact pmf the caller built
    (and whose cost guard it settled) before simulating."""
    gaps = [abs(a - b) for a, b in zip(report.pmf_hat.mass, exact.mass)]
    return ComparisonRecord(
        params=report.params,
        tv_distance=sum(gaps) / 2,
        max_abs_mass_error=max(gaps),
    )
