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
Frames are drawn in blocks of about :data:`_BLOCK_BYTES` of working set,
with user choices drawn as int16 when the token indices fit, so a run
holds one cache-sized block whatever N is.
A uniform grant of min(a, data_slots) of the a active tokens delivers a
hypergeometric number of the frame's singles, so the binary tally draws
that count directly; :func:`simulate_frame` draws the granted tokens
themselves.

numpy is imported at the first draw, inside :func:`make_rng`,
:func:`simulate_frame` and :func:`estimate_pmf`, so the exact
subcommands, ``--help`` and refusals never load it.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from operator import index as as_int
from typing import TYPE_CHECKING

from .analysis import (
    CSV_HEADER,
    PmfKind,
    Record,
    SuccessPmf,
    SystemConfig,
    csv_fields,
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
RNG_ALGORITHM = "numpy-pcg64/v3"

#: Target working set of one block inside :func:`estimate_pmf`, in the
#: estimated bytes of :func:`_block_bytes`, so that a block stays in
#: cache.  On the benchmark's monte-carlo operations 4 MiB ran fastest,
#: 2 MiB close behind, 1, 8 and 16 MiB slower (``BENCH_10.json``).
#: Fixed, so the frames per block, and with them the stream layout,
#: depend only on the tokens and users.
_BLOCK_BYTES = 4 << 20

#: Largest working set :func:`estimate_pmf` agrees to allocate for the
#: block it actually draws, in estimated bytes.  Blocks are cut to
#: :data:`_BLOCK_BYTES`, so only a single frame can go over: about
#: 3*10^8 users, whose choices alone would hold gigabytes.
_BLOCK_BYTES_LIMIT = 3_000_000_000

#: Token counts up to this have every token index fit in an int16, so
#: user choices are drawn 2 bytes wide; larger token counts draw int64.
_NARROW_TOKENS = 1 << 15


def _block_bytes(config: SystemConfig, frames: int) -> int:
    """Estimated working set of a block of ``frames`` frames in
    :func:`estimate_pmf`: per frame, 10 bytes per user (the int16
    choices and their intp bins; 16 with int64 choices) and 40 per
    token, but no less than 80, for the intp counts, the singles and
    active-token masks and the five int64 grant vectors (singles,
    active tokens, their difference, the grant size and the successes).
    It bounds the peak that tracemalloc reports, apart from numpy's
    fixed-size cast buffers (at most two of ``np.getbufsize()`` intp
    elements).  The floor only matters at one token, where every
    outcome is certain, so the frames per block, and with them the
    stream layout, are those of a flat 40 bytes per token."""
    choice_bytes = 2 if config.tokens <= _NARROW_TOKENS else 8
    token_bytes = 40 * max(config.tokens, 2)
    return frames * ((choice_bytes + 8) * config.users + token_bytes)


def _block_frames(config: SystemConfig) -> int:
    """Frames per block: as many as fit in :data:`_BLOCK_BYTES`."""
    return max(1, _BLOCK_BYTES // _block_bytes(config, 1))


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


class FrameTrace(Record):
    """One simulated frame: who picked what, who got a slot, who won."""

    config: SystemConfig
    mode: DetectionMode
    counts: tuple[int, ...]
    selected: tuple[int, ...]
    successes: int

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
        won = sum(1 for tok in self.selected if self.counts[tok] == 1)
        if self.successes != won:
            raise ValueError("successes must count selected single-user tokens")


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
        successes=int(np.count_nonzero(counts[selected] == 1)),
    )


class EmpiricalReport(Record):
    """Tallied outcome of a simulation run.

    ``counts[d]`` is the raw number of frames with d successes; the
    empirical pmf is counts/iterations held as exact fractions.  The
    rate is None when there are no users to succeed.
    """

    params: SimParams
    pmf_hat: SuccessPmf
    counts: tuple[int, ...]
    mean_successes: Fraction
    success_rate: Fraction | None
    efficiency: Fraction

    def to_json_dict(self) -> dict:
        return {
            "M": self.params.config.tokens,
            "K": self.params.config.data_slots,
            "T": self.params.config.users,
            "mode": self.params.mode.value,
            "seed": self.params.seed,
            "iterations": self.params.iterations,
            "rng": RNG_ALGORITHM,
            "counts": list(self.counts),
            "mass": [json_rational(p) for p in self.pmf_hat.mass],
            "mean_successes": json_rational(self.mean_successes),
            "success_rate": json_rational(self.success_rate),
            "efficiency": json_rational(self.efficiency),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

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

    Frames are drawn in blocks of :func:`_block_frames` frames, a count
    fixed by the tokens and users: each block draws all its user
    choices, then (binary mode only) one hypergeometric success count
    per frame, so the stream layout depends only on the parameters.  In
    ternary mode the success count is min(singles, data_slots) whichever
    singles are granted, so no grant draws are consumed.  Raises
    ``ValueError`` before drawing when the block to draw would need more
    than :data:`_BLOCK_BYTES_LIMIT` bytes.
    """
    cfg = params.config
    frames = _block_frames(cfg)
    block_bytes = _block_bytes(cfg, min(params.iterations, frames))
    if block_bytes > _BLOCK_BYTES_LIMIT:
        raise ValueError(
            f"simulating {cfg.users} users on {cfg.tokens} tokens needs about "
            f"{block_bytes / 1e9:.3g} GB per block of frames, over the limit "
            f"of {_BLOCK_BYTES_LIMIT / 1e9:.3g} GB; use fewer users or tokens"
        )
    import numpy as np

    rng = make_rng(params.seed)
    tally = np.zeros(cfg.max_successes + 1, dtype=np.int64)
    for start in range(0, params.iterations, frames):
        block = min(frames, params.iterations - start)
        # the choices die inside _block_counts while the last block's
        # counts still sit above them on the heap, so malloc reuses their
        # memory for the next block instead of returning it to the OS
        # and faulting it back in every block
        counts = _block_counts(rng, cfg, block)
        singles = np.count_nonzero(counts == 1, axis=1)
        if params.mode is DetectionMode.BINARY:
            active = np.count_nonzero(counts, axis=1)
            successes = rng.hypergeometric(
                singles, active - singles, np.minimum(active, cfg.data_slots)
            )
        else:
            successes = np.minimum(singles, cfg.data_slots)
        tally += np.bincount(successes, minlength=len(tally))

    raw = tuple(int(n) for n in tally)
    n = params.iterations
    mass = tuple(Fraction(c, n) for c in raw)
    mean = Fraction(sum(d * c for d, c in enumerate(raw)), n)
    return EmpiricalReport(
        params=params,
        pmf_hat=SuccessPmf(config=cfg, mass=mass, kind=PmfKind.EMPIRICAL),
        counts=raw,
        mean_successes=mean,
        success_rate=mean / cfg.users if cfg.users else None,
        efficiency=mean / cfg.frame_slots,
    )


def _block_counts(
    rng: np.random.Generator, config: SystemConfig, frames: int
) -> np.ndarray:
    """Users per token in each of ``frames`` fresh frames, shape
    (frames, tokens).  The choices are freed on return."""
    import numpy as np

    narrow = config.tokens <= _NARROW_TOKENS
    choices = rng.integers(
        0, config.tokens, size=(frames, config.users),
        dtype=np.int16 if narrow else np.int64,
    )
    # widen and shift in one pass: one set of bins per frame
    offsets = np.arange(0, frames * config.tokens, config.tokens)[:, None]
    bins = np.add(choices, offsets, dtype=np.intp)
    counts = np.bincount(bins.ravel(), minlength=frames * config.tokens)
    return counts.reshape(frames, config.tokens)


class ComparisonRecord(Record):
    """Empirical-vs-exact distance for one simulation run."""

    params: SimParams
    tv_distance: Fraction
    max_abs_mass_error: Fraction

    def to_json_dict(self) -> dict:
        return {
            "M": self.params.config.tokens,
            "K": self.params.config.data_slots,
            "T": self.params.config.users,
            "mode": self.params.mode.value,
            "seed": self.params.seed,
            "iterations": self.params.iterations,
            "rng": RNG_ALGORITHM,
            "tv_distance": float(self.tv_distance),
            "max_abs_mass_error": float(self.max_abs_mass_error),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        p = self.params
        return (
            "M,K,T,mode,seed,iterations,tv_distance,max_abs_mass_error\n"
            f"{p.config.tokens},{p.config.data_slots},{p.config.users},"
            f"{p.mode.value},{p.seed},{p.iterations},"
            f"{float(self.tv_distance):.12g},{float(self.max_abs_mass_error):.12g}\n"
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
