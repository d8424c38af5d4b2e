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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import index as as_int

import numpy as np

from .analysis import PmfKind, SuccessPmf, SystemConfig, success_pmf
from .metrics import CSV_HEADER, csv_fields

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
RNG_ALGORITHM = "numpy-pcg64"

#: Frames drawn per vectorized block inside :func:`estimate_pmf`.  Fixed
#: so that a given (seed, config, mode) always consumes the stream the
#: same way regardless of iteration count or available memory.
_BLOCK_FRAMES = 1 << 15

#: Largest working set :func:`estimate_pmf` agrees to allocate for one
#: block, in estimated bytes: per frame, 16 per user (the int64 choices
#: and their offset copy) and 40 per token (counts, priorities and the
#: grant's temporaries), which bounds the peak that tracemalloc reports.
#: The largest block the benchmark workloads draw (128 tokens, 160 users)
#: is estimated at 0.25 GB, 12x below the limit.
_BLOCK_BYTES_LIMIT = 3_000_000_000


class DetectionMode(str, Enum):
    """What the base station can read off the contention phase."""

    BINARY = "binary"
    TERNARY = "ternary"


def make_rng(seed: int) -> np.random.Generator:
    """The package's seeded random stream (PCG64 behind numpy's
    Generator).  All simulation draws come from here and nowhere else."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class SimParams:
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


@dataclass(frozen=True)
class FrameTrace:
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

    The granted subset is the min(eligible, data_slots) eligible tokens
    with the highest of M fresh uniform priorities; distinct priorities
    make every eligible subset of that size equally likely.
    """
    mode = DetectionMode(mode)
    choices = rng.integers(0, config.tokens, size=config.users)
    counts = np.bincount(choices, minlength=config.tokens)
    priorities = rng.random(config.tokens)

    if mode is DetectionMode.BINARY:
        eligible = np.flatnonzero(counts)
    else:
        eligible = np.flatnonzero(counts == 1)
    grant = min(len(eligible), config.data_slots)
    order = np.argsort(-priorities[eligible], kind="stable")
    selected = eligible[order[:grant]]

    return FrameTrace(
        config=config,
        mode=mode,
        counts=tuple(int(n) for n in counts),
        selected=tuple(sorted(int(tok) for tok in selected)),
        successes=int(np.count_nonzero(counts[selected] == 1)),
    )


def _binary_block_successes(
    counts: np.ndarray, priorities: np.ndarray, data_slots: int
) -> np.ndarray:
    """Per-frame success counts for a block of binary-mode frames.

    Where every active token fits in the data phase the successes are
    just the singles; otherwise count singles among the data_slots
    highest-priority active tokens (inactive tokens are ranked -inf, so
    they can never be granted while active ones remain).
    """
    singles = counts == 1
    successes = singles.sum(axis=1)
    active = counts > 0
    if data_slots >= counts.shape[1]:
        return successes
    crowded = active.sum(axis=1) > data_slots
    if crowded.any():
        ranked = np.where(active[crowded], priorities[crowded], -np.inf)
        top = np.argpartition(-ranked, data_slots - 1, axis=1)[:, :data_slots]
        successes[crowded] = np.take_along_axis(
            singles[crowded], top, axis=1
        ).sum(axis=1)
    return successes


@dataclass(frozen=True)
class EmpiricalReport:
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
            "mass": [f"{p.numerator}/{p.denominator}" for p in self.pmf_hat.mass],
            "mean_successes": f"{self.mean_successes.numerator}/{self.mean_successes.denominator}",
            "success_rate": None
            if self.success_rate is None
            else f"{self.success_rate.numerator}/{self.success_rate.denominator}",
            "efficiency": f"{self.efficiency.numerator}/{self.efficiency.denominator}",
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

    Frames are drawn in fixed-size blocks: each block draws all its
    user choices, then (binary mode only) all its grant priorities, so
    the stream layout depends only on the parameters.  In ternary mode
    the success count is min(singles, data_slots) whichever singles are
    granted, so no priorities are consumed.  Raises ``ValueError``
    before drawing when one block would need more than
    :data:`_BLOCK_BYTES_LIMIT` bytes.
    """
    cfg = params.config
    block_bytes = min(params.iterations, _BLOCK_FRAMES) * (
        16 * cfg.users + 40 * cfg.tokens
    )
    if block_bytes > _BLOCK_BYTES_LIMIT:
        raise ValueError(
            f"simulating {cfg.users} users on {cfg.tokens} tokens needs about "
            f"{block_bytes / 1e9:.3g} GB per block of frames, over the limit "
            f"of {_BLOCK_BYTES_LIMIT / 1e9:.3g} GB; use fewer users or tokens"
        )
    rng = make_rng(params.seed)
    tally = np.zeros(cfg.max_successes + 1, dtype=np.int64)

    remaining = params.iterations
    while remaining > 0:
        block = min(remaining, _BLOCK_FRAMES)
        remaining -= block
        choices = rng.integers(0, cfg.tokens, size=(block, cfg.users))
        offsets = np.arange(block) * cfg.tokens
        counts = np.bincount(
            (choices + offsets[:, None]).ravel(), minlength=block * cfg.tokens
        ).reshape(block, cfg.tokens)
        if params.mode is DetectionMode.BINARY:
            priorities = rng.random((block, cfg.tokens))
            successes = _binary_block_successes(counts, priorities, cfg.data_slots)
        else:
            successes = np.minimum((counts == 1).sum(axis=1), cfg.data_slots)
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


@dataclass(frozen=True)
class ComparisonRecord:
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
    exact = success_pmf(report.params.config)
    gaps = [abs(a - b) for a, b in zip(report.pmf_hat.mass, exact.mass)]
    return ComparisonRecord(
        params=report.params,
        tv_distance=sum(gaps) / 2,
        max_abs_mass_error=max(gaps),
    )
