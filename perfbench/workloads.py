"""Seeded operation streams for the three benchmark workloads.

Each workload turns a seed into an endless stream of CLI operations.  The
stream is cut into blocks; every block visits each stratum of the
workload's input space once.  The strata come in a fixed order in which
every few consecutive operations already cover the range evenly
(centre-out for one axis, a Latin order for two).  Inside a stratum the
sizes are low-discrepancy draws from a seeded start (:class:`Draws`), so a
stratum's first few visits already spread over its range.  A run executes
a prefix of the stream that ends wherever its time runs out; both choices
keep the spread of sizes, and with it the median operation time and the
peak memory, the same from seed to seed.  The end-to-end run also stops
only at a block boundary, so its sample always holds whole blocks.

The program only ever sees the generated command-line arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what it should produce.

    ``work`` counts exact frame configurations evaluated (``pmf``,
    ``metrics``, one per ``sweep`` row, one per ``optimize-k`` candidate)
    or simulated frames (``simulate``, ``compare``).
    """

    kind: str
    params: dict
    work: int

    @property
    def argv(self) -> list[str]:
        p = self.params
        flags = {
            "tokens": p["M"],
            "slots": p.get("K"),
            "users": p.get("T"),
            "axis": p.get("axis"),
            "range": f"{p['lo']}:{p['hi']}" if "lo" in p else None,
            "k-max": p.get("k_max"),
            "mode": p.get("mode") if self.kind == "simulate" else None,
            "seed": p.get("seed"),
            "iterations": p.get("frames"),
        }
        argv = [self.kind]
        for name, value in flags.items():
            if value is not None:
                argv += [f"--{name}", str(value)]
        return argv + ["--format", "json"]

    @property
    def configs(self) -> list[tuple[int, int, int]]:
        """Every exact (M, K, T) the operation evaluates."""
        p = self.params
        if self.kind in ("pmf", "metrics", "compare"):
            return [(p["M"], p["K"], p["T"])]
        if self.kind == "optimize-k":
            return [(p["M"], k, p["T"]) for k in range(1, p["k_max"] + 1)]
        if self.kind == "sweep" and p["axis"] == "users":
            return [(p["M"], p["K"], t) for t in range(p["lo"], p["hi"] + 1)]
        if self.kind == "sweep":
            return [(p["M"], k, p["T"]) for k in range(p["lo"], p["hi"] + 1)]
        return []

    def describe(self) -> str:
        return " ".join(self.argv[:-2])


#: fractional parts of sqrt(2), sqrt(3), sqrt(5), sqrt(7): one irrational
#: step per drawn parameter, so parameters do not move in lockstep
_STEPS = (0.41421356237, 0.73205080757, 0.2360679775, 0.64575131106)


class Draws:
    """Sizes for one stratum: on visit i the k-th parameter drawn is
    frac(start_k + i * step_k), with the starts taken from the seed."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.starts = [rng.random() for _ in _STEPS]
        self.visit = 0
        self._next = 0

    def _unit(self) -> float:
        k = self._next
        self._next += 1
        return (self.starts[k] + self.visit * _STEPS[k]) % 1.0

    def randint(self, lo: int, hi: int) -> int:
        return lo + int(self._unit() * (hi - lo + 1))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + self._unit() * (hi - lo)

    def done(self) -> None:
        self.visit += 1
        self._next = 0


@dataclass(frozen=True)
class Workload:
    """A named operation stream; RATIONALE.md says why each one exists."""

    name: str
    work_unit: str  # "configs" or "frames"
    float_probe: bool  # traced run also evaluates success_pmf_float
    strata: list
    draw: Callable[[Draws, object], Op]

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        draws = [Draws(rng) for _ in self.strata]
        while True:
            for stratum, d in zip(self.strata, draws):
                yield self.draw(d, stratum)
                d.done()

    def op_list(self, seed: int, count: int) -> list[Op]:
        return list(islice(self.ops(seed), count))


# --- deep-pmf: exact pmf at small M, large T -------------------------------

DEEP_T = (1000, 1600)
DEEP_BINS = 6
_WIDTH = (DEEP_T[1] - DEEP_T[0]) // DEEP_BINS


def _centre_out(n: int) -> list[int]:
    """0..n-1 ordered from the middle outwards: n//2 - 1, n//2, n//2 - 2, ..."""
    order = []
    for step in range(n // 2):
        order += [n // 2 - 1 - step, n // 2 + step]
    return order + ([n - 1] if n % 2 else [])


DEEP_STRATA = [
    (DEEP_T[0] + i * _WIDTH, DEEP_T[0] + (i + 1) * _WIDTH - (i < DEEP_BINS - 1))
    for i in _centre_out(DEEP_BINS)
]


def _draw_deep(d: Draws, t_range) -> Op:
    t = d.randint(*t_range)
    m = d.randint(2, 16)
    return Op("pmf", {"M": m, "K": d.randint(1, m), "T": t}, work=1)


# --- design-scan: whole K and user scans near load T ~ M -------------------

SCAN_KINDS = ("optimize-k", "sweep-users", "sweep-data-slots", "metrics")
SCAN_M_BINS = ((32, 55), (56, 79), (80, 103), (104, 128))


def _latin(rows: tuple, cols: tuple) -> list[tuple]:
    """Every (row, col) pair once; each run of len(rows) consecutive pairs
    covers every row, and every col when the two have the same length."""
    n = len(rows)
    return [(rows[i % n], cols[(i + i // n) % len(cols)]) for i in range(n * len(cols))]



def _draw_scan(d: Draws, stratum) -> Op:
    kind, m_range = stratum
    m = d.randint(*m_range)
    t = min(256, max(64, round(m * d.uniform(0.75, 2.0))))
    n = d.randint(8, 24)
    k = d.randint(max(1, m // 8), m // 2)
    if kind == "optimize-k":
        return Op(kind, {"M": m, "T": t, "k_max": n}, work=n)
    if kind == "sweep-users":
        lo = min(max(64, t - n // 2), 256 - n + 1)
        params = {"M": m, "K": k, "axis": "users", "lo": lo, "hi": lo + n - 1}
        return Op("sweep", params, work=n)
    if kind == "sweep-data-slots":
        params = {"M": m, "T": t, "axis": "data-slots", "lo": 1, "hi": n}
        return Op("sweep", params, work=n)
    return Op("metrics", {"M": m, "K": k, "T": t}, work=1)


# --- monte-carlo: simulate (both modes) and compare at three token counts --

MC_KINDS = ("binary", "ternary", "compare")
MC_TOKENS = (8, 64, 128)
#: frames per operation, in thousands, by token count: many frames where a
#: frame is cheap, fewer where it is large
MC_FRAMES = {8: (500, 1000), 64: (200, 300), 128: (200, 250)}


def _draw_mc(d: Draws, stratum) -> Op:
    kind, m = stratum
    t = round(m * d.uniform(0.75, 1.25))
    params = {
        "M": m,
        "K": d.randint(max(1, m // 8), m // 2),
        "T": t,
        "frames": 1000 * d.randint(*MC_FRAMES[m]),
        "seed": d.rng.getrandbits(63),
        "mode": "binary" if kind == "compare" else kind,
    }
    return Op("compare" if kind == "compare" else "simulate", params, params["frames"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="deep-pmf",
            work_unit="configs",
            float_probe=True,
            strata=DEEP_STRATA,
            draw=_draw_deep,
        ),
        Workload(
            name="design-scan",
            work_unit="configs",
            float_probe=True,
            strata=_latin(SCAN_KINDS, SCAN_M_BINS),
            draw=_draw_scan,
        ),
        Workload(
            name="monte-carlo",
            work_unit="frames",
            float_probe=False,
            strata=_latin(MC_KINDS, MC_TOKENS),
            draw=_draw_mc,
        ),
    )
}
