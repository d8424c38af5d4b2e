"""Independent output checks for every benchmark operation.

The expected number of successes per frame has a one-dimensional form
(by symmetry over users, conditioning on one user being alone on its
token):

    E[S] = T (1 - 1/M)^(T-1) * sum_a P(A' = a) * min(a + 1, K) / (a + 1)

where A' is the number of occupied tokens when the other T - 1 users
spread over the other M - 1 tokens,

    P(A' = a) = C(M-1, a) a! S(T-1, a) / (M-1)^(T-1),

and S are the ordinary Stirling numbers of the second kind.  Collecting
the powers gives the integer form used here,

    E[S] = T / M^(T-1) * sum_a (M-1)_a S(T-1, a) min(a + 1, K) / (a + 1),

which also covers M = 1 (E[S] = [T = 1]).  Nothing here calls the
package's analytic code; simulated outputs are checked against reference
laws built from the package's exact path (see :func:`binary_law` and
:func:`ternary_law`), which are themselves checked against this oracle.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

#: probability that a correct simulation fails its TV check
TV_FALSE_ALARM = 1e-9


def stirling2_rows(n_max: int, width: int) -> list[list[int]]:
    """rows[n][a] = S(n, a) for n <= n_max and a <= width."""
    rows = [[1] + [0] * width]
    for _ in range(n_max):
        prev = rows[-1]
        rows.append([0] + [a * prev[a] + prev[a - 1] for a in range(1, width + 1)])
    return rows


class Occupancy:
    """The law of A' for one (M, T), reusable across every K."""

    def __init__(self, tokens: int, users: int, row: list[int] | None = None):
        self.tokens, self.users = tokens, users
        if users == 0:
            self.weights = []
            return
        width = min(tokens - 1, users - 1)
        if row is None:
            row = stirling2_rows(users - 1, width)[users - 1]
        self.weights = [math.perm(tokens - 1, a) * row[a] for a in range(width + 1)]
        self.scale = math.lcm(*range(1, width + 2))

    def expected_successes(self, slots: int) -> Fraction:
        if self.users == 0:
            return Fraction(0)
        total = sum(
            w * min(a + 1, slots) * (self.scale // (a + 1))
            for a, w in enumerate(self.weights)
        )
        return Fraction(
            self.users * total, self.scale * self.tokens ** (self.users - 1)
        )


def expected_successes(tokens: int, slots: int, users: int) -> Fraction:
    return Occupancy(tokens, users).expected_successes(slots)


def users_sweep(tokens: int, slots: int, lo: int, hi: int) -> dict[int, Fraction]:
    """E[S] for users lo..hi, sharing one Stirling strip."""
    rows = stirling2_rows(max(hi - 1, 0), max(min(tokens, hi) - 1, 0))
    return {
        t: Occupancy(tokens, t, rows[t - 1] if t else None).expected_successes(slots)
        for t in range(lo, hi + 1)
    }


class CheckError(Exception):
    """An operation's output disagrees with the oracle."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _check_metrics_row(row: dict, m: int, k: int, t: int, expected: Fraction) -> None:
    _expect((row["M"], row["K"], row["T"]) == (m, k, t), f"row is for {row}")
    got = Fraction(row["expected_successes"])
    _expect(got == expected, f"E[S]({m},{k},{t}) = {float(got):.15g}, "
            f"oracle {float(expected):.15g}")
    _expect(Fraction(row["success_rate"]) == got / t, "success_rate != E[S]/T")
    _expect(Fraction(row["efficiency"]) == got / (k + 1), "efficiency != E[S]/(K+1)")


def check_pmf(p: dict, doc: dict) -> None:
    _expect(doc["kind"] == "exact", f"kind {doc['kind']}")
    check_exact_mass([Fraction(x) for x in doc["mass"]], p["M"], p["K"], p["T"])


def check_exact_mass(mass: list[Fraction], m: int, k: int, t: int) -> None:
    _expect(len(mass) == min(m, k, t) + 1, f"{len(mass)} masses")
    _expect(all(x >= 0 for x in mass), "negative mass")
    _expect(sum(mass) == 1, "masses do not sum to exactly 1")
    mean = sum(d * x for d, x in enumerate(mass))
    _expect(mean == expected_successes(m, k, t), "pmf mean differs from the oracle")


def check_metrics(p: dict, doc: dict) -> None:
    _check_metrics_row(doc, p["M"], p["K"], p["T"], expected_successes(p["M"], p["K"], p["T"]))


def check_sweep(p: dict, doc: dict) -> None:
    m, lo, hi = p["M"], p["lo"], p["hi"]
    _expect(doc["values"] == list(range(lo, hi + 1)), "sweep values")
    _expect(len(doc["rows"]) == hi - lo + 1, "one row per value")
    if p["axis"] == "users":
        oracle = users_sweep(m, p["K"], lo, hi)
        for t, row in zip(doc["values"], doc["rows"]):
            _check_metrics_row(row, m, p["K"], t, oracle[t])
    else:
        occ = Occupancy(m, p["T"])
        for k, row in zip(doc["values"], doc["rows"]):
            _check_metrics_row(row, m, k, p["T"], occ.expected_successes(k))


def best_data_slots(tokens: int, users: int, k_max: int) -> tuple[int, Fraction]:
    """Oracle argmax of E[S](K) / (K + 1) over K = 1..k_max; ties to the smaller K."""
    occ = Occupancy(tokens, users)
    best = (1, occ.expected_successes(1) / 2)
    for k in range(2, k_max + 1):
        value = occ.expected_successes(k) / (k + 1)
        if value > best[1]:
            best = (k, value)
    return best


def check_optimize(p: dict, doc: dict) -> None:
    k_star, value = best_data_slots(p["M"], p["T"], p["k_max"])
    _expect(doc["K_star"] == k_star, f"K_star {doc['K_star']}, oracle {k_star}")
    _expect(Fraction(doc["efficiency"]) == value, "K_star efficiency differs")


def tv_bound(law: list[Fraction], frames: int) -> float:
    """TV distance a correct N-frame estimate stays under, but with
    probability TV_FALSE_ALARM: the mean bound sum_d sqrt(p_d (1 - p_d) / N) / 2
    plus the McDiarmid deviation sqrt(ln(1 / alarm) / (2 N)), since one frame
    moves the TV distance by at most 1 / N."""
    mean = sum(math.sqrt(float(p) * (1 - float(p)) / frames) for p in law) / 2
    return mean + math.sqrt(math.log(1 / TV_FALSE_ALARM) / (2 * frames))


def binary_law(tokens: int, slots: int, users: int) -> list[Fraction]:
    """Reference law for binary detection: the package's exact pmf, accepted
    only after it passes the oracle check."""
    from accessframe.analysis import SystemConfig, success_pmf

    mass = list(success_pmf(SystemConfig(tokens, slots, users)).mass)
    check_exact_mass(mass, tokens, slots, users)
    return mass


def ternary_law(tokens: int, slots: int, users: int) -> list[Fraction]:
    """P(S = d) = sum of P(s, c) over splits with min(s, K) = d: ternary
    detection grants slots to singles only."""
    from accessframe.analysis import SystemConfig, outcome_probability

    cfg = SystemConfig(tokens, slots, users)
    law = [Fraction(0)] * (min(tokens, slots, users) + 1)
    top = min(tokens, users)
    for s in range(top + 1):
        for c in range(top - s + 1):
            if s + 2 * c <= users:
                law[min(s, slots)] += outcome_probability(cfg, s, c)
    _expect(sum(law) == 1, "ternary reference law does not sum to 1")
    return law


class SimulationChecker:
    """Checks simulate/compare outputs; caches reference laws per config."""

    def __init__(self) -> None:
        self._laws: dict[tuple, list[Fraction]] = {}
        self.tv_max = 0.0

    def law(self, mode: str, m: int, k: int, t: int) -> list[Fraction]:
        key = (mode, m, k, t)
        if key not in self._laws:
            build = binary_law if mode == "binary" else ternary_law
            try:
                self._laws[key] = build(m, k, t)
            except CheckError as exc:
                raise CheckError(f"{mode} reference law: {exc}") from exc
        return self._laws[key]

    def check(self, kind: str, p: dict, doc: dict) -> None:
        m, k, t, n = p["M"], p["K"], p["T"], p["frames"]
        _expect((doc["M"], doc["K"], doc["T"]) == (m, k, t), "config echo")
        _expect(doc["iterations"] == n and doc["seed"] == p["seed"], "params echo")
        _expect(doc["mode"] == p["mode"], "mode echo")
        law = self.law(p["mode"], m, k, t)
        if kind == "simulate":
            counts = doc["counts"]
            _expect(len(counts) == len(law), f"{len(counts)} counts")
            _expect(sum(counts) == n, "counts do not sum to iterations")
            mass = [Fraction(c, n) for c in counts]
            _expect([Fraction(x) for x in doc["mass"]] == mass, "mass != counts/N")
            mean = Fraction(sum(d * c for d, c in enumerate(counts)), n)
            _expect(Fraction(doc["mean_successes"]) == mean, "mean_successes")
            tv = float(sum(abs(a - b) for a, b in zip(mass, law)) / 2)
        else:
            tv = doc["tv_distance"]
            # no single mass can be off by more than the TV distance
            _expect(0 <= doc["max_abs_mass_error"] <= tv, "max_abs_mass_error > TV")
        self.tv_max = max(self.tv_max, tv)
        bound = tv_bound(law, n)
        _expect(tv <= bound, f"TV {tv:.5f} over bound {bound:.5f}")


def check(kind: str, params: dict, stdout: bytes, sims: SimulationChecker) -> None:
    """Raise CheckError (or a parse error) unless ``stdout`` is right."""
    doc = json.loads(stdout)
    if kind in ("simulate", "compare"):
        sims.check(kind, params, doc)
    else:
        {
            "pmf": check_pmf,
            "metrics": check_metrics,
            "sweep": check_sweep,
            "optimize-k": check_optimize,
        }[kind](params, doc)
