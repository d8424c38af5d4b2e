"""Independent brute-force oracles.

Nothing in here touches the library's analytic machinery: expected values
come from literal enumeration (all token assignments, all slot subsets,
all set partitions), so agreement with the closed forms is meaningful.
:func:`literal_frame_successes` draws one frame as the protocol states
it, user by user, as an independent check of the simulator's state walk.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, perm


@lru_cache(maxsize=None)
def _active_profiles(tokens: int, users: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Multiset of active-token count profiles over all tokens**users
    assignments, with multiplicities.

    Enumerates every assignment literally; profiles only aggregate
    assignments whose active tokens carry identical (sorted) user counts,
    which leaves the slot-subset enumeration untouched.
    """
    profiles: Counter[tuple[int, ...]] = Counter()
    for assignment in product(range(tokens), repeat=users):
        counts = [0] * tokens
        for token in assignment:
            counts[token] += 1
        profiles[tuple(sorted(n for n in counts if n))] += 1
    return tuple(profiles.items())


def brute_force_pmf(tokens: int, data_slots: int, users: int) -> list[Fraction]:
    """Exact success pmf by enumerating every assignment and, for each,
    every equally likely subset of the active tokens of the drawn size."""
    tally: Counter[tuple[int, int]] = Counter()  # (successes, subset count)
    for profile, multiplicity in _active_profiles(tokens, users):
        active = len(profile)
        drawn = min(active, data_slots)
        n_subsets = comb(active, drawn)
        for subset in combinations(range(active), drawn):
            successes = sum(1 for i in subset if profile[i] == 1)
            tally[(successes, n_subsets)] += multiplicity

    mass = [Fraction(0)] * (min(tokens, data_slots, users) + 1)
    total_assignments = tokens**users
    for (successes, n_subsets), count in tally.items():
        mass[successes] += Fraction(count, total_assignments * n_subsets)
    return mass


def brute_force_ternary_pmf(tokens: int, data_slots: int, users: int) -> list[Fraction]:
    """Exact success pmf under ternary detection by enumerating every
    assignment: only single-user tokens are granted, so a frame with s
    singles has min(s, data_slots) successes whichever are granted."""
    mass = [Fraction(0)] * (min(tokens, data_slots, users) + 1)
    for profile, multiplicity in _active_profiles(tokens, users):
        mass[min(profile.count(1), data_slots)] += Fraction(
            multiplicity, tokens**users
        )
    return mass


def literal_frame_successes(
    tokens: int, data_slots: int, users: int, mode: str, rng: random.Random
) -> int:
    """Successes in one frame drawn literally: each user picks one of
    ``tokens`` uniformly, min(eligible, data_slots) eligible tokens are
    granted uniformly without replacement (every picked token in
    ``"binary"`` mode, only the single-user ones otherwise, as in
    ``"ternary"``), and a granted token succeeds iff exactly one user
    picked it."""
    picks = Counter(rng.randrange(tokens) for _ in range(users))
    eligible = [tok for tok, n in picks.items() if mode == "binary" or n == 1]
    granted = rng.sample(eligible, min(len(eligible), data_slots))
    return sum(picks[tok] == 1 for tok in granted)


@lru_cache(maxsize=None)
def min_size2_partition_counts(n: int) -> dict[int, int]:
    """Map k -> number of partitions of an n-element set into exactly k
    blocks, every block of size >= 2, by direct enumeration.

    Blocks are kept canonical (ordered by least element) so each set
    partition is visited exactly once; branches that cannot fill all
    currently deficient blocks are pruned.
    """
    counts: Counter[int] = Counter()
    sizes: list[int] = []

    def place(i: int, deficient: int) -> None:
        remaining = n - i
        if deficient > remaining:
            return
        if i == n:
            counts[len(sizes)] += 1
            return
        for b in range(len(sizes)):
            was_single = sizes[b] == 1
            sizes[b] += 1
            place(i + 1, deficient - was_single)
            sizes[b] -= 1
        if deficient + 1 <= remaining - 1:
            sizes.append(1)
            place(i + 1, deficient + 1)
            sizes.pop()

    place(0, 0)
    return dict(counts)


def hypergeometric_by_enumeration(s: int, c: int, k: int) -> dict[int, Fraction]:
    """Distribution of marked items among k drawn from s marked + c
    unmarked, by listing every k-subset of the pool."""
    pool = [True] * s + [False] * c
    outcomes: Counter[int] = Counter()
    for subset in combinations(range(s + c), k):
        outcomes[sum(1 for i in subset if pool[i])] += 1
    n_subsets = comb(s + c, k)
    return {d: Fraction(count, n_subsets) for d, count in sorted(outcomes.items())}


@lru_cache(maxsize=None)
def surjection_counts(n: int) -> dict[int, int]:
    """Map j -> number of maps from an n-element set onto a j-element set,
    by listing every map into each j-set and keeping those that hit every
    element."""
    counts = {}
    for j in range(n + 1):
        onto = sum(1 for f in product(range(j), repeat=n) if len(set(f)) == j)
        if onto:
            counts[j] = onto
    return counts


def expected_successes_by_occupancy(tokens: int, slots: int, users: int) -> Fraction:
    """Mean successes per frame from a one-dimensional occupancy sum.

    By symmetry over users, E[S] = T * P(user 1 is alone on its token and
    wins a slot).  Given that, the other T - 1 users occupy A' of the other
    M - 1 tokens, and user 1's token is among the min(A' + 1, K) granted
    ones with probability min(A' + 1, K) / (A' + 1).  With S2 the ordinary
    Stirling numbers of the second kind,

        P(A' = a) = (M-1)_a * S2(T-1, a) / (M-1)^(T-1),

    and the factor (1 - 1/M)^(T-1) for user 1 being alone cancels the
    denominator down to M^(T-1).
    """
    if users == 0:
        return Fraction(0)
    width = min(tokens - 1, users - 1)
    row = [1] + [0] * width  # S2(0, a)
    for _ in range(users - 1):
        row = [0] + [a * row[a] + row[a - 1] for a in range(1, width + 1)]
    total = sum(
        Fraction(perm(tokens - 1, a) * row[a] * min(a + 1, slots), a + 1)
        for a in range(width + 1)
    )
    return users * total / tokens ** (users - 1)


def _size2_partition_triangle(rows: int, cols: int) -> list[list[int]]:
    """S(r, k), the partitions of an r-set into k blocks of size >= 2, for
    r <= rows and k <= min(cols, r // 2), from the two-term recurrence
    S(r, k) = k * S(r - 1, k) + (r - 1) * S(r - 2, k - 1)."""
    triangle = [[1]]  # S(0, 0) = 1, the empty partition
    for r in range(1, rows + 1):
        older = triangle[r - 2] if r >= 2 else []
        newer = triangle[r - 1]
        row = [0]
        for k in range(1, min(cols, r // 2) + 1):
            stay = k * newer[k] if k < len(newer) else 0
            row.append(stay + (r - 1) * older[k - 1])
        triangle.append(row)
    return triangle


def split_sum_pmf(tokens: int, data_slots: int, users: int) -> list[Fraction]:
    """Exact success pmf from the sum over contention splits.

    A split into s singles and c collisions has
    C(M, s + c) * (T)_s * c! * S(T - s, c) assignments whose singles hold
    s given ranks among the s + c active tokens; the grant is uniform, so
    the k = min(s + c, K) granted tokens hold d singles in
    C(k, d) * C(s + c - k, s - d) of the rankings.  This is a different
    computation from the library's (binomial moments over surjection
    rows), and it reaches sizes that enumeration cannot.
    """
    m = min(tokens, users)
    triangle = _size2_partition_triangle(users, m)
    counts = [0] * (min(tokens, data_slots, users) + 1)
    for s in range(m + 1):
        row = triangle[users - s]
        for c in range(min(m - s, len(row) - 1) + 1):
            if row[c] == 0:  # no users left over for zero collisions
                continue
            split = comb(tokens, s + c) * perm(users, s) * factorial(c) * row[c]
            k = min(s + c, data_slots)
            for d in range(max(0, k - c), min(s, k) + 1):
                counts[d] += split * comb(k, d) * comb(s + c - k, s - d)
    return [Fraction(n, tokens**users) for n in counts]
