"""Independent brute-force oracles.

Nothing in here touches the library's analytic machinery: expected values
come from literal enumeration (all token assignments, all slot subsets,
all set partitions), so agreement with the closed forms is meaningful.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, perm


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
