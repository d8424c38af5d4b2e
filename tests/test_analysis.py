"""Exact success distributions against brute-force oracles and closed forms."""

from __future__ import annotations

import json
import random
import re
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accessframe.analysis import (
    PmfKind,
    SuccessPmf,
    SystemConfig,
    _count_text,
    json_rational,
    outcome_probability,
    parse_rational,
    success_pmf,
)
from accessframe import analysis
from accessframe.combinatorics import SURJECTION_WORK_LIMIT
from charges import charged_work
from oracles import (
    _active_profiles,
    brute_force_pmf,
    expected_successes_by_occupancy,
    hypergeometric_by_enumeration,
    split_sum_pmf,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(tokens=0, data_slots=1, users=1)
    with pytest.raises(ValueError):
        SystemConfig(tokens=1, data_slots=0, users=1)
    with pytest.raises(ValueError):
        SystemConfig(tokens=1, data_slots=1, users=-1)
    SystemConfig(tokens=1, data_slots=1, users=0)  # zero users is a real frame


def test_config_derived_quantities():
    cfg = SystemConfig(8, 4, 12)
    assert cfg.max_successes == 4
    assert cfg.frame_slots == 5
    assert SystemConfig(3, 9, 2).max_successes == 2


def test_config_accepts_integer_like_values():
    import numpy as np

    cfg = SystemConfig(np.int64(4), np.int32(2), np.int64(3))
    assert (cfg.tokens, cfg.data_slots, cfg.users) == (4, 2, 3)
    assert type(cfg.tokens) is int


def test_outcome_probabilities_two_tokens_two_users():
    cfg = SystemConfig(2, 1, 2)
    assert outcome_probability(cfg, 2, 0) == Fraction(1, 2)
    assert outcome_probability(cfg, 0, 1) == Fraction(1, 2)
    assert outcome_probability(cfg, 1, 0) == 0  # one user cannot leave the other idle


def test_outcome_probabilities_sum_to_one():
    for tokens, users in [(2, 2), (3, 4), (4, 1), (5, 0), (2, 6)]:
        cfg = SystemConfig(tokens, 1, users)
        total = sum(
            outcome_probability(cfg, s, c)
            for s in range(tokens + 1)
            for c in range(tokens - s + 1)
        )
        assert total == 1, (tokens, users)


def test_outcome_probability_matches_enumeration():
    # every split, infeasible ones included, against the frequency of its
    # (singles, collision tokens) over all tokens**users assignments
    for tokens in range(1, 6):
        for users in range(8):
            splits = Counter()
            for profile, multiplicity in _active_profiles(tokens, users):
                singles = profile.count(1)
                splits[singles, len(profile) - singles] += multiplicity
            cfg = SystemConfig(tokens, 1, users)
            for s in range(tokens + 1):
                for c in range(tokens - s + 1):
                    expected = Fraction(splits[s, c], tokens**users)
                    assert outcome_probability(cfg, s, c) == expected, (cfg, s, c)


def test_outcome_probability_rejects_impossible_splits():
    cfg = SystemConfig(2, 1, 2)
    with pytest.raises(ValueError):
        outcome_probability(cfg, 2, 1)
    with pytest.raises(ValueError):
        outcome_probability(cfg, -1, 0)
    # a split of users past float range is refused by the cost guard
    with pytest.raises(ValueError, match="fewer users or tokens"):
        outcome_probability(SystemConfig(4, 2, 10**400), 1, 2)


def test_success_pmf_two_tokens():
    assert success_pmf(SystemConfig(2, 1, 2)).mass == (Fraction(1, 2), Fraction(1, 2))
    assert success_pmf(SystemConfig(2, 2, 2)).mass == (
        Fraction(1, 2),
        Fraction(0),
        Fraction(1, 2),
    )


def test_success_pmf_lone_user_always_wins():
    assert success_pmf(SystemConfig(8, 4, 1)).mass == (Fraction(0), Fraction(1))


def test_success_pmf_no_users_is_point_mass():
    pmf = success_pmf(SystemConfig(4, 2, 0))
    assert pmf.mass == (Fraction(1),)
    assert pmf.mean() == 0


def test_success_pmf_support_and_kind():
    pmf = success_pmf(SystemConfig(8, 4, 12))
    assert len(pmf.counts) == 5  # d = 0 .. min(M, K, T)
    assert pmf.kind is PmfKind.EXACT
    assert sum(pmf.mass) == 1


def test_success_pmf_matches_brute_force():
    for tokens in range(1, 5):
        for users in range(5):
            for slots in range(1, 5):
                cfg = SystemConfig(tokens, slots, users)
                assert success_pmf(cfg).mass == tuple(
                    brute_force_pmf(tokens, slots, users)
                ), cfg


def test_success_pmf_is_split_mixture_of_hypergeometrics():
    # the optimized accumulation must equal the literal two-stage law:
    # condition on the contention split, then draw slots without replacement
    for cfg in [SystemConfig(4, 2, 5), SystemConfig(3, 3, 4), SystemConfig(8, 4, 6)]:
        direct = [Fraction(0)] * (cfg.max_successes + 1)
        for s in range(min(cfg.tokens, cfg.users) + 1):
            for c in range(min(cfg.tokens, cfg.users) - s + 1):
                p_split = outcome_probability(cfg, s, c)
                if p_split == 0:
                    continue
                k = min(s + c, cfg.data_slots)
                for d, p_grant in hypergeometric_by_enumeration(s, c, k).items():
                    direct[d] += p_split * p_grant
        assert success_pmf(cfg).mass == tuple(direct), cfg


def test_success_pmf_deep_load_is_normalized_with_occupancy_mean():
    cfg = SystemConfig(8, 4, 1600)
    pmf = success_pmf(cfg)
    assert sum(pmf.mass) == 1
    assert pmf.mean() == expected_successes_by_occupancy(8, 4, 1600)


tokens = st.integers(1, 10)
slots = st.integers(1, 10)
users = st.integers(0, 30)


@settings(deadline=None)
@given(tokens, slots, users)
def test_success_pmf_masses_sum_to_one(m, k, t):
    assert sum(success_pmf(SystemConfig(m, k, t)).mass) == 1


@settings(deadline=None)
@given(tokens, slots, users)
def test_success_pmf_masses_are_assignment_counts(m, k, t):
    # every mass counts some of the m**t equally likely assignments
    for p in success_pmf(SystemConfig(m, k, t)).mass:
        assert (p * m**t).denominator == 1


@settings(deadline=None)
@given(tokens, slots, users)
def test_success_pmf_mean_matches_occupancy_sum(m, k, t):
    mean = success_pmf(SystemConfig(m, k, t)).mean()
    assert mean == expected_successes_by_occupancy(m, k, t)


@settings(deadline=None)
@given(tokens, st.integers(0, 10), users)
def test_success_pmf_is_constant_once_slots_cover_active_tokens(m, extra, t):
    # at most min(m, t) tokens are active, so more slots change nothing
    k = max(1, min(m, t))
    wide = success_pmf(SystemConfig(m, k + extra, t))
    assert wide.mass == success_pmf(SystemConfig(m, k, t)).mass


@pytest.mark.parametrize(
    "tokens, slots, users",
    [
        (120, 60, 120),
        (120, 120, 120),
        (97, 13, 110),
        (64, 16, 100),
        (110, 40, 60),
        (8, 3, 400),
        (8, 8, 400),
        (400, 8, 400),
        (16, 8, 4000),
    ],
)
def test_success_pmf_matches_split_sum_beyond_enumeration(tokens, slots, users):
    # the split sum over (singles, collisions) is an independent kernel
    # with its own partition triangle, at sizes enumeration cannot reach
    cfg = SystemConfig(tokens, slots, users)
    assert list(success_pmf(cfg).mass) == split_sum_pmf(tokens, slots, users)


def _pmf_work(config: SystemConfig) -> float:
    return charged_work(analysis, lambda: success_pmf(config))[0]


def test_pmf_work_admits_the_benchmark_and_refuses_large_sums():
    # the largest deep-pmf configuration passes with 10x headroom
    assert _pmf_work(SystemConfig(16, 16, 1600)) * 10 < SURJECTION_WORK_LIMIT
    # a seeded row makes users far past the tokens fit; 33 masses of 140k
    # bits do not
    fitting = [(400, 100, 400), (1000, 8, 1000), (600, 60, 600), (64, 8, 20000)]
    for fits in fitting:
        assert _pmf_work(SystemConfig(*fits)) < SURJECTION_WORK_LIMIT, fits
    for refused in [(1000, 100, 1000), (800, 800, 800), (128, 32, 20000)]:
        assert _pmf_work(SystemConfig(*refused)) > SURJECTION_WORK_LIMIT, refused


def test_success_pmf_refuses_oversized_inputs_before_building():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="fewer users or tokens"):
            success_pmf(SystemConfig(128, 32, 20000))  # the reductions are too long
        with pytest.raises(ValueError, match="fewer users or tokens"):
            success_pmf(SystemConfig(1000, 100, 1000))  # the moment sums are
        with pytest.raises(ValueError, match="fewer users or tokens"):
            success_pmf(SystemConfig(10**9, 10**8, 10**9))  # stops early
        # users past float range, and an estimate that overflows below it
        for users in (10**400, 10**200):
            with pytest.raises(ValueError, match="fewer users or tokens"):
                success_pmf(SystemConfig(4, 2, users))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_counts_past_the_digit_limit_are_refused_with_the_hint():
    # 10**5000 has more digits than str() writes; the message bounds it
    with pytest.raises(ValueError, match="fewer users or tokens") as info:
        success_pmf(SystemConfig(8, 1, 10**5000))
    assert "8 tokens and 2**16609 or more users" in str(info.value)
    assert len(str(info.value)) < 300


def test_count_text_writes_short_counts_in_full_and_bounds_long_ones():
    # counts of up to 31 digits are written in full
    for n in (0, 7, 10**30, 2**100 - 1):
        assert _count_text(n) == str(n)
    assert _count_text(2**100) == "2**100 or more"
    assert _count_text(10**5000) == "2**16609 or more"


def test_refusal_for_ordinary_counts_is_written_in_full():
    message = (
        "the exact pmf for 1000000 tokens and 1000000 users would take an "
        "estimated 5e+18 or more bit-operations, over the limit of 8e+09; "
        "use fewer users or tokens"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        success_pmf(SystemConfig(10**6, 1, 10**6))


def test_success_pmf_is_safe_across_threads():
    # nothing is cached between calls; interleaved builds on tiny switch
    # intervals must still match a serial run
    configs = [SystemConfig(8, 4, 400), SystemConfig(16, 8, 300)]
    serial = {cfg: success_pmf(cfg) for cfg in configs}
    results: list[tuple[SystemConfig, object]] = []
    lock = threading.Lock()

    def work(cfg: SystemConfig) -> None:
        for _ in range(10):
            pmf = success_pmf(cfg)
            with lock:
                results.append((cfg, pmf))

    threads = [threading.Thread(target=work, args=(cfg,)) for cfg in configs * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 10 * len(threads)
    assert all(pmf == serial[cfg] for cfg, pmf in results)


def test_success_pmf_saturates_at_token_count():
    base = success_pmf(SystemConfig(6, 6, 9)).mass
    for slots in (7, 10, 25):
        assert success_pmf(SystemConfig(6, slots, 9)).mass == base


def test_success_pmf_closed_form_when_slots_cover_tokens():
    # with K >= M every active token is granted, so a user succeeds iff
    # nobody else picked its token
    for tokens, users in [(8, 12), (4, 7), (2, 3)]:
        pmf = success_pmf(SystemConfig(tokens, tokens, users))
        sigma = pmf.mean() / users
        assert sigma == Fraction(tokens - 1, tokens) ** (users - 1)


def test_pmf_json_round_trip_is_exact():
    pmf = success_pmf(SystemConfig(8, 4, 12))
    clone = SuccessPmf.from_json(pmf.to_json())
    assert clone == pmf
    assert clone.to_json() == pmf.to_json()


def _digits(n: int) -> str:
    """The decimal digits of n >= 0, converted in 500-digit chunks that
    each fit under the interpreter's lowest int -> str limit, 640."""
    chunks = []
    while True:
        n, chunk = divmod(n, 10**500)
        chunks.append(str(chunk))
        if not n:
            break
    return chunks[-1] + "".join(c.zfill(500) for c in reversed(chunks[:-1]))


def test_json_rational_writes_every_digit_past_the_str_limit():
    limit = sys.get_int_max_str_digits()
    for value in (
        Fraction(3**9000 + 1, 7**8000),
        Fraction(-(10**5000), 3),  # a high half followed by zeros
        Fraction(10**6000 + 1, 2**20000),  # zeros in the middle
    ):
        text = json_rational(value)
        sign = "-" if value < 0 else ""
        assert text == (
            f"{sign}{_digits(abs(value.numerator))}/{_digits(value.denominator)}"
        )
        assert parse_rational(text) == value
    assert json_rational(Fraction(-3, 4)) == "-3/4"
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert sys.get_int_max_str_digits() == limit


def test_parse_rational_still_rejects_malformed_text():
    for text in ("", "1/", "/2", "a/b", "1/2/3", "1" * 5000 + "x/3"):
        with pytest.raises(ValueError):
            parse_rational(text)
    # a zero or signed denominator, short or past the digit limit, and
    # anything that is not a string
    for text in ("1/0", "1" * 5000 + "/0", "1/-2", "1" * 5000 + "/-2", 0.5, 1, None):
        with pytest.raises(ValueError):
            parse_rational(text)


#: ints of 0 to 40000 bits (up to 12042 digits), drawn from a bit count
#: and a seed so that one example stays a few bytes of hypothesis data
big_ints = st.builds(
    lambda bits, seed: random.Random(seed).getrandbits(bits),
    st.integers(0, 40_000),
    st.integers(0, 2**32),
)


@settings(deadline=None)
@given(big_ints, big_ints, st.booleans())
@example(0, 0, True)
@example(10**12000 - 1, 10**6000, True)  # 12000 nines over 1 and 6000 zeros
def test_parse_rational_inverts_json_rational(numerator, denominator, negative):
    value = Fraction(-numerator if negative else numerator, denominator + 1)
    assert parse_rational(json_rational(value)) == value


#: forms Fraction reads, but no document writes
OTHER_FORMS = ["3", "0.5", " 1/2", "+1/2", "1_0/3", "1e3"]


@pytest.mark.parametrize("text", OTHER_FORMS)
def test_parse_rational_reads_one_form_at_every_length(text):
    # the same form with 4400 zeros before its first digit
    first = next(i for i, c in enumerate(text) if c.isdigit())
    padded = text[:first] + "0" * 4400 + text[first:]
    for form in (text, padded):
        with pytest.raises(ValueError, match=r"^not a \[-\]digits/digits rational: "):
            parse_rational(form)


def test_parse_rational_has_one_zero_denominator_message():
    messages = []
    for text in ("1/0", "-1/00", "1" * 5000 + "/0", "-" + "1" * 5000 + "/" + "0" * 5000):
        with pytest.raises(ValueError) as excinfo:
            parse_rational(text)
        messages.append(str(excinfo.value))
    assert all(m.startswith("zero denominator in '") for m in messages), messages
    # the text is clipped, however long it is
    assert max(map(len, messages)) < 80


def test_pmf_json_round_trip_past_the_str_limit():
    assignments = 3**10000  # 4772 digits
    pmf = SuccessPmf(
        SystemConfig(3, 1, 10000), (1, assignments - 1), assignments, PmfKind.EXACT
    )
    text = pmf.to_json()
    clone = SuccessPmf.from_json(text)
    assert clone == pmf
    assert clone.to_json() == text


def test_pmf_json_schema():
    payload = success_pmf(SystemConfig(2, 2, 2)).to_json_dict()
    assert payload == {
        "M": 2,
        "K": 2,
        "T": 2,
        "kind": "exact",
        "mass": ["1/2", "0/1", "1/2"],
    }


def test_pmf_json_rejects_unknown_kind():
    text = success_pmf(SystemConfig(2, 1, 2)).to_json().replace('"exact"', '"float"')
    with pytest.raises(ValueError):
        SuccessPmf.from_json(text)


#: a field left out of the document
ABSENT = object()


@pytest.mark.parametrize(
    "config, kind, mass, message",
    [
        ((2, 2, 2), "exact", ["1/2"], "3 entries, got 1"),
        ((2, 2, 2), "exact", ["3/2", "-1/2"], "3 entries, got 2"),
        ((2, 2, 2), "exact", ["1/3", "2/3"], "3 entries, got 2"),
        ((2, 1, 2), "exact", ["1/4", "1/4"], "sum to the denominator 4, got 2"),
        ((2, 1, 2), "empirical", ["3/2", "-1/2"], "must be non-negative"),
        ((2, 1, 2), "exact", ["1/3", "2/3"], "denominator 3 of an exact law"),
        # tokens**users is never built: 2**(10**18) has 3 * 10**17 digits
        ((2, 1, 10**18), "exact", ["1/3", "2/3"], "denominator 3 of an exact law"),
        ((2, 1, 2), "exact", ["1/0", "1/2"], "zero denominator"),
        ((2, 1, 2), "exact", ABSENT, "an object with M, K, T, kind, mass"),
        ((2, 1, 2), "exact", "1/2", "mass must be a list"),
        ((2.0, 1, 2), "exact", ["1/2", "1/2"], "must be integers, got 2.0"),
        (("2", 1, 2), "exact", ["1/2", "1/2"], "must be integers, got '2'"),
        ((True, 1, 2), "exact", ["1/2", "1/2"], "must be integers, got True"),
        ((2, 1, 2), "empirical", [0.5, 0.5], "must be a string, got float"),
    ],
)
def test_pmf_json_rejects_documents_that_are_not_a_law(config, kind, mass, message):
    m, k, t = config
    payload = {"M": m, "K": k, "T": t, "kind": kind, "mass": mass}
    text = json.dumps({key: v for key, v in payload.items() if v is not ABSENT})
    with pytest.raises(ValueError, match=re.escape(message)):
        SuccessPmf.from_json(text)


def test_pmf_json_reads_any_law_over_a_common_denominator():
    # the counts come back in lowest terms, whatever the masses' denominators
    text = json.dumps({"M": 2, "K": 1, "T": 2, "kind": "empirical",
                       "mass": ["1/3", "2/3"]})
    pmf = SuccessPmf.from_json(text)
    assert (pmf.counts, pmf.denominator) == ((1, 2), 3)
    assert pmf == SuccessPmf(SystemConfig(2, 1, 2), (100, 200), 300, "empirical")
    exact = success_pmf(SystemConfig(2, 1, 2))
    assert (exact.counts, exact.denominator) == ((1, 1), 2)


def test_pmf_csv_layout():
    text = success_pmf(SystemConfig(2, 1, 2)).to_csv()
    assert text == "d,probability\n0,0.5\n1,0.5\n"
