"""The package's frozen value records: immutability, equality, hashing,
repr, validation and ``replace``."""

from __future__ import annotations

import hashlib
import pickle
import re
from fractions import Fraction

import pytest

from accessframe.analysis import (
    SuccessPmf,
    SystemConfig,
    _decimal,
    outcome_probability,
    success_pmf,
)
from accessframe.metrics import (
    Axis,
    FrameMetrics,
    OptimalDataSlots,
    SweepReport,
    frame_metrics,
    optimal_data_slots,
    sweep,
)
from accessframe.simulator import (
    ComparisonRecord,
    DetectionMode,
    EmpiricalReport,
    SimParams,
    compare_to_exact,
    estimate_pmf,
)

CONFIG = SystemConfig(8, 4, 12)
PARAMS = SimParams(CONFIG, iterations=200, seed=3)

#: Each record class, its fields in order, a function that builds a fresh
#: instance with the same field values every time it is called, and the
#: read-only attributes it derives from its fields.
RECORDS = {
    "SystemConfig": (
        SystemConfig,
        ("tokens", "data_slots", "users"),
        lambda: SystemConfig(8, 4, 12),
        ("max_successes", "frame_slots"),
    ),
    "SuccessPmf": (
        SuccessPmf,
        ("config", "counts", "denominator", "kind"),
        lambda: success_pmf(CONFIG),
        ("mass",),
    ),
    "FrameMetrics": (
        FrameMetrics,
        ("config", "expected_successes"),
        lambda: frame_metrics(CONFIG),
        ("success_rate", "efficiency"),
    ),
    "SweepReport": (
        SweepReport,
        ("axis", "rows"),
        lambda: sweep(CONFIG, Axis.USERS, [1, 2, 3]),
        ("values", "fixed"),
    ),
    "OptimalDataSlots": (
        OptimalDataSlots,
        ("tokens", "users", "k_max", "data_slots", "efficiency"),
        lambda: OptimalDataSlots(8, 12, 8, *optimal_data_slots(8, 12, 8)),
        (),
    ),
    "SimParams": (
        SimParams,
        ("config", "iterations", "seed", "mode"),
        lambda: SimParams(CONFIG, iterations=200, seed=3),
        (),
    ),
    "EmpiricalReport": (
        EmpiricalReport,
        ("params", "counts"),
        lambda: estimate_pmf(PARAMS),
        ("pmf_hat", "mean_successes", "success_rate", "efficiency"),
    ),
    "ComparisonRecord": (
        ComparisonRecord,
        ("params", "tv_distance", "max_abs_mass_error"),
        lambda: compare_to_exact(estimate_pmf(PARAMS), success_pmf(CONFIG)),
        (),
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_fields_cannot_be_assigned_or_deleted(name):
    _, fields, build, derived = RECORDS[name]
    record = build()
    for field in (*fields, *derived):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("name", list(RECORDS))
def test_equal_records_compare_and_hash_equal(name):
    cls, fields, build, _ = RECORDS[name]
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first.replace() == first
    assert pickle.loads(pickle.dumps(first)) == first
    # only records of the same class compare equal
    assert first != tuple(getattr(first, f) for f in fields)


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_repr_names_every_field(name):
    cls, fields, build, _ = RECORDS[name]
    record = build()
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    assert text == (
        f"{cls.__name__}("
        + ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
        + ")"
    )


def test_record_repr_writes_ints_past_the_digit_limit():
    # 64**5000 has 9031 digits, and 16**4000 has 4817
    pmf = success_pmf(SystemConfig(64, 8, 5000))
    text = repr(pmf)
    assert f"denominator={_decimal(pmf.denominator)}, kind=" in text
    assert f"counts=({_decimal(pmf.counts[0])}, " in text
    mean = frame_metrics(SystemConfig(16, 8, 4000)).expected_successes
    assert repr(FrameMetrics(SystemConfig(16, 8, 4000), mean)).endswith(
        f"expected_successes=Fraction({_decimal(mean.numerator)}, "
        f"{_decimal(mean.denominator)}))"
    )


def test_records_differ_on_any_field():
    assert SystemConfig(8, 4, 12) != SystemConfig(8, 4, 13)
    assert SystemConfig(8, 4, 12).replace(users=13) == SystemConfig(8, 4, 13)
    assert FrameMetrics(CONFIG, Fraction(1)) != FrameMetrics(CONFIG, Fraction(2))


def test_records_take_fields_by_position_name_or_default():
    assert SystemConfig(8, 4, 12) == SystemConfig(users=12, tokens=8, data_slots=4)
    assert SimParams(CONFIG, 10, 1) == SimParams(
        config=CONFIG, iterations=10, seed=1, mode=DetectionMode.BINARY
    )
    assert SimParams(CONFIG, 10, 1).mode is DetectionMode.BINARY
    with pytest.raises(TypeError, match="needs a value for 'users'"):
        SystemConfig(8, 4)
    with pytest.raises(TypeError, match="has 3 fields, got 4"):
        SystemConfig(8, 4, 12, 1)
    with pytest.raises(TypeError, match="unknown or repeated field 'tokens'"):
        SystemConfig(8, 4, 12, tokens=8)
    with pytest.raises(TypeError, match="unknown or repeated field 'slots'"):
        SystemConfig(8, 4, 12).replace(slots=2)


def test_post_init_normalises_fields():
    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    config = SystemConfig(Index(8), Index(4), Index(12))
    assert type(config.tokens) is int and config == CONFIG
    params = SimParams(CONFIG, iterations=Index(5), seed=Index(1), mode="ternary")
    assert params.mode is DetectionMode.TERNARY and type(params.seed) is int
    with pytest.raises(TypeError):
        SystemConfig(8.0, 4, 12)
    report = SweepReport("users", [frame_metrics(CONFIG)])
    assert report.axis is Axis.USERS and report.fixed == {"M": 8, "K": 4}
    assert report == SweepReport(Axis.USERS, (frame_metrics(CONFIG),))
    assert hash(report) == hash(SweepReport(Axis.USERS, (frame_metrics(CONFIG),)))


def _metrics(expected, config=SystemConfig(2, 1, 2)):
    return lambda: FrameMetrics(config, expected)


def _sweep(rows, axis=Axis.USERS):
    return lambda: SweepReport(axis, rows)


def _pmf(counts, denominator, kind="exact"):
    return lambda: SuccessPmf(CONFIG, counts, denominator, kind)


_ROW_1 = frame_metrics(SystemConfig(8, 4, 1))
_ROW_2 = frame_metrics(SystemConfig(8, 4, 2))
_SLOTS_1 = frame_metrics(SystemConfig(8, 1, 12))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SystemConfig(0, 4, 12), "tokens must be >= 1"),
        (lambda: SystemConfig(8, 0, 12), "data_slots must be >= 1"),
        (lambda: SystemConfig(8, 4, -1), "users must be >= 0"),
        (lambda: CONFIG.replace(users=-1), "users must be >= 0"),
        # a rate above 1, E < 0, E > T, E > K, E > M, and no users
        (_metrics(Fraction(3)), "outside [0, 1]"),
        (_metrics(Fraction(-1, 4)), "-1/4 outside [0, 1]"),
        (_metrics(Fraction(3), SystemConfig(2, 4, 2)), "outside [0, 2]"),
        (_metrics(Fraction(3, 2), SystemConfig(4, 1, 3)), "3/2 outside [0, 1]"),
        (_metrics(Fraction(5), SystemConfig(2, 8, 8)), "5 outside [0, 2]"),
        (_metrics(Fraction(0), SystemConfig(2, 1, 0)), "at least one user"),
        (_sweep((_ROW_2, _ROW_1)), "strictly increasing"),
        (_sweep((_ROW_1, _ROW_1)), "must be strictly increasing"),
        (_sweep(()), "sweep needs at least one axis value"),
        (
            _sweep((_ROW_1, frame_metrics(SystemConfig(9, 4, 2)))),
            "every row must hold {'M': 8, 'K': 4} fixed",
        ),
        (
            _sweep((_SLOTS_1, frame_metrics(SystemConfig(8, 2, 13))), Axis.DATA_SLOTS),
            "every row must hold {'M': 8, 'T': 12} fixed",
        ),
        (lambda: SimParams(CONFIG, iterations=0, seed=1), "iterations must be"),
        (lambda: SimParams(CONFIG, iterations=1, seed=2**64), "unsigned 64-bit"),
        (_pmf((1, 1), 2), "max_successes + 1 = 5 entries, got 2"),
        (_pmf((2, -1, 0, 0, 0), 1), "must be non-negative"),
        (_pmf((1, 1, 0, 0, 0), 4), "sum to the denominator 4, got 2"),
        (_pmf((0, 0, 0, 0, 0), 0), "denominator must be >= 1, got 0"),
        (_pmf((1, 2, 0, 0, 0), 3), "3 of an exact law must divide tokens**users"),
        (lambda: EmpiricalReport(PARAMS, (5,)), "max_successes + 1 = 5 entries, got 1"),
        (lambda: EmpiricalReport(PARAMS, (201, -1, 0, 0, 0)), "must be non-negative"),
        (lambda: EmpiricalReport(PARAMS, (5, 0, 0, 0, 0)), "sum to the denominator 200"),
    ],
)
def test_post_init_rejections_still_fire(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


_HUGE = 10**5000  # past the interpreter's 4300-digit int -> str limit


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: SuccessPmf(SystemConfig(3, 1, 10000), (1, 0), 3**10000, "exact"),
            "counts must sum to the denominator 2**15849 or more, got 1",
        ),
        (
            lambda: SuccessPmf(SystemConfig(3, 1, 2), (_HUGE, 1), _HUGE + 1, "exact"),
            "the denominator 2**16609 or more of an exact law must divide "
            "tokens**users = 3**2",
        ),
        (
            _metrics(Fraction(_HUGE, 3), SystemConfig(2, 1, 2)),
            "expected successes 2**16609 or more/3 outside [0, 1]",
        ),
        (
            _metrics(Fraction(-1, _HUGE), SystemConfig(2, 1, 2)),
            "expected successes -1/2**16609 or more outside [0, 1]",
        ),
        (
            lambda: outcome_probability(SystemConfig(_HUGE, 1, 3), _HUGE, 1),
            "2**16609 or more + 1 active tokens exceed 2**16609 or more",
        ),
        (
            lambda: SweepReport(
                "users",
                (
                    FrameMetrics(SystemConfig(_HUGE, 1, 1), 0),
                    FrameMetrics(SystemConfig(_HUGE + 1, 1, 2), 0),
                ),
            ),
            "every row must hold {'M': 2**16609 or more, 'K': 1} fixed",
        ),
        (
            lambda: SuccessPmf(SystemConfig(_HUGE, _HUGE, _HUGE), (1,), 1, "empirical"),
            "counts must hold max_successes + 1 = 2**16609 or more entries, got 1",
        ),
        (
            lambda: SystemConfig(-_HUGE, 1, 1),
            "tokens must be >= 1, got -2**16609 or less",
        ),
        (
            lambda: SystemConfig(1, -_HUGE, 1),
            "data_slots must be >= 1, got -2**16609 or less",
        ),
        (
            lambda: SystemConfig(1, 1, -_HUGE),
            "users must be >= 0, got -2**16609 or less",
        ),
        (
            lambda: SimParams(SystemConfig(2, 1, 2), -_HUGE, 1),
            "iterations must be >= 1, got -2**16609 or less",
        ),
        (
            lambda: SuccessPmf(SystemConfig(3, 1, 2), (1, 0), -_HUGE, "empirical"),
            "the denominator must be >= 1, got -2**16609 or less",
        ),
    ],
    ids=[
        "pmf-sum", "pmf-exact-law", "metrics-above", "metrics-below", "split",
        "sweep-fixed", "pmf-entries", "tokens", "data_slots", "users",
        "iterations", "pmf-denominator",
    ],
)
def test_refusals_past_the_digit_limit_write_the_package_message(build, message):
    # each message writes its numbers by _count_text, so a value of
    # 10**5000 gets this message, not the interpreter's digit-limit error
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        build()
    assert len(str(info.value)) < 300


def test_frame_metrics_accept_every_mean_from_zero_to_max_successes():
    for config in (SystemConfig(2, 1, 2), SystemConfig(2, 4, 2), SystemConfig(4, 1, 3)):
        most = config.max_successes
        for expected in (Fraction(0), Fraction(most, 3), Fraction(most)):
            metrics = FrameMetrics(config, expected)
            assert metrics.success_rate == expected / config.users
            assert metrics.efficiency == expected / config.frame_slots


def test_frame_metrics_keep_a_rational_mean_as_a_fraction():
    for mean in (1, True, Fraction(1)):
        metrics = FrameMetrics(CONFIG, mean)
        assert type(metrics.expected_successes) is Fraction
        assert '"expected_successes": "1/1"' in metrics.to_json()
    for mean in (0.5, "1/2", None):
        with pytest.raises(ValueError, match="expected successes must be rational"):
            FrameMetrics(CONFIG, mean)


def test_sweeps_ignore_the_swept_field_of_their_base():
    for axis, first, second in (
        ("users", SystemConfig(8, 4, 1), SystemConfig(8, 4, 7)),
        ("data_slots", SystemConfig(8, 1, 12), SystemConfig(8, 6, 12)),
    ):
        a, b = sweep(first, axis, [1, 2]), sweep(second, axis, [1, 2])
        assert a == b and hash(a) == hash(b)
        assert a.to_json() == b.to_json() and a.to_csv() == b.to_csv()


#: Configurations on which the derived attributes are pinned, and the
#: sha256 of their values as written by :func:`_derived_lines`, recorded
#: when each of them was still a stored, cross-checked field.  The
#: simulated lines were re-captured with the ``numpy-pcg64/v5`` stream;
#: the others hash as they did before it.  The hash was taken again when
#: the one-frame ``trace`` lines went with ``simulate_frame``: it equals
#: the hash of the earlier text with those lines filtered out.
DERIVED_GRID = [
    SystemConfig(m, k, t) for m in (1, 3, 8) for k in (1, 4) for t in (0, 1, 5, 12)
]
DERIVED_SHA256 = "08656ca3a39ee72c69827dd1655ca6a9a1f1257a047ab9b0c3fdd7665dc52bc6"


def _derived_lines():
    for config in DERIVED_GRID:
        if config.users:
            metrics = frame_metrics(config)
            yield f"{config} metrics {metrics.success_rate!r} {metrics.efficiency!r}"
            for axis, values in (("users", (1, 3, 7)), ("data_slots", (1, 2, 5))):
                report = sweep(config, axis, values)
                assert report.values == values
                yield f"{config} {axis} {report.values}"
        for mode in ("binary", "ternary"):
            report = estimate_pmf(SimParams(config, iterations=300, seed=7, mode=mode))
            mean, counts = report.mean_successes, report.counts
            assert report.pmf_hat.mass == tuple(Fraction(c, 300) for c in counts)
            assert mean == Fraction(sum(d * c for d, c in enumerate(counts)), 300)
            yield (
                f"{config} {mode} {report.pmf_hat.config == config} "
                f"{report.pmf_hat.kind.value} {report.pmf_hat.mass} {mean!r} "
                f"{report.success_rate!r} {report.efficiency!r}"
            )


def test_derived_attributes_keep_their_values():
    text = "\n".join(_derived_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DERIVED_SHA256


def test_sweep_builds_its_rows_through_replace(monkeypatch):
    calls = []
    replace = SystemConfig.replace

    def spy(self, **changes):
        calls.append(changes)
        return replace(self, **changes)

    monkeypatch.setattr(SystemConfig, "replace", spy)
    report = sweep(SystemConfig(8, 4, 0), "users", [1, 2, 5])
    assert calls == [{"users": 1}, {"users": 2}, {"users": 5}]
    assert [row.config for row in report.rows] == [
        SystemConfig(8, 4, t) for t in (1, 2, 5)
    ]
    calls.clear()
    sweep(SystemConfig(8, 1, 12), Axis.DATA_SLOTS, [2, 3])
    assert calls == [{"data_slots": 2}, {"data_slots": 3}]
