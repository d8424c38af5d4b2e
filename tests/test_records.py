"""The package's frozen value records: immutability, equality, hashing,
repr, validation and ``replace``."""

from __future__ import annotations

import pickle
import re
from fractions import Fraction

import pytest

from accessframe.analysis import SuccessPmf, SystemConfig, success_pmf
from accessframe.metrics import (
    Axis,
    FrameMetrics,
    Provenance,
    SweepReport,
    frame_metrics,
    sweep,
)
from accessframe.simulator import (
    ComparisonRecord,
    DetectionMode,
    EmpiricalReport,
    FrameTrace,
    SimParams,
    compare_to_exact,
    estimate_pmf,
    make_rng,
    simulate_frame,
)

CONFIG = SystemConfig(8, 4, 12)
PARAMS = SimParams(CONFIG, iterations=200, seed=3)

#: Each record class, its fields in order, and a function that builds a
#: fresh instance with the same field values every time it is called.
RECORDS = {
    "SystemConfig": (
        SystemConfig,
        ("tokens", "data_slots", "users"),
        lambda: SystemConfig(8, 4, 12),
    ),
    "SuccessPmf": (
        SuccessPmf,
        ("config", "mass", "kind"),
        lambda: success_pmf(CONFIG),
    ),
    "Provenance": (
        Provenance,
        ("kind", "seed", "iterations"),
        lambda: Provenance("simulated", seed=1, iterations=10),
    ),
    "FrameMetrics": (
        FrameMetrics,
        ("config", "expected_successes", "success_rate", "efficiency"),
        lambda: frame_metrics(CONFIG),
    ),
    "SweepReport": (
        SweepReport,
        ("base", "axis", "values", "rows", "provenance"),
        lambda: sweep(CONFIG, Axis.USERS, [1, 2, 3]),
    ),
    "SimParams": (
        SimParams,
        ("config", "iterations", "seed", "mode"),
        lambda: SimParams(CONFIG, iterations=200, seed=3),
    ),
    "FrameTrace": (
        FrameTrace,
        ("config", "mode", "counts", "selected", "successes"),
        lambda: simulate_frame(CONFIG, DetectionMode.BINARY, make_rng(9)),
    ),
    "EmpiricalReport": (
        EmpiricalReport,
        ("params", "pmf_hat", "counts", "mean_successes", "success_rate",
         "efficiency"),
        lambda: estimate_pmf(PARAMS),
    ),
    "ComparisonRecord": (
        ComparisonRecord,
        ("params", "tv_distance", "max_abs_mass_error"),
        lambda: compare_to_exact(estimate_pmf(PARAMS)),
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_fields_cannot_be_assigned_or_deleted(name):
    _, fields, build = RECORDS[name]
    record = build()
    for field in fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("name", list(RECORDS))
def test_equal_records_compare_and_hash_equal(name):
    cls, fields, build = RECORDS[name]
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
    cls, fields, build = RECORDS[name]
    record = build()
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    assert text == (
        f"{cls.__name__}("
        + ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
        + ")"
    )


def test_records_differ_on_any_field():
    assert SystemConfig(8, 4, 12) != SystemConfig(8, 4, 13)
    assert SystemConfig(8, 4, 12).replace(users=13) == SystemConfig(8, 4, 13)
    assert Provenance("exact") != Provenance("simulated", 1, 10)


def test_records_take_fields_by_position_name_or_default():
    assert SystemConfig(8, 4, 12) == SystemConfig(users=12, tokens=8, data_slots=4)
    assert Provenance("exact") == Provenance(kind="exact", seed=None, iterations=None)
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


def _metrics(expected, rate, eff, config=SystemConfig(2, 1, 2)):
    return lambda: FrameMetrics(config, expected, rate, eff)


def _sweep(values, rows):
    base = SystemConfig(8, 4, 12)
    return lambda: SweepReport(base, Axis.USERS, values, rows, Provenance("exact"))


def _trace(counts, selected, successes):
    config, mode = SystemConfig(3, 1, 3), DetectionMode.BINARY
    return lambda: FrameTrace(config, mode, counts, selected, successes)


_ROW_1 = frame_metrics(SystemConfig(8, 4, 1))
_ROW_2 = frame_metrics(SystemConfig(8, 4, 2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SystemConfig(0, 4, 12), "tokens must be >= 1"),
        (lambda: SystemConfig(8, 0, 12), "data_slots must be >= 1"),
        (lambda: SystemConfig(8, 4, -1), "users must be >= 0"),
        (lambda: CONFIG.replace(users=-1), "users must be >= 0"),
        (lambda: Provenance("guessed"), "kind must be"),
        (lambda: Provenance("simulated", seed=1), "requires seed and iterations"),
        (lambda: Provenance("exact", seed=1), "carries no seed"),
        (_metrics(Fraction(3), Fraction(3, 2), Fraction(1)), "outside [0, 1]"),
        (_metrics(Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)),
         "outside [0, K/(K+1)]"),
        (_metrics(Fraction(1, 2), Fraction(1, 8), Fraction(1, 4)),
         "!= success_rate"),
        (_metrics(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)),
         "!= efficiency"),
        (_sweep((1, 2), (_ROW_1,)), "one row per axis value"),
        (_sweep((2, 1), (_ROW_2, _ROW_1)), "strictly increasing"),
        (_sweep((1, 3), (_ROW_1, _ROW_2)), "does not match"),
        (lambda: SimParams(CONFIG, iterations=0, seed=1), "iterations must be"),
        (lambda: SimParams(CONFIG, iterations=1, seed=2**64), "unsigned 64-bit"),
        (_trace((3, 0), (0,), 0), "one count per token"),
        (_trace((2, 0, 0), (0,), 0), "sum to the number of users"),
        (_trace((1, 1, 1), (0, 1), 2), "min(eligible, data_slots)"),
        (_trace((2, 1, 0), (2,), 0), "must be eligible"),
        (_trace((2, 1, 0), (0,), 1), "successes must count"),
    ],
)
def test_post_init_rejections_still_fire(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


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
