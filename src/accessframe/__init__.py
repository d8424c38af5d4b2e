"""Exact analysis and seeded simulation of a two-phase access
reservation frame: users contend for tokens, detected tokens share a
TDM data phase.

The exact path (:func:`success_pmf`, the metrics helpers) works in
rational arithmetic end to end; the simulator reproduces the same
distribution from a named, seeded random stream for validation and
estimates the ternary-detection variant, for which the library ships no
exact pmf.
"""

from .analysis import (
    PmfKind,
    SuccessPmf,
    SystemConfig,
    outcome_probability,
    success_pmf,
)
from .combinatorics import stirling2_assoc
from .metrics import (
    Axis,
    FrameMetrics,
    Provenance,
    SweepReport,
    efficiency,
    expected_successes,
    frame_metrics,
    optimal_data_slots,
    success_rate,
    sweep,
)
from .simulator import (
    RNG_ALGORITHM,
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

__version__ = "0.1.0"

__all__ = [
    "PmfKind",
    "SuccessPmf",
    "SystemConfig",
    "outcome_probability",
    "success_pmf",
    "stirling2_assoc",
    "Axis",
    "FrameMetrics",
    "Provenance",
    "SweepReport",
    "efficiency",
    "expected_successes",
    "frame_metrics",
    "optimal_data_slots",
    "success_rate",
    "sweep",
    "RNG_ALGORITHM",
    "ComparisonRecord",
    "DetectionMode",
    "EmpiricalReport",
    "FrameTrace",
    "SimParams",
    "compare_to_exact",
    "estimate_pmf",
    "make_rng",
    "simulate_frame",
    "__version__",
]
