"""Exact analysis and seeded simulation of a two-phase access
reservation frame: users contend for tokens, detected tokens share a
TDM data phase.

The exact path (:func:`success_pmf`, the metrics helpers) works in
rational arithmetic end to end; the simulator reproduces the same
distribution from a named, seeded random stream for validation and
estimates the ternary-detection variant, for which the library ships no
exact pmf.

Importing the package loads none of its modules: each name below is
imported from its module on first access (PEP 562), so a program pays
only for the modules it uses.  ``_EXPORTS`` is the one list of those
names: it is also the ``__all__`` of each module it lists.
"""

import importlib

#: The public names, by the module that defines them.
_EXPORTS = {
    "analysis": (
        "PmfKind",
        "SuccessPmf",
        "SystemConfig",
        "success_pmf",
    ),
    "metrics": (
        "Axis",
        "FrameMetrics",
        "OptimalDataSlots",
        "SweepReport",
        "expected_successes",
        "frame_metrics",
        "optimal_data_slots",
        "sweep",
    ),
    "simulator": (
        "RNG_ALGORITHM",
        "ComparisonRecord",
        "DetectionMode",
        "EmpiricalReport",
        "SimParams",
        "compare_to_exact",
        "estimate_pmf",
        "make_rng",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
