"""Child process of the traced run: one operation, in-process, with spans.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python perfbench/tracer.py op '<json: {"argv": [...], "float_probe": bool}>'
    python perfbench/tracer.py table-time '<json: {"n": T, "k": K}>'
    python perfbench/tracer.py table-mem '<json: {"n": T, "k": K}>'

``op`` wraps the public functions at each module boundary (as imported by
their callers), runs ``accessframe.cli.main`` on the arguments, and prints
one JSON record: the spans, the captured document, and, with
``float_probe``, how ``success_pmf_float`` fares on every configuration
the operation evaluated exactly.  The table modes time, or trace the
memory of, one cold ``stirling2_assoc(n, k)`` call.

A boundary the package no longer has is listed under ``absent``; its time
then stays in the enclosing span.  The process is fresh for every
operation, so module-level caches start cold exactly as they do for a CLI
user.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import tracemalloc
from fractions import Fraction

#: (module, attribute, span name) for every wrapped call site
SPANS = (
    ("accessframe.cli", "success_pmf", "analysis.success_pmf"),
    ("accessframe.cli", "frame_metrics", "metrics.frame_metrics"),
    ("accessframe.cli", "sweep", "metrics.sweep"),
    ("accessframe.cli", "optimal_data_slots", "metrics.optimal_data_slots"),
    ("accessframe.cli", "estimate_pmf", "simulator.estimate_pmf"),
    ("accessframe.cli", "compare_to_exact", "simulator.compare_to_exact"),
    ("accessframe.metrics", "success_pmf", "analysis.success_pmf"),
    ("accessframe.simulator", "success_pmf", "analysis.success_pmf"),
)
#: hot leaf calls, aggregated as count and time under the enclosing span
LEAVES = (("accessframe.analysis", "stirling2_assoc", "combinatorics.stirling2_assoc"),)
#: result classes whose document rendering counts as cli.render
RENDERED = (
    ("accessframe.analysis", "SuccessPmf"),
    ("accessframe.metrics", "FrameMetrics"),
    ("accessframe.metrics", "SweepReport"),
    ("accessframe.simulator", "EmpiricalReport"),
    ("accessframe.simulator", "ComparisonRecord"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _lookup(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


class Recorder:
    """In-memory spans: name, parent index, start and end (ns), the growth
    of the process's peak RSS across the span, and leaf aggregates."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.exact: dict[tuple, object] = {}  # config -> exact pmf, for the float probe
        self.denominator_bits = 0

    def _open(self, name: str) -> dict:
        parent = self.stack[-1] if self.stack else None
        span = {"name": name, "parent": parent, "leaves": {}, "rss0": _maxrss_mb()}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter_ns()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        span["rss_growth_mb"] = _maxrss_mb() - span.pop("rss0")
        self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "analysis.success_pmf":
                self._keep_exact(result)
            return result

        return traced

    def wrap_leaf(self, name: str, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                agg = self.spans[self.stack[-1]]["leaves"].setdefault(name, [0, 0])
                agg[0] += 1
                agg[1] += elapsed

        return traced

    def _keep_exact(self, pmf) -> None:
        cfg = pmf.config
        self.exact.setdefault((cfg.tokens, cfg.data_slots, cfg.users), pmf)
        bits = max(p.denominator.bit_length() for p in pmf.mass)
        self.denominator_bits = max(self.denominator_bits, bits)

    def install(self) -> None:
        for module, attr, name in SPANS + LEAVES:
            fn = _lookup(module, attr)
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrap = self.wrap_leaf if (module, attr, name) in LEAVES else self.wrap
            setattr(importlib.import_module(module), attr, wrap(name, fn))
        for module, cls_name in RENDERED:
            cls = _lookup(module, cls_name)
            if cls is None:
                self.absent.append(f"{module}.{cls_name}")
                continue
            for method in ("to_json", "to_csv"):
                if hasattr(cls, method):
                    setattr(cls, method, self.wrap("cli.render", getattr(cls, method)))


def float_probe(exact: dict) -> dict:
    """Evaluate success_pmf_float on every configuration that had an exact
    pmf, outside any span; relative error is taken against exact."""
    fn = _lookup("accessframe.analysis", "success_pmf_float")
    if fn is None:
        return {"absent": True}
    refusal = _lookup("accessframe.analysis", "PrecisionLossError") or ArithmeticError
    config_cls = _lookup("accessframe.analysis", "SystemConfig")
    out = {"configs": 0, "refused": 0, "s": 0.0, "max_rel_err": 0.0}
    for (m, k, t), pmf in exact.items():
        out["configs"] += 1
        start = time.perf_counter()
        try:
            approx = fn(config_cls(m, k, t))
        except refusal:
            out["refused"] += 1
            continue
        finally:
            out["s"] += time.perf_counter() - start
        for p, q in zip(pmf.mass, approx.mass):
            if p:
                rel = float(abs(Fraction(q) - p) / p)
                out["max_rel_err"] = max(out["max_rel_err"], rel)
    return out


def run_op(argv: list[str], probe_float: bool) -> dict:
    recorder = Recorder()
    recorder.install()
    main = importlib.import_module("accessframe.cli").main
    captured = io.StringIO()
    root = recorder._open("cli.main")
    try:
        with contextlib.redirect_stdout(captured):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        recorder._close(root)
    record = {
        "exit": code,
        "stdout": captured.getvalue(),
        "spans": recorder.spans,
        "absent": recorder.absent,
        "denominator_bits": recorder.denominator_bits,
    }
    if probe_float:
        start = time.perf_counter()
        record["float"] = float_probe(recorder.exact)
        record["float"]["wall_s"] = time.perf_counter() - start
    return record


def run_table(n: int, k: int, trace_memory: bool) -> dict:
    fn = _lookup("accessframe.analysis", "stirling2_assoc")
    if fn is None:
        return {"absent": True}
    if trace_memory:
        tracemalloc.start()
    start = time.perf_counter()
    fn(n, k)
    elapsed = time.perf_counter() - start
    record = {"s": elapsed}
    if trace_memory:
        record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return record


def main() -> int:
    mode, payload = sys.argv[1], json.loads(sys.argv[2])
    if mode == "op":
        record = run_op(payload["argv"], payload["float_probe"])
    else:
        record = run_table(payload["n"], payload["k"], mode == "table-mem")
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
