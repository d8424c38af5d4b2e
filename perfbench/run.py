"""accessframe benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --list-ops 20

Run from the repository root.  Every operation is one fresh
``python -m accessframe <subcommand>`` process, started only after the
previous one has exited (a closed loop with one client), so one child runs
at a time and each pays for cold module caches as a CLI user does.  The
program is taken from ``src/`` of the checkout; there is nothing to build.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median time of
a fresh ``--help``), then operations for ``--seconds`` seconds of
operation wall time.  Every output is checked against the oracle in
``oracle.py`` outside the timed region.  ``--trace 1`` runs a prefix of
the same operations in-process under ``tracer.py``, replays them
untraced for the overhead ratio, and reports the per-layer metrics; it
also writes every span to ``.bench_out/``.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from oracle import CheckError, SimulationChecker, check  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SETUP_SAMPLES = 11
#: an operation that has not exited after this long counts as failed
OP_TIMEOUT_S = 40.0
#: the traced run traces operations for this share of --seconds
TRACE_SHARE = 0.5
#: an untimed run stops at the first block boundary after --seconds, or
#: at this multiple of --seconds if a block runs that long
MAX_OVERRUN = 2.0
#: higher percentiles, reported only with at least ten samples beyond them
PERCENTILES = (99, 90, 75)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trace.ops": "count",
    "trace.overhead": "ratio",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.process_overhead_ms": "ms",
    "cli.render_s": "s",
    "cli.stdout_bytes": "B",
    "metrics.calls": "count",
    "metrics.s": "s",
    "metrics.self_s": "s",
    "metrics.pmf_builds": "count",
    "metrics.pmf_builds_per_config": "ratio",
    "analysis.success_pmf.calls": "count",
    "analysis.success_pmf.s": "s",
    "analysis.success_pmf.self_s": "s",
    "analysis.success_pmf.peak_mb": "MB",
    "analysis.success_pmf.denominator_bits": "bits",
    "analysis.success_pmf.split_weights": "count",
    "analysis.success_pmf_float.configs": "count",
    "analysis.success_pmf_float.s": "s",
    "analysis.success_pmf_float.refused": "count",
    "analysis.success_pmf_float.max_rel_err": "ratio",
    "combinatorics.table_build_s": "s",
    "combinatorics.table_peak_mb": "MB",
    "combinatorics.stirling2_assoc.calls": "count",
    "combinatorics.stirling2_assoc.s": "s",
    "simulator.self_s": "s",
    "simulator.estimate_pmf.s": "s",
    "simulator.frames_per_s.binary": "1/s",
    "simulator.frames_per_s.ternary": "1/s",
    "simulator.peak_mb": "MB",
    "simulator.draw_bytes_per_frame": "B/frame",
    "simulator.compare_to_exact.s": "s",
    "simulator.compare_to_exact.exact_share": "ratio",
    "simulator.tv_distance_max": "ratio",
}

#: time and count metrics that describe the whole traced run; every other
#: one is reported per traced operation
PER_RUN = ("trace.ops", "combinatorics.table_build_s")

#: per-layer metrics that need a wrapped boundary: absent when every
#: boundary they read from is gone from the package
SOURCES = {
    "analysis.success_pmf.": ("cli.success_pmf", "metrics.success_pmf",
                              "simulator.success_pmf"),
    "metrics.": ("cli.frame_metrics", "cli.sweep", "cli.optimal_data_slots"),
    "metrics.pmf_builds": ("metrics.success_pmf",),
    "analysis.success_pmf.split_weights": ("analysis.stirling2_assoc",),
    "combinatorics.": ("analysis.stirling2_assoc",),
    "analysis.success_pmf_float.": ("analysis.success_pmf_float",),
    "simulator.estimate_pmf.": ("cli.estimate_pmf",),
    "simulator.frames_per_s.": ("cli.estimate_pmf",),
    "simulator.peak_mb": ("cli.estimate_pmf",),
    "simulator.compare_to_exact.": ("cli.compare_to_exact",),
}

LAYERS = ("cli", "metrics", "analysis", "combinatorics", "simulator")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ACCESSFRAME_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Run:
    """One finished child process."""

    wall: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def spawn(args: list[str]) -> Run:
    """Start ``python <args>`` and wait for it; the wall time spans spawn to
    exit, and peak RSS comes from ``os.wait4`` on that child alone."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    killer.cancel()
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return Run(wall, usage.ru_maxrss / 1024, proc.returncode, out, err[0],
               wall >= OP_TIMEOUT_S)


@dataclass
class Outcome:
    op: Op
    run: Run
    error: str | None = None
    trace: dict = field(default_factory=dict)


def judge(op: Op, run: Run, document: bytes, sims: SimulationChecker) -> str | None:
    """Why the operation failed, or None; runs outside the timed region."""
    if run.timed_out:
        return f"timed out after {OP_TIMEOUT_S:.0f} s"
    if run.code != 0:
        return f"exit {run.code}: {run.stderr.decode(errors='replace').strip()[-200:]}"
    try:
        check(op.kind, op.params, document, sims)
    except (CheckError, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def run_untraced(op: Op, sims: SimulationChecker) -> Outcome:
    run = spawn(["-m", "accessframe", *op.argv])
    return Outcome(op, run, judge(op, run, run.stdout, sims))


def run_traced(op: Op, sims: SimulationChecker, float_probe: bool) -> Outcome:
    payload = json.dumps({"argv": op.argv, "float_probe": float_probe})
    run = spawn([str(HERE / "tracer.py"), "op", payload])
    try:
        trace = json.loads(run.stdout)
    except ValueError:
        trace = {}
    if run.code == 0 and trace.get("exit"):
        run.code = trace["exit"]
    document = trace.get("stdout", "").encode()
    return Outcome(op, run, judge(op, run, document, sims), trace)


def percentile_line(walls_ms: list[float]) -> str:
    n = len(walls_ms)
    for q in PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            value = statistics.quantiles(walls_ms, n=100)[q - 1]
            return f"op_p{q}_ms {value:.1f} ms (n={n})"
    return f"no higher percentile: n={n} leaves fewer than 10 samples beyond p75"


def machine_line() -> str:
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return (
        f"machine: nproc={os.cpu_count()} mem={mem:.1f}GiB "
        f"python={sys.version.split()[0]} numpy={numpy}; one child at a time"
    )


def measure_setup() -> list[float]:
    """Fresh-interpreter ``--help`` times: import plus parser build.  One
    untimed warm-up run first writes the bytecode cache."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        run = spawn(["-m", "accessframe", "--help"])
        if run.code != 0:
            raise SystemExit(f"accessframe --help failed: {run.stderr.decode()[-500:]}")
        if i:
            samples.append(run.wall)
    return samples


def print_op(i: int, outcome: Outcome) -> None:
    status = "ok" if outcome.error is None else f"FAILED {outcome.error}"
    print(f"op {i:3d} {outcome.run.wall * 1e3:9.1f} ms {outcome.run.rss_mb:7.1f} MB "
          f"{status} :: {outcome.op.describe()}", flush=True)


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list[Outcome]]:
    setup = measure_setup()
    sims = SimulationChecker()
    outcomes: list[Outcome] = []
    timed = 0.0
    for op in workload.ops(seed):
        outcome = run_untraced(op, sims)
        timed += outcome.run.wall
        outcomes.append(outcome)
        print_op(len(outcomes), outcome)
        whole_blocks = len(outcomes) % len(workload.strata) == 0
        if timed >= seconds and (whole_blocks or timed >= MAX_OVERRUN * seconds):
            break

    walls_ms = [o.run.wall * 1e3 for o in outcomes]
    work = sum(o.op.work for o in outcomes)
    failed = sum(o.error is not None for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(outcomes) / timed,
        "op_p50_ms": statistics.median(walls_ms),
        "work_per_s": work / timed,
        "peak_rss_mb": max(o.run.rss_mb for o in outcomes),
    }
    unit = workload.work_unit
    print(f"setup_s       {metrics['setup_s']:.4f} s   (median of {len(setup)} --help runs)")
    print(f"ops_per_s     {metrics['ops_per_s']:.4f} 1/s (n={len(outcomes)} ops in "
          f"{timed:.2f} s of operation wall time)")
    print(f"op_p50_ms     {metrics['op_p50_ms']:.1f} ms (n={len(outcomes)}); "
          f"{percentile_line(walls_ms)}")
    for name in ("configs", "frames"):
        value = (f"{metrics['work_per_s']:.4f} 1/s (n={work} {name}; = work_per_s)"
                 if name == unit else f"n/a (this workload has no {name})")
        print(f"{name}_per_s {' ' * (7 - len(name))}{value}")
    print(f"peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB (largest ru_maxrss of "
          f"{len(outcomes)} children)")
    print(f"failed_ops    {failed / len(outcomes):.4f} ({failed} of {len(outcomes)} attempted)")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, outcomes


def _span_self_ns(spans: list[dict]) -> list[int]:
    covered = [0] * len(spans)
    for i, span in enumerate(spans):
        covered[i] += sum(ns for _, ns in span["leaves"].values())
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_metrics(traced: list[Outcome], replay: list[Outcome], probes: dict) -> tuple[dict, set]:
    """Aggregate every traced operation's spans into the per-layer metrics."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    absent = set()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    overhead_ms, configs_by_metrics, rss = [], 0, {"analysis": 0.0, "simulator": 0.0}
    frames = {"binary": [0, 0.0], "ternary": [0, 0.0]}
    draw_bytes = draw_frames = 0
    under_compare = 0.0
    stdout_bytes = 0
    for outcome, untraced in zip(traced, replay):
        trace, op = outcome.trace, outcome.op
        absent.update(a.removeprefix("accessframe.") for a in trace.get("absent", ()))
        spans = trace.get("spans", [])
        stdout_bytes += len(trace.get("stdout", "").encode())
        for span, self_ns in zip(spans, _span_self_ns(spans)):
            name, dur = span["name"], (span["end"] - span["start"]) / 1e9
            parent = spans[span["parent"]]["name"] if span["parent"] is not None else ""
            layer_self[name.split(".")[0]] += self_ns / 1e9
            for leaf, (count, ns) in span["leaves"].items():
                layer_self[leaf.split(".")[0]] += ns / 1e9
                m[f"{leaf}.calls"] += count
                m[f"{leaf}.s"] += ns / 1e9
                if name == "analysis.success_pmf":
                    m["analysis.success_pmf.split_weights"] += count
            if name == "cli.main":
                m["cli.main_s"] += dur
                overhead_ms.append(untraced.run.wall * 1e3 - dur * 1e3)
            elif name == "cli.render":
                m["cli.render_s"] += dur
            elif name.startswith("metrics."):
                m["metrics.calls"] += 1
                m["metrics.s"] += dur
                configs_by_metrics += len(op.configs)
            elif name == "analysis.success_pmf":
                m["analysis.success_pmf.calls"] += 1
                m["analysis.success_pmf.s"] += dur
                rss["analysis"] = max(rss["analysis"], span["rss_growth_mb"])
                if parent.startswith("metrics."):
                    m["metrics.pmf_builds"] += 1
                if parent == "simulator.compare_to_exact":
                    under_compare += dur
            elif name == "simulator.estimate_pmf":
                m["simulator.estimate_pmf.s"] += dur
                rss["simulator"] = max(rss["simulator"], span["rss_growth_mb"])
                p = op.params
                frames[p["mode"]][0] += p["frames"]
                frames[p["mode"]][1] += dur
                # int64 user choices, plus float64 grant priorities in binary mode
                draw_bytes += p["frames"] * 8 * (p["T"] + (p["M"] if p["mode"] == "binary" else 0))
                draw_frames += p["frames"]
            elif name == "simulator.compare_to_exact":
                m["simulator.compare_to_exact.s"] += dur
        m["analysis.success_pmf.denominator_bits"] = max(
            m["analysis.success_pmf.denominator_bits"], trace.get("denominator_bits", 0))
        fl = trace.get("float")
        if fl and fl.get("absent"):
            absent.add("analysis.success_pmf_float")
        elif fl:
            for key in ("configs", "refused", "s"):
                m[f"analysis.success_pmf_float.{key}"] += fl[key]
            m["analysis.success_pmf_float.max_rel_err"] = max(
                m["analysis.success_pmf_float.max_rel_err"], fl["max_rel_err"])

    m["trace.ops"] = len(traced)
    traced_wall = sum(o.run.wall - o.trace.get("float", {}).get("wall_s", 0) for o in traced)
    m["trace.overhead"] = traced_wall / sum(o.run.wall for o in replay)
    m["cli.self_s"] = layer_self["cli"]
    m["cli.process_overhead_ms"] = statistics.median(overhead_ms) if overhead_ms else 0.0
    m["cli.stdout_bytes"] = stdout_bytes / len(traced)
    m["metrics.self_s"] = layer_self["metrics"]
    m["metrics.pmf_builds_per_config"] = (
        m["metrics.pmf_builds"] / configs_by_metrics if configs_by_metrics else 0.0)
    m["analysis.success_pmf.self_s"] = layer_self["analysis"]
    m["analysis.success_pmf.peak_mb"] = rss["analysis"]
    m["simulator.self_s"] = layer_self["simulator"]
    m["simulator.peak_mb"] = rss["simulator"]
    for mode, (n, secs) in frames.items():
        m[f"simulator.frames_per_s.{mode}"] = n / secs if secs else 0.0
    m["simulator.draw_bytes_per_frame"] = draw_bytes / draw_frames if draw_frames else 0.0
    if m["simulator.compare_to_exact.s"]:
        m["simulator.compare_to_exact.exact_share"] = under_compare / m["simulator.compare_to_exact.s"]
    if probes.get("absent"):
        absent.add("analysis.stirling2_assoc")
    else:
        m["combinatorics.table_build_s"] = probes["s"]
        m["combinatorics.table_peak_mb"] = probes["peak_mb"]

    # totals become per-operation means, comparable across commits that
    # trace different numbers of operations in the same time
    for name in PER_LAYER:
        if PER_LAYER[name] in ("s", "count") and name not in PER_RUN:
            m[name] /= len(traced)

    missing = {
        name for name in PER_LAYER
        for prefix, boundaries in SOURCES.items()
        if name.startswith(prefix) and all(b in absent for b in boundaries)
    }
    for name in missing:
        m[name] = 0.0

    total = sum(layer_self.values())
    start_s = sum(overhead_ms) / 1e3
    print(f"self time by layer over {len(traced)} traced ops "
          f"(process start {start_s:.3f} s kept apart):")
    for layer in sorted(LAYERS, key=layer_self.get, reverse=True):
        share = layer_self[layer] / total if total else 0.0
        print(f"  {layer:14s} {layer_self[layer]:9.4f} s  {share:6.1%}")
    print(f"dominant layer: {max(LAYERS, key=layer_self.get)}")
    return m, missing


def table_probe(traced: list[Outcome]) -> dict:
    """Cold stirling2_assoc(T, min(M, T // 2)) at the first traced op's
    largest (M, T): wall time in one fresh process, tracemalloc peak in
    another (tracemalloc slows the build several-fold)."""
    p = traced[0].op.params
    m, _, t = max(traced[0].op.configs or [(p["M"], p["K"], p["T"])], key=lambda c: c[2])
    arg = json.dumps({"n": t, "k": min(m, t // 2)})
    records = {}
    for mode in ("table-time", "table-mem"):
        run = spawn([str(HERE / "tracer.py"), mode, arg])
        if run.code != 0:
            print(f"table probe {mode} failed, reported as 0: "
                  f"{run.stderr.decode(errors='replace').strip()[-300:]}")
            return {"s": 0.0, "peak_mb": 0.0}
        records[mode] = json.loads(run.stdout)
    print(f"table probe: stirling2_assoc({t}, {min(m, t // 2)}) cold")
    if records["table-time"].get("absent"):
        return {"absent": True}
    return {"s": records["table-time"]["s"], "peak_mb": records["table-mem"]["peak_mb"]}


def traced_run(workload, seed: int, seconds: float) -> tuple[dict, list[Outcome]]:
    sims = SimulationChecker()
    traced: list[Outcome] = []
    timed = 0.0
    for op in workload.ops(seed):
        outcome = run_traced(op, sims, workload.float_probe)
        traced.append(outcome)
        timed += outcome.run.wall
        print_op(len(traced), outcome)
        if timed >= seconds * TRACE_SHARE:
            break
    print("untraced replay of the same operations:")
    replay = []
    for op in (o.op for o in traced):
        replay.append(run_untraced(op, sims))
        print_op(len(replay), replay[-1])
    probes = table_probe(traced)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps([
        {"op": i, "argv": o.op.argv, **{k: v for k, v in o.trace.items() if k != "stdout"}}
        for i, o in enumerate(traced)
    ]))
    print(f"spans written to {path.relative_to(ROOT)}")

    metrics, missing = layer_metrics(traced, replay, probes)
    metrics["simulator.tv_distance_max"] = sims.tv_max
    for name, unit in PER_LAYER.items():
        note = "  (absent: boundary gone from the package)" if name in missing else ""
        print(f"{name:42s} {metrics[name]:.6g} {unit}{note}")
    return {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}, traced + replay


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-ops", type=int, metavar="N",
                        help="print the first N generated operations and exit")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.list_ops:
        for op in workload.op_list(args.seed, args.list_ops):
            print(op.describe())
        return 0
    if not (SRC / "accessframe" / "__init__.py").is_file():
        print(f"error: no accessframe package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(f"accessframe benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(machine_line())
    if args.trace:
        metrics, outcomes = traced_run(workload, args.seed, args.seconds)
    else:
        metrics, outcomes = end_to_end(workload, args.seed, args.seconds)
    failed = sum(o.error is not None for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
