"""Command-line front end.

Subcommands map one-to-one onto the library: ``pmf`` (exact success
distribution), ``metrics`` (rate and efficiency for one configuration),
``sweep`` (tables along the user or data-slot axis), ``simulate``
(seeded Monte Carlo estimate), ``compare`` (simulation vs the exact pmf)
and ``optimize-k`` (efficiency-maximizing data-phase size).  Results go
to standard output or ``--output`` as CSV or JSON; diagnostics go to
standard error only.

Exit status: 0 on success, 1 when a value fails validation, the input
is too large to compute or the output cannot be written, 2 on usage
errors.

Each handler imports the modules it runs when it runs, so ``pmf`` loads
``analysis`` and ``combinatorics``, the other exact subcommands add
``metrics``, only ``simulate`` and ``compare`` load ``simulator``, and
``--help`` loads none of them.
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["build_parser", "main"]

#: Environment variable holding the default output format.
FORMAT_ENV = "ACCESSFRAME_FORMAT"


def _default_format() -> str:
    value = os.environ.get(FORMAT_ENV, "json").lower()
    if value not in ("csv", "json"):
        print(
            f"warning: ignoring {FORMAT_ENV}={value!r} (want csv or json)",
            file=sys.stderr,
        )
        return "json"
    return value


def _add_output_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default=default_format,
        help=f"output format (default json, or ${FORMAT_ENV})",
    )
    parser.add_argument(
        "--output", metavar="PATH", help="write the document here instead of stdout"
    )


def _add_config_flags(
    parser: argparse.ArgumentParser, *, required: tuple[str, ...]
) -> None:
    parser.add_argument(
        "--tokens",
        type=int,
        required="tokens" in required,
        help="contention tokens available per frame (M)",
    )
    parser.add_argument(
        "--slots",
        type=int,
        required="slots" in required,
        help="data slots per frame (K)",
    )
    parser.add_argument(
        "--users",
        type=int,
        required="users" in required,
        help="users contending in the frame (T)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accessframe",
        description="Exact analysis and seeded simulation of a two-phase "
        "access reservation frame (token contention plus TDM data slots).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = _default_format()

    pmf = sub.add_parser(
        "pmf", help="distribution of per-frame successes"
    )
    _add_config_flags(pmf, required=("tokens", "slots", "users"))
    _add_output_flags(pmf, fmt)
    pmf.set_defaults(handler=_run_pmf)

    metrics = sub.add_parser(
        "metrics", help="expected successes, success rate and efficiency"
    )
    _add_config_flags(metrics, required=("tokens", "slots", "users"))
    _add_output_flags(metrics, fmt)
    metrics.set_defaults(handler=_run_metrics)

    sweep_cmd = sub.add_parser(
        "sweep", help="tabulate metrics along the user or data-slot axis"
    )
    _add_config_flags(sweep_cmd, required=())
    sweep_cmd.add_argument(
        "--axis",
        choices=("users", "data-slots"),
        help="which parameter varies",
    )
    sweep_cmd.add_argument(
        "--range",
        metavar="LO:HI",
        help="inclusive axis range",
    )
    sweep_cmd.add_argument(
        "--config",
        metavar="FILE",
        help="JSON file with tokens/slots/users/axis/range; flags override it",
    )
    _add_output_flags(sweep_cmd, fmt)
    sweep_cmd.set_defaults(handler=_run_sweep)

    simulate = sub.add_parser(
        "simulate", help="seeded Monte Carlo estimate of the success pmf"
    )
    _add_config_flags(simulate, required=("tokens", "slots", "users"))
    simulate.add_argument(
        "--seed", type=int, required=True, help="64-bit unsigned stream seed"
    )
    simulate.add_argument(
        "--iterations", type=int, default=100000, help="frames to draw"
    )
    simulate.add_argument(
        "--mode",
        choices=("binary", "ternary"),
        default="binary",
        help="contention detection: idle/active or idle/single/collision",
    )
    _add_output_flags(simulate, fmt)
    simulate.set_defaults(handler=_run_simulate)

    compare = sub.add_parser(
        "compare", help="distance between a simulated and the exact pmf"
    )
    _add_config_flags(compare, required=("tokens", "slots", "users"))
    compare.add_argument(
        "--seed", type=int, required=True, help="64-bit unsigned stream seed"
    )
    compare.add_argument(
        "--iterations", type=int, default=100000, help="frames to draw"
    )
    _add_output_flags(compare, fmt)
    compare.set_defaults(handler=_run_compare)

    optimize = sub.add_parser(
        "optimize-k", help="data-phase size that maximizes efficiency"
    )
    _add_config_flags(optimize, required=("tokens", "users"))
    optimize.add_argument(
        "--k-max", type=int, required=True, help="largest data-phase size to try"
    )
    _add_output_flags(optimize, fmt)
    optimize.set_defaults(handler=_run_optimize)

    return parser


# The library calls behind the handlers, each importing its module at its
# first call.  They stay names of this module, so a wrapper set here
# (perfbench/tracer.py times each call that way) sees every call.
def success_pmf(config):
    from .analysis import success_pmf

    return success_pmf(config)


def frame_metrics(config):
    from .metrics import frame_metrics

    return frame_metrics(config)


def sweep(base, axis, values):
    from .metrics import sweep

    return sweep(base, axis, values)


def optimal_data_slots(tokens, users, k_max):
    from .metrics import optimal_data_slots

    return optimal_data_slots(tokens, users, k_max)


def estimate_pmf(params):
    from .simulator import estimate_pmf

    return estimate_pmf(params)


def _run_pmf(args: argparse.Namespace) -> str:
    from .analysis import SystemConfig

    pmf = success_pmf(SystemConfig(args.tokens, args.slots, args.users))
    return pmf.to_csv() if args.format == "csv" else pmf.to_json()


def _run_metrics(args: argparse.Namespace) -> str:
    from .analysis import SystemConfig

    report = frame_metrics(SystemConfig(args.tokens, args.slots, args.users))
    return report.to_csv() if args.format == "csv" else report.to_json()


def _parse_range(value) -> tuple[int, int]:
    from .analysis import _is_int

    if isinstance(value, str):
        lo, sep, hi = value.partition(":")
        try:
            if sep:
                return int(lo), int(hi)
        except ValueError:
            pass
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        if all(_is_int(v) for v in value):
            return value[0], value[1]
    raise ValueError(f"range must be LO:HI or a two-integer array, got {value!r}")


def _run_sweep(args: argparse.Namespace) -> str:
    import json

    from .analysis import SystemConfig, _is_int
    from .metrics import Axis

    merged: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        merged.update(loaded)
    for key in ("tokens", "slots", "users", "axis", "range"):
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag

    if merged.get("axis") is None:
        raise ValueError("sweep needs an axis (--axis or config file)")
    axis = Axis(str(merged["axis"]).replace("-", "_"))
    if merged.get("range") is None:
        raise ValueError("sweep needs a range (--range or config file)")
    lo, hi = _parse_range(merged["range"])

    def field(key: str, fallback: int | None = None) -> int:
        value = merged.get(key)
        if value is None:
            if fallback is None:
                needed = "--tokens" if key == "tokens" else f"--{key} or config file"
                raise ValueError(f"sweep needs {needed}")
            return fallback
        if _is_int(value):
            return value
        raise ValueError(f"{key} must be an integer, got {value!r}")

    # the swept field's base value is never read; fill it with anything valid
    if axis is Axis.USERS:
        base = SystemConfig(field("tokens"), field("slots"), field("users", 0))
    else:
        base = SystemConfig(field("tokens"), field("slots", 1), field("users"))

    report = sweep(base, axis, range(lo, hi + 1))
    return report.to_csv() if args.format == "csv" else report.to_json()


def _run_simulate(args: argparse.Namespace) -> str:
    from .analysis import SystemConfig
    from .simulator import DetectionMode, SimParams

    params = SimParams(
        config=SystemConfig(args.tokens, args.slots, args.users),
        iterations=args.iterations,
        seed=args.seed,
        mode=DetectionMode(args.mode),
    )
    report = estimate_pmf(params)
    return report.to_csv() if args.format == "csv" else report.to_json()


def _run_compare(args: argparse.Namespace) -> str:
    from .analysis import SystemConfig
    from .simulator import SimParams, _compare

    config = SystemConfig(args.tokens, args.slots, args.users)
    params = SimParams(config=config, iterations=args.iterations, seed=args.seed)
    # the exact pmf first: an input too large for it is refused before
    # any frame is drawn
    exact = success_pmf(config)
    record = _compare(estimate_pmf(params), exact)
    return record.to_csv() if args.format == "csv" else record.to_json()


def _run_optimize(args: argparse.Namespace) -> str:
    import json

    from .analysis import csv_float, json_rational

    best_k, best_value = optimal_data_slots(args.tokens, args.users, args.k_max)
    if args.format == "csv":
        return (
            "M,T,k_max,K_star,efficiency\n"
            f"{args.tokens},{args.users},{args.k_max},{best_k},"
            f"{csv_float(best_value)}\n"
        )
    return json.dumps(
        {
            "M": args.tokens,
            "T": args.users,
            "k_max": args.k_max,
            "K_star": best_k,
            "efficiency": json_rational(best_value),
        },
        indent=2,
    )


def _emit(document: str, path: str | None) -> None:
    if not document.endswith("\n"):
        document += "\n"
    if path is None:
        sys.stdout.write(document)
    else:
        with open(path, "w") as fh:
            fh.write(document)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        document = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(document, args.output)
    except OSError as exc:
        target = args.output or "standard output"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0
