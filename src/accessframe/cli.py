"""Command-line front end.

Subcommands map one-to-one onto the library: ``pmf`` (exact success
distribution), ``metrics`` (rate and efficiency for one configuration),
``sweep`` (tables along the user or data-slot axis), ``simulate``
(seeded Monte Carlo estimate), ``compare`` (``compare_to_exact(estimate,
exact)``, the exact pmf built before any frame is drawn) and
``optimize-k`` (efficiency-maximizing data-phase size).  Arguments in,
records out: each handler returns the record its library call made, and
:func:`main` alone writes it, as ``to_csv()`` or ``to_json()`` and a
newline, to standard output or ``--output``; diagnostics go to stderr.

Each subcommand takes only the flags it reads: ``optimize-k`` takes
``--tokens`` and ``--users``, and ``sweep`` takes ``--tokens`` and the
flag of the axis it holds fixed, the swept one's values coming from
``--range`` alone.

Exit status: 0 on success, 1 when a value fails validation, a sweep is
given its swept axis's flag, the input is too large to compute or the
output cannot be written, 2 on usage errors (a missing or unknown flag,
an unreadable argument file), which name the subcommand when they
follow it.

The command line is the only input: no environment variable changes
what is written.  ``accessframe <subcommand> @FILE`` reads further
arguments from ``FILE``, one per line, in place of ``@FILE``; argparse
keeps the last value given for a flag, so a flag after ``@FILE``
overrides the file and one before it does not.

Each handler imports the modules it runs when it runs, so ``pmf`` loads
``analysis`` and ``combinatorics``, the other exact subcommands add
``metrics``, only ``simulate`` and ``compare`` load ``simulator``, and
``--help`` loads none of them.

:func:`run` is the process entry (``python -m accessframe`` and the
``accessframe`` script): it runs :func:`main` on the command line and
freezes the heap before the interpreter shuts down.  :func:`main` is the
call for use inside a process; it never freezes.
"""

from __future__ import annotations

import argparse
import gc
import sys

__all__ = ["build_parser", "main", "run"]

def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default="json",
        help="output format (default json)",
    )
    parser.add_argument(
        "--output", metavar="PATH", help="write the document here instead of stdout"
    )


_CONFIG_HELP = {
    "tokens": "contention tokens available per frame (M)",
    "slots": "data slots per frame (K)",
    "users": "users contending in the frame (T)",
}


def _add_config_flags(
    parser: argparse.ArgumentParser, *names: str, required: bool = True
) -> None:
    for name in names:
        parser.add_argument(
            f"--{name}", type=int, required=required, help=_CONFIG_HELP[name]
        )


def _add_draw_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, required=True, help="64-bit unsigned stream seed"
    )
    parser.add_argument(
        "--iterations", type=int, default=100000, help="frames to draw"
    )


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which reports an argument it does not take
    under its own usage line; argparse would hand it back to the
    top-level parser, whose usage names no subcommand."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accessframe",
        description="Exact analysis and seeded simulation of a two-phase "
        "access reservation frame (token contention plus TDM data slots).",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    pmf = sub.add_parser(
        "pmf", help="distribution of per-frame successes"
    )
    _add_config_flags(pmf, "tokens", "slots", "users")
    _add_output_flags(pmf)
    pmf.set_defaults(handler=_run_pmf)

    metrics = sub.add_parser(
        "metrics", help="expected successes, success rate and efficiency"
    )
    _add_config_flags(metrics, "tokens", "slots", "users")
    _add_output_flags(metrics)
    metrics.set_defaults(handler=_run_metrics)

    sweep_cmd = sub.add_parser(
        "sweep", help="tabulate metrics along the user or data-slot axis"
    )
    _add_config_flags(sweep_cmd, "tokens")
    _add_config_flags(sweep_cmd, "slots", "users", required=False)
    sweep_cmd.add_argument(
        "--axis",
        choices=("users", "data-slots"),
        required=True,
        help="which parameter varies",
    )
    sweep_cmd.add_argument(
        "--range",
        metavar="LO:HI",
        required=True,
        help="inclusive axis range",
    )
    _add_output_flags(sweep_cmd)
    sweep_cmd.set_defaults(handler=_run_sweep)

    simulate = sub.add_parser(
        "simulate", help="seeded Monte Carlo estimate of the success pmf"
    )
    _add_config_flags(simulate, "tokens", "slots", "users")
    _add_draw_flags(simulate)
    simulate.add_argument(
        "--mode",
        choices=("binary", "ternary"),
        default="binary",
        help="contention detection: idle/active or idle/single/collision",
    )
    _add_output_flags(simulate)
    simulate.set_defaults(handler=_run_simulate)

    compare = sub.add_parser(
        "compare", help="distance between a simulated and the exact pmf"
    )
    _add_config_flags(compare, "tokens", "slots", "users")
    _add_draw_flags(compare)
    _add_output_flags(compare)
    compare.set_defaults(handler=_run_compare)

    optimize = sub.add_parser(
        "optimize-k", help="data-phase size that maximizes efficiency"
    )
    _add_config_flags(optimize, "tokens", "users")
    optimize.add_argument(
        "--k-max", type=int, required=True, help="largest data-phase size to try"
    )
    _add_output_flags(optimize)
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


def _config(args: argparse.Namespace):
    from .analysis import SystemConfig

    return SystemConfig(args.tokens, args.slots, args.users)


def _run_pmf(args: argparse.Namespace):
    return success_pmf(_config(args))


def _run_metrics(args: argparse.Namespace):
    return frame_metrics(_config(args))


def _run_sweep(args: argparse.Namespace):
    from .metrics import Axis

    axis = Axis(args.axis.replace("-", "_"))
    try:
        lo, hi = map(int, args.range.split(":"))
    except ValueError:
        raise ValueError(f"range must be LO:HI, got {args.range!r}") from None
    swept, needed = ("users", "slots") if axis is Axis.USERS else ("slots", "users")
    if getattr(args, swept) is not None:
        raise ValueError(f"drop --{swept}: --axis {args.axis} sweeps it over --range")
    if getattr(args, needed) is None:
        raise ValueError(f"sweep needs --{needed}")
    # sweep never reads the base's swept field, and 1 is valid for either
    setattr(args, swept, 1)
    return sweep(_config(args), axis, range(lo, hi + 1))


def _run_simulate(args: argparse.Namespace):
    from .simulator import SimParams

    return estimate_pmf(SimParams(_config(args), args.iterations, args.seed, args.mode))


def _run_compare(args: argparse.Namespace):
    from .simulator import SimParams, compare_to_exact

    params = SimParams(_config(args), args.iterations, args.seed)
    # the exact pmf first, so an input too large for it draws no frame
    exact = success_pmf(params.config)
    return compare_to_exact(estimate_pmf(params), exact)


def _run_optimize(args: argparse.Namespace):
    from .metrics import OptimalDataSlots

    best = optimal_data_slots(args.tokens, args.users, args.k_max)
    return OptimalDataSlots(args.tokens, args.users, args.k_max, *best)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    document = record.to_csv() if args.format == "csv" else record.to_json() + "\n"
    try:
        if args.output is None:
            sys.stdout.write(document)
        else:
            with open(args.output, "w") as fh:
                fh.write(document)
    except OSError as exc:
        target = args.output or "standard output"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and exit the process with its code.

    Whatever way :func:`main` ends (a code, argparse's ``SystemExit`` for
    ``--help`` and usage errors, or an exception), every object still
    alive is then moved into the permanent generation with
    ``gc.freeze()``, so the collections the interpreter runs at shutdown
    skip them and the operating system reclaims their memory.  Output,
    exit codes, ``atexit`` handlers and file flushes are unchanged; only
    the shutdown walk over the heap goes.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()
