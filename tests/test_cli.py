"""Command-line behavior: formats, exit codes, determinism, argument files."""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import subprocess
import sys
import time

import pytest

from accessframe.analysis import (
    Record,
    SuccessPmf,
    SystemConfig,
    parse_rational,
    success_pmf,
)
from accessframe.cli import build_parser, main
from accessframe.metrics import Axis, expected_successes, frame_metrics, sweep
from accessframe.simulator import SimParams, compare_to_exact, estimate_pmf
from documents import DOCUMENTS
from oracles import expected_successes_by_occupancy


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pmf_csv_is_exact(capsys):
    code, out, err = run_cli(
        capsys, "pmf", "--tokens", "2", "--slots", "1", "--users", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out == "d,probability\n0,0.5\n1,0.5\n"
    assert err == ""


def test_pmf_json_round_trips_byte_identically(capsys):
    code, out, _ = run_cli(
        capsys, "pmf", "--tokens", "8", "--slots", "4", "--users", "12",
        "--format", "json",
    )
    assert code == 0
    assert SuccessPmf.from_json(out).to_json() + "\n" == out
    payload = json.loads(out)
    assert payload["kind"] == "exact"
    assert payload["mass"][0].count("/") == 1


def test_metrics_csv_row(capsys):
    code, out, _ = run_cli(
        capsys, "metrics", "--tokens", "2", "--slots", "1", "--users", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out == (
        "M,K,T,expected_successes,success_rate,efficiency\n"
        "2,1,2,0.5,0.25,0.25\n"
    )


def test_metrics_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "metrics", "--tokens", "8", "--slots", "4", "--users", "12",
    )
    assert code == 0
    assert out == frame_metrics(SystemConfig(8, 4, 12)).to_json() + "\n"


def test_validation_failure_exits_one_with_empty_stdout(capsys):
    code, out, err = run_cli(
        capsys, "pmf", "--tokens", "0", "--slots", "1", "--users", "2",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_pmf_has_no_method_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["pmf", "--tokens", "8", "--slots", "4", "--users", "12",
              "--method", "float"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--method" in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("simulate", "--tokens", "4", "--slots", "2", "--users", "6"), "--seed"),
        # optimize-k tries every K up to --k-max, so it reads no --slots
        (("optimize-k", "--tokens", "4", "--users", "3", "--k-max", "3",
          "--slots", "4"), "--slots"),
    ],
    ids=["simulate-without-seed", "optimize-k-with-slots"],
)
def test_usage_failure_exits_two(capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    # the subcommand's own parser reports it, under its own usage line
    assert captured.err.startswith(f"usage: accessframe {argv[0]} ")


#: The flags each subcommand reads, and no other: a flag that a handler
#: ignores would let a command line say more than the document it writes.
SUBCOMMAND_FLAGS = {
    "pmf": {"--tokens", "--slots", "--users"},
    "metrics": {"--tokens", "--slots", "--users"},
    "sweep": {"--tokens", "--slots", "--users", "--axis", "--range"},
    "simulate": {"--tokens", "--slots", "--users", "--seed", "--iterations",
                 "--mode"},
    "compare": {"--tokens", "--slots", "--users", "--seed", "--iterations"},
    "optimize-k": {"--tokens", "--users", "--k-max"},
}


def _subparsers() -> dict:
    (action,) = (action for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", list(_subparsers()))
def test_each_subcommand_takes_only_the_flags_it_reads(command):
    flags = {option for action in _subparsers()[command]._actions
             for option in action.option_strings}
    assert flags == SUBCOMMAND_FLAGS[command] | {"-h", "--help", "--format", "--output"}


#: A simulation over 10**309 tokens, past float range: the state walk
#: reads the token count only as a float, so it refuses this one; every
#: other size is small.
TOO_MANY_TOKENS = ("--tokens", str(10**309), "--slots", "1", "--users", "3",
                   "--seed", "1", "--iterations", "10")


def test_oversized_input_exits_one_with_hint(capsys):
    # too long a surjection roll, too large a moment sum, a walk over too
    # many state-steps (compare's exact pmf refuses it first, and its
    # cost grows with tokens too), more tokens than a float holds, and
    # too many sweep values
    simulation = ("--tokens", "8", "--slots", "4", "--users", "400000000",
                  "--seed", "1", "--iterations", "100000")
    exact_hint = "fewer users or tokens"
    walk_hint = "use fewer users or frames\n"
    token_hint = "the most a float holds; use fewer tokens\n"
    huge = str(10**400)  # past float range
    for argv, hint in [
        (("pmf", "--tokens", "128", "--slots", "32", "--users", "20000"), exact_hint),
        (("pmf", "--tokens", "1000", "--slots", "100", "--users", "1000"), exact_hint),
        (("pmf", "--tokens", "1000", "--slots", "500", "--users", "1000"), exact_hint),
        (("simulate", *simulation), walk_hint),
        # at the default frame count: 4.4e10 state-steps, with no credit
        # for the early absorption that M = 8 would reach
        (("simulate", "--tokens", "8", "--slots", "4", "--users", "300000000",
          "--seed", "1"), walk_hint),
        (("compare", *simulation), exact_hint),
        (("simulate", *TOO_MANY_TOKENS), token_hint),
        (("compare", *TOO_MANY_TOKENS), token_hint),
        (("metrics", "--tokens", "64", "--slots", "8", "--users", "100000"), exact_hint),
        (("sweep", "--tokens", "8", "--users", "12",
          "--axis", "data-slots", "--range", "1:10000000"), exact_hint),
        # more sweep values than len() of a range can count
        (("sweep", "--tokens", "8", "--users", "12",
          "--axis", "data-slots", "--range", f"1:{10**20}"), exact_hint),
        (("sweep", "--tokens", "8", "--slots", "4",
          "--axis", "users", "--range", f"1:{10**20}"), exact_hint),
        # user counts and sweep lengths past float range are refused, not
        # converted to a float; so is a pmf whose estimate overflows below it
        (("pmf", "--tokens", "4", "--slots", "2", "--users", huge), exact_hint),
        (("pmf", "--tokens", "4", "--slots", "2", "--users", str(10**200)), exact_hint),
        (("metrics", "--tokens", "4", "--slots", "2", "--users", huge), exact_hint),
        (("sweep", "--tokens", "4", "--slots", "2",
          "--axis", "users", "--range", f"1:{huge}"), exact_hint),
        (("sweep", "--tokens", "4", "--users", "5",
          "--axis", "data-slots", "--range", f"1:{huge}"), exact_hint),
        (("optimize-k", "--tokens", "4", "--users", huge, "--k-max", "2"), exact_hint),
        (("compare", "--tokens", "4", "--slots", "2", "--users", huge,
          "--seed", "1"), exact_hint),
        (("simulate", "--tokens", "4", "--slots", "2", "--users", huge,
          "--seed", "1"), walk_hint),
    ]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and hint in err, argv
    # a seeded first row fits 64 tokens and 20000 users
    for command in ("pmf", "metrics"):
        code, out, err = run_cli(
            capsys, command, "--tokens", "64", "--slots", "8", "--users", "20000"
        )
        assert code == 0 and err == "" and json.loads(out)["T"] == 20000


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_simulation_draws_from_up_to_2_63_tokens(capsys, command):
    # and past them, up to float range
    for tokens in (2**63, 10**300):
        code, out, err = run_cli(capsys, command, "--tokens", str(tokens),
                                 *TOO_MANY_TOKENS[2:], "--format", "csv")
        assert code == 0 and err == ""
        assert out.splitlines()[1].startswith(f"{tokens},1,3,")


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_simulation_fits_tens_of_thousands_of_users(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--tokens", "8", "--slots", "4", "--users", "20000",
        "--seed", "1", "--iterations", "100",
    )
    assert code == 0 and err == ""
    assert json.loads(out)["iterations"] == 100


@pytest.mark.parametrize(
    "tokens, slots, users", [(1000, 8, 1000), (600, 8, 600), (400, 100, 400)]
)
def test_pmf_fits_tokens_and_users_in_the_hundreds(capsys, tokens, slots, users):
    code, out, err = run_cli(
        capsys, "pmf", "--tokens", str(tokens), "--slots", str(slots),
        "--users", str(users),
    )
    assert code == 0 and err == ""
    pmf = SuccessPmf.from_json(out)
    assert sum(pmf.mass) == 1
    assert pmf.mean() == expected_successes(SystemConfig(tokens, slots, users))


@pytest.fixture(scope="module")
def mean_past_the_str_limit():
    return expected_successes(SystemConfig(64, 8, 5000))


@pytest.mark.parametrize(
    "argv",
    [
        ("pmf", "--tokens", "64", "--slots", "8", "--users", "5000"),
        ("metrics", "--tokens", "64", "--slots", "8", "--users", "5000"),
        ("sweep", "--tokens", "64", "--slots", "8", "--axis", "users",
         "--range", "5000:5000"),
        ("optimize-k", "--tokens", "64", "--users", "5000", "--k-max", "8"),
    ],
    ids=lambda argv: argv[0],
)
def test_exact_json_past_the_str_limit(capsys, argv, mean_past_the_str_limit):
    # denominators of 64**5000, 9031 digits; the interpreter's int -> str
    # limit is left as it was
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(out)
    mean = mean_past_the_str_limit
    if argv[0] == "pmf":
        pmf = SuccessPmf.from_json(out)
        assert pmf.to_json() + "\n" == out
        assert sum(pmf.mass) == 1 and pmf.mean() == mean
    elif argv[0] == "optimize-k":
        assert doc["K_star"] == 8
        assert parse_rational(doc["efficiency"]) == mean / 9
    else:
        row = doc["rows"][0] if argv[0] == "sweep" else doc
        assert parse_rational(row["expected_successes"]) == mean


def test_compare_refuses_oversized_exact_pmf_before_simulating(capsys, monkeypatch):
    def no_simulation(params):
        raise AssertionError("compare simulated before checking the exact pmf")

    monkeypatch.setattr("accessframe.simulator.estimate_pmf", no_simulation)
    code, out, err = run_cli(
        capsys, "compare", "--tokens", "1000", "--slots", "100", "--users", "1000",
        "--seed", "1", "--iterations", "30000",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "fewer users or tokens" in err


def test_metrics_fit_where_the_pmf_does_not(capsys):
    # one surjection row at M = T = 1000; the pmf's moment sums at K = 100
    # are refused
    code, out, err = run_cli(
        capsys, "metrics", "--tokens", "1000", "--slots", "100", "--users", "1000"
    )
    assert code == 0 and err == ""
    assert parse_rational(json.loads(out)["expected_successes"]) == (
        expected_successes_by_occupancy(1000, 100, 1000)
    )


def test_exact_path_fits_users_far_past_tokens(capsys):
    # the first row of a window is seeded, not rolled to from row 0
    mean = expected_successes_by_occupancy(16, 4, 20000)
    config = ("--tokens", "16", "--slots", "4", "--users", "20000")
    code, out, err = run_cli(capsys, "metrics", *config)
    assert code == 0 and err == ""
    assert parse_rational(json.loads(out)["expected_successes"]) == mean
    code, out, err = run_cli(capsys, "pmf", *config)
    assert code == 0 and err == ""
    assert SuccessPmf.from_json(out).mean() == mean


@pytest.mark.parametrize(
    "tokens, users",
    [(263402751649287815256, 300), (10**400, 3)],
    ids=["past-2**53", "past-1e308"],
)
def test_metrics_fit_past_float_precision_in_tokens(capsys, tokens, users):
    # log2 C(M, a) as a difference of lgammas reads 0 to thousands of
    # times its width past 2**53, and lgamma overflows past 1e308
    code, out, err = run_cli(
        capsys, "metrics", "--tokens", str(tokens), "--slots", "4", "--users", str(users)
    )
    assert code == 0 and err == ""
    assert parse_rational(json.loads(out)["expected_successes"]) == (
        expected_successes_by_occupancy(tokens, 4, users)
    )


def test_simulate_is_reproducible(capsys):
    argv = (
        "simulate", "--tokens", "8", "--slots", "4", "--users", "12",
        "--seed", "42", "--iterations", "2000",
    )
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["rng"] == "numpy-pcg64/v5"
    assert payload["seed"] == 42
    assert sum(payload["counts"]) == 2000


def test_simulate_ternary_mode_flag(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--tokens", "8", "--slots", "4", "--users", "12",
        "--seed", "1", "--iterations", "500", "--mode", "ternary",
        "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.endswith(",mode,seed,iterations")
    assert ",ternary,1,500" in row


def test_output_flag_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "report.json"
    argv = (
        "simulate", "--tokens", "4", "--slots", "2", "--users", "6",
        "--seed", "7", "--iterations", "1000",
    )
    code, out, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 0
    assert out == ""
    code, out, _ = run_cli(capsys, *argv)
    assert target.read_text() == out


def test_output_to_unwritable_path_exits_one(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "pmf", "--tokens", "2", "--slots", "1", "--users", "2",
        "--output", str(target),
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def test_compare_reference_point_stays_close(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--tokens", "8", "--slots", "8", "--users", "12",
        "--seed", "42", "--iterations", "100000",
    )
    assert code == 0
    payload = json.loads(out)
    params = SimParams(SystemConfig(8, 8, 12), iterations=100000, seed=42)
    record = compare_to_exact(estimate_pmf(params), success_pmf(params.config))
    assert payload["tv_distance"] == float(record.tv_distance)
    assert 0 < payload["tv_distance"] <= 0.01
    assert payload["mode"] == "binary"


def test_sweep_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--tokens", "2", "--slots", "1",
        "--axis", "users", "--range", "1:4", "--format", "csv",
    )
    assert code == 0
    report = sweep(SystemConfig(2, 1, 0), Axis.USERS, range(1, 5))
    assert out == report.to_csv()


def _args_file(tmp_path, *argv: str) -> str:
    """An argument file holding ``argv`` one per line, as ``@PATH``."""
    path = tmp_path / "run.args"
    path.write_text("".join(f"{arg}\n" for arg in argv))
    return f"@{path}"


def test_argument_file_writes_the_pinned_document(capsys, tmp_path):
    command = "pmf --tokens 8 --slots 4 --users 12 --format json"
    pmf, *flags = command.split()
    code, out, _ = run_cli(capsys, pmf, _args_file(tmp_path, *flags))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DOCUMENTS[command]


def test_flag_after_argument_file_overrides_it(capsys, tmp_path):
    args = _args_file(tmp_path, "--tokens", "2", "--slots", "1", "--users", "2",
                      "--format", "csv")
    code, out, _ = run_cli(capsys, "pmf", "--format", "json", args)
    assert code == 0
    assert out.startswith("d,probability\n")
    code, out, _ = run_cli(capsys, "pmf", args, "--format", "json")
    assert code == 0
    assert json.loads(out)["mass"] == ["1/2", "1/2"]


def test_sweep_takes_its_required_flags_from_an_argument_file(capsys, tmp_path):
    args = _args_file(tmp_path, "--tokens", "8", "--axis", "users",
                      "--range", "1:3")
    code, out, _ = run_cli(capsys, "sweep", args, "--slots", "4")
    assert code == 0
    assert out == sweep(SystemConfig(8, 4, 0), Axis.USERS, range(1, 4)).to_json() + "\n"


def test_missing_argument_file_exits_two(capsys, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["pmf", f"@{tmp_path / 'absent.args'}"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "absent.args" in captured.err


@pytest.mark.parametrize("missing", ["--tokens", "--axis", "--range"])
def test_sweep_without_a_required_flag_exits_two(capsys, missing):
    argv = {"--tokens": "2", "--slots": "1", "--axis": "users", "--range": "1:3"}
    del argv[missing]
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", *(word for pair in argv.items() for word in pair)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert missing in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--tokens", "8", "--slots", "4", "--axis", "users", "--range", "a:b"),
         "range must be LO:HI, got 'a:b'"),
        (("--tokens", "8", "--axis", "users", "--range", "1:3"),
         "sweep needs --slots"),
        (("--tokens", "8", "--axis", "data-slots", "--range", "1:3"),
         "sweep needs --users"),
        (("--tokens", "8", "--slots", "4", "--axis", "users", "--range", "0:3"),
         "success rate needs at least one user"),
        # the swept axis takes its values from --range alone
        (("--tokens", "8", "--slots", "4", "--users", "999", "--axis", "users",
          "--range", "1:3"), "drop --users: --axis users sweeps it over --range"),
        (("--tokens", "8", "--slots", "77", "--users", "12", "--axis",
          "data-slots", "--range", "1:3"),
         "drop --slots: --axis data-slots sweeps it over --range"),
    ],
    ids=["range", "no-slots-flag", "no-users-flag", "no-users", "users-flag-on-users",
         "slots-flag-on-data-slots"],
)
def test_sweep_input_errors_exit_one(capsys, argv, message):
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_simulate_without_users_leaves_the_rate_empty(capsys):
    argv = ("simulate", "--tokens", "8", "--slots", "4", "--users", "0",
            "--seed", "1", "--iterations", "10")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert '"success_rate": null' in out
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "8,4,0,0,,0,binary,1,10"


def test_optimize_k_formats(capsys):
    code, out, _ = run_cli(
        capsys, "optimize-k", "--tokens", "1", "--users", "1", "--k-max", "8",
    )
    assert code == 0
    assert json.loads(out) == {
        "M": 1, "T": 1, "k_max": 8, "K_star": 1, "efficiency": "1/2",
    }
    code, out, _ = run_cli(
        capsys, "optimize-k", "--tokens", "1", "--users", "1", "--k-max", "8",
        "--format", "csv",
    )
    assert code == 0
    assert out == "M,T,k_max,K_star,efficiency\n1,1,8,1,0.5\n"


def _entry_pins() -> list[str]:
    """The first pin of ``documents.DOCUMENTS`` for each subcommand and
    format."""
    pins: dict[tuple[str, str], str] = {}
    for command in DOCUMENTS:
        words = command.split()
        if "--format" in words:
            pins.setdefault((words[0], words[words.index("--format") + 1]), command)
    return list(pins.values())


@pytest.mark.parametrize("command", _entry_pins())
def test_handlers_return_the_record_main_writes(capsys, command):
    # one render site: a handler returns its library call's record, and
    # main's stdout is that record's document in the chosen format
    args = build_parser().parse_args(command.split())
    record = args.handler(args)
    assert isinstance(record, Record)
    expected = record.to_csv() if args.format == "csv" else record.to_json() + "\n"
    assert main(command.split()) == 0
    assert capsys.readouterr().out == expected


#: Command lines that end without a document, with their exit codes: a
#: value that fails validation, a usage error and the help text.
ENDINGS = {"pmf --tokens 0 --slots 1 --users 2": 1, "pmf --tokens 2": 2, "--help": 0}


def _in_process(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as stop:  # argparse's usage errors and --help
        return stop.code


@pytest.mark.parametrize("command", [*_entry_pins(), *ENDINGS])
def test_module_entry_point_runs(capsys, command):
    result = subprocess.run(
        [sys.executable, "-m", "accessframe", *command.split()], capture_output=True
    )
    if command in DOCUMENTS:
        expected = DOCUMENTS[command]
    else:
        # what main() writes in-process: nothing, or the help text
        code = _in_process(command.split())
        assert code == ENDINGS[command]
        out = capsys.readouterr().out
        assert (out == "") == (code != 0)
        expected = (code, hashlib.sha256(out.encode()).hexdigest())
    assert (result.returncode, hashlib.sha256(result.stdout).hexdigest()) == expected


#: Runs ``python -m accessframe`` through runpy in a fresh interpreter,
#: then prints its exit code and whether it froze objects (3.12 starts
#: with some frozen already).
_FREEZE_PROBE = """
import gc, runpy
before = gc.get_freeze_count()
try:
    runpy.run_module("accessframe", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    print(stop.code, before < gc.get_freeze_count())
"""


@pytest.mark.parametrize("command", [next(iter(DOCUMENTS)), *ENDINGS])
def test_process_entry_freezes_the_heap_before_exit(command):
    result = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE, *command.split()],
        capture_output=True,
        text=True,
    )
    code = DOCUMENTS[command][0] if command in DOCUMENTS else ENDINGS[command]
    assert result.stdout.splitlines()[-1] == f"{code} True", result.stderr


def test_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    for command in [next(iter(DOCUMENTS)), *ENDINGS]:
        _in_process(command.split())
    capsys.readouterr()
    assert gc.get_freeze_count() == before


#: Runs ``cli.main(argv)`` in a fresh interpreter, then prints the exit
#: code, whether numpy, dataclasses and inspect were imported, and the
#: package's loaded submodules.
_MODULE_PROBE = """
import sys
from accessframe.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as stop:
    code = stop.code
loaded = set(sys.modules)
submodules = sorted(
    name.removeprefix("accessframe.") for name in loaded
    if name.startswith("accessframe.")
)
flags = [name in loaded for name in ("numpy", "dataclasses", "inspect")]
print(code, *flags, ",".join(submodules))
"""


@functools.lru_cache(maxsize=None)
def _module_probe(*argv: str) -> tuple[str, ...]:
    result = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *argv],
        capture_output=True,
        text=True,
    )
    return tuple(result.stdout.splitlines()[-1].split())


EXACT = "analysis,cli,combinatorics"
SCAN = "analysis,cli,combinatorics,metrics"
SIMULATION = "analysis,cli,combinatorics,simulator"

#: One call of each subcommand: its argv, then whether it loads numpy
#: and its exit code, then the package modules it loads.
PROBED = {
    "help": (("--help",), "False 0", "cli"),
    "pmf": (("pmf", "--tokens", "8", "--slots", "4", "--users", "12"),
            "False 0", EXACT),
    "metrics": (("metrics", "--tokens", "8", "--slots", "4", "--users", "12"),
                "False 0", SCAN),
    "sweep-users": (("sweep", "--tokens", "8", "--slots", "4", "--axis", "users",
                     "--range", "1:5"), "False 0", SCAN),
    "sweep-data-slots": (("sweep", "--tokens", "8", "--users", "12",
                          "--axis", "data-slots", "--range", "1:5"), "False 0", SCAN),
    "optimize-k": (("optimize-k", "--tokens", "8", "--users", "12", "--k-max", "8"),
                   "False 0", SCAN),
    # refused by the exact guard before any frame is drawn
    "compare-refused": (("compare", "--tokens", "1000", "--slots", "100",
                         "--users", "1000", "--seed", "1", "--iterations", "30000"),
                        "False 1", SIMULATION),
    "simulate": (("simulate", "--tokens", "4", "--slots", "2", "--users", "6",
                  "--seed", "1", "--iterations", "100"), "True 0", SIMULATION),
    # refused by the walk's price before any frame is drawn
    "simulate-refused": (("simulate", "--tokens", "8", "--slots", "4",
                          "--users", "300000000", "--seed", "1"),
                         "False 1", SIMULATION),
    # refused for its token count before any frame is drawn
    "simulate-too-many-tokens": (("simulate", *TOO_MANY_TOKENS), "False 1", SIMULATION),
    "compare-too-many-tokens": (("compare", *TOO_MANY_TOKENS), "False 1", SIMULATION),
}


def test_import_leaves_numpy_unloaded():
    # nor any of the package's own modules
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, accessframe; "
         "print(sorted(m for m in sys.modules if m.startswith(('accessframe', 'numpy'))))"],
        capture_output=True,
        text=True,
    )
    assert result.stdout == "['accessframe']\n"


def test_package_names_resolve_on_first_access():
    script = """
import accessframe
from accessframe import analysis, combinatorics, metrics, simulator
owners = (analysis, combinatorics, metrics, simulator)
for name in accessframe.__all__:
    value = getattr(accessframe, name)
    assert name == "__version__" or any(
        getattr(module, name, None) is value for module in owners
    ), name
assert set(accessframe.__all__) <= set(dir(accessframe))
namespace = {}
exec("from accessframe import *", namespace)
assert set(accessframe.__all__) <= set(namespace)
try:
    accessframe.no_such_name
except AttributeError as exc:
    print(exc)
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "module 'accessframe' has no attribute 'no_such_name'\n"


def test_every_record_is_exported_from_the_package():
    script = """
import accessframe
from accessframe import analysis, metrics, simulator
from accessframe.analysis import Record
records = {
    name: value
    for module in (analysis, metrics, simulator)
    for name, value in vars(module).items()
    if isinstance(value, type) and issubclass(value, Record) and value is not Record
    and value.__module__ == module.__name__
}
print(sorted(records))
print(sorted(
    name for name, value in records.items()
    if name not in accessframe.__all__ or getattr(accessframe, name, None) is not value
))
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    found, missing = result.stdout.splitlines()
    assert "OptimalDataSlots" in found
    assert missing == "[]"


@pytest.mark.parametrize("probe", list(PROBED))
def test_numpy_is_imported_only_to_draw(probe):
    argv, expected, _ = PROBED[probe]
    code, numpy, *_ = _module_probe(*argv)
    assert f"{numpy} {code}" == expected


@pytest.mark.parametrize("probe", list(PROBED))
def test_each_subcommand_loads_only_what_it_runs(probe):
    argv, _, modules = PROBED[probe]
    code, numpy, dataclasses, inspect, loaded = _module_probe(*argv)
    assert loaded == modules
    assert dataclasses == "False"
    # numpy imports inspect itself; the package never does
    assert inspect == numpy
