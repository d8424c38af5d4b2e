"""Command-line behavior: formats, exit codes, determinism, config files."""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from accessframe.analysis import SuccessPmf, SystemConfig, parse_rational
from accessframe.cli import FORMAT_ENV, main
from accessframe.metrics import Axis, expected_successes, frame_metrics, sweep
from accessframe.simulator import SimParams, compare_to_exact, estimate_pmf
from oracles import expected_successes_by_occupancy


@pytest.fixture(autouse=True)
def _clean_format_env(monkeypatch):
    monkeypatch.delenv(FORMAT_ENV, raising=False)


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


def test_usage_failure_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--tokens", "4", "--slots", "2", "--users", "6"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err


#: A simulation over 2**63 + 1 tokens, one more than simulate_frame's
#: int64 draw can index.  The state walk indexes no token, so estimate_pmf
#: refuses it only to accept the same frames as simulate_frame; every
#: other size is small.
TOO_MANY_TOKENS = ("--tokens", str(2**63 + 1), "--slots", "1", "--users", "3",
                   "--seed", "1", "--iterations", "10")


def test_oversized_input_exits_one_with_hint(capsys):
    # too long a surjection roll, too large a moment sum, a walk over too
    # many state-steps (compare's exact pmf refuses it first, and its
    # cost grows with tokens too), more tokens than simulate_frame's
    # int64 draw can index, and too many sweep values
    simulation = ("--tokens", "8", "--slots", "4", "--users", "400000000",
                  "--seed", "1", "--iterations", "100000")
    exact_hint = "fewer users or tokens"
    walk_hint = "use fewer users or frames\n"
    token_hint = "over the limit of 2**63 tokens"
    for argv, hint in [
        (("pmf", "--tokens", "64", "--slots", "8", "--users", "20000"), exact_hint),
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
        (("metrics", "--tokens", "64", "--slots", "8", "--users", "20000"), exact_hint),
        (("sweep", "--tokens", "8", "--slots", "4", "--users", "12",
          "--axis", "data-slots", "--range", "1:10000000"), exact_hint),
        # more sweep values than len() of a range can count
        (("sweep", "--tokens", "8", "--slots", "4", "--users", "12",
          "--axis", "data-slots", "--range", f"1:{10**20}"), exact_hint),
        (("sweep", "--tokens", "8", "--slots", "4",
          "--axis", "users", "--range", f"1:{10**20}"), exact_hint),
    ]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and hint in err, argv


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_simulation_draws_from_up_to_2_63_tokens(capsys, command):
    code, out, err = run_cli(capsys, command, "--tokens", str(2**63),
                             *TOO_MANY_TOKENS[2:], "--format", "csv")
    assert code == 0 and err == ""
    assert out.splitlines()[1].startswith(f"{2**63},1,3,")


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
    assert Fraction(json.loads(out)["expected_successes"]) == (
        expected_successes_by_occupancy(1000, 100, 1000)
    )


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
    record = compare_to_exact(
        estimate_pmf(SimParams(SystemConfig(8, 8, 12), iterations=100000, seed=42))
    )
    assert payload["tv_distance"] == float(record.tv_distance)
    assert 0 < payload["tv_distance"] <= 0.01
    assert payload["mode"] == "binary"


def test_environment_variable_sets_default_format(capsys, monkeypatch):
    monkeypatch.setenv(FORMAT_ENV, "csv")
    code, out, err = run_cli(
        capsys, "pmf", "--tokens", "2", "--slots", "1", "--users", "2",
    )
    assert code == 0
    assert out.startswith("d,probability\n")
    assert err == ""


def test_flag_overrides_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv(FORMAT_ENV, "csv")
    code, out, _ = run_cli(
        capsys, "pmf", "--tokens", "2", "--slots", "1", "--users", "2",
        "--format", "json",
    )
    assert code == 0
    assert out.lstrip().startswith("{")


def test_bad_environment_value_warns_once_and_falls_back(capsys, monkeypatch):
    monkeypatch.setenv(FORMAT_ENV, "yaml")
    code, out, err = run_cli(
        capsys, "pmf", "--tokens", "2", "--slots", "1", "--users", "2",
    )
    assert code == 0
    assert out.lstrip().startswith("{")
    assert err.count("warning:") == 1
    assert FORMAT_ENV in err


def test_sweep_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--tokens", "2", "--slots", "1",
        "--axis", "users", "--range", "1:4", "--format", "csv",
    )
    assert code == 0
    report = sweep(SystemConfig(2, 1, 0), Axis.USERS, range(1, 5))
    assert out == report.to_csv()


def test_sweep_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(
        {"tokens": 8, "slots": 4, "axis": "users", "range": [1, 3]}
    ))
    code, out, _ = run_cli(
        capsys, "sweep", "--config", str(config), "--slots", "8",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fixed"] == {"M": 8, "K": 8}
    assert payload["values"] == [1, 2, 3]
    expected = sweep(SystemConfig(8, 8, 0), Axis.USERS, range(1, 4))
    assert out == expected.to_json() + "\n"


def test_sweep_config_accepts_hyphenated_axis(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(
        {"tokens": 4, "users": 6, "axis": "data-slots", "range": "1:3"}
    ))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(config))
    assert code == 0
    assert json.loads(out)["axis"] == "data_slots"


def test_sweep_without_axis_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--tokens", "2", "--slots", "1", "--range", "1:3",
    )
    assert code == 1
    assert out == ""
    assert "axis" in err


def test_sweep_rejects_non_integer_config_values(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    base = {"tokens": 8, "slots": 4, "axis": "users", "range": [1, 3]}
    # bool is an int subclass and int() truncates floats; neither may pass
    for key, value in [
        ("tokens", "8"),
        ("tokens", True),
        ("users", False),
        ("range", [1.9, 2]),
        ("range", [True, 3]),
        ("range", ["1", "3"]),
    ]:
        config.write_text(json.dumps({**base, key: value}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 1, (key, value)
        assert out == ""
        assert key in err


def test_sweep_missing_config_file_exits_one(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--config", str(tmp_path / "absent.json"),
    )
    assert code == 1
    assert "config" in err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (("--tokens", "8", "--slots", "4", "--axis", "users", "--range", "a:b"),
         None, "range must be LO:HI"),
        ((), [8, 4, 12], "config file must hold a JSON object"),
        ((), {"tokens": 8, "slots": 4, "axis": "users"}, "sweep needs a range"),
        (("--slots", "4", "--axis", "users", "--range", "1:3"),
         None, "sweep needs --tokens"),
        (("--tokens", "8", "--slots", "4", "--axis", "users", "--range", "0:3"),
         None, "success rate needs at least one user"),
    ],
    ids=["range", "array-config", "no-range", "no-tokens", "no-users"],
)
def test_sweep_input_errors_exit_one(capsys, tmp_path, argv, config, message):
    if config is not None:
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        argv = (*argv, "--config", str(path))
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


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "accessframe", "metrics",
         "--tokens", "2", "--slots", "1", "--users", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.endswith("2,1,2,0.5,0.25,0.25\n")


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
