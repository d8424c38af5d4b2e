"""The figures README.md quotes match what the code prints today."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from accessframe.cli import main
from accessframe.simulator import RNG_ALGORITHM

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _matches(printed: str, quoted: str) -> bool:
    """A quote ending in "..." is the printed number rounded to the
    quoted decimals; any other quote is the printed text."""
    if quoted.endswith("..."):
        decimals = len(quoted[:-3].partition(".")[2])
        return f"{float(printed):.{decimals}f}" == quoted[:-3]
    return printed == quoted


def test_quick_start_comments_match_output():
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README, re.S)
    lines = block.group(1).splitlines()
    quoted = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("#")[2] or lines[i + 1].partition("#")[2]
            quoted.append(comment.strip())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.group(1), {})
    printed = out.getvalue().splitlines()
    assert len(quoted) == len(printed) == 4
    for got, want in zip(printed, quoted):
        assert _matches(got, want), (got, want)


def test_compare_recipe_quotes_current_tv_distance(capsys):
    recipe = re.search(
        r"```sh\naccessframe (compare [^\n]*)\n```\s+measures the simulator "
        r"against the exact distribution \(TV distance\s+(\d+\.(\d+))",
        README,
    )
    command, figure, digits = recipe.groups()
    assert main(shlex.split(command)) == 0
    tv = json.loads(capsys.readouterr().out)["tv_distance"]
    assert f"{tv:.{len(digits)}f}" == figure


def test_rng_identifier_is_current():
    assert f"RNG identifier (`{RNG_ALGORITHM}`)" in README
