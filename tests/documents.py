"""Every stdout document, pinned byte for byte, without pytest.

Each entry of :data:`DOCUMENTS` runs one command line; :func:`run` gives
its exit code and the sha256 of what it printed, to compare with the
values recorded when the entry was added.  A change to how documents are
written, or to the numbers in them, shows here as a changed hash; update
a hash only for a change to a document that is meant.

``test_documents.py`` checks every entry under pytest.  Run this file
directly to check them on any interpreter with only the package on hand:

    python tests/documents.py

It prints one line per entry and exits 1 if any pin fails.  Where numpy
is missing, the ``simulate`` and ``compare`` entries are reported as
skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

#: command line -> (exit code, sha256 of stdout).  Of the last three, the
#: first two write integers past the interpreter's 4300-digit int -> str
#: limit and the third is refused by the cost model.
DOCUMENTS = {
    "pmf --tokens 8 --slots 4 --users 12 --format json": (
        0, "0323e3949f97144189eb7eec6f383f486daef9686e63e48a13ea2f3fe3b69687"
    ),
    "pmf --tokens 8 --slots 4 --users 12 --format csv": (
        0, "c205f3ede5a40852ca4d14121b2aaa5bdf859cccf8b2fec0c312206a16db4bdd"
    ),
    "metrics --tokens 8 --slots 4 --users 12 --format json": (
        0, "ca62e9c24bd07d0a4a428c4e4e511ae750d28d6ea839d93f5255edeb971a867c"
    ),
    "metrics --tokens 8 --slots 4 --users 12 --format csv": (
        0, "9146de72dcfa0bebe640022835b168ca1244b60b1802ece8f9e0d667b08165bd"
    ),
    "sweep --tokens 8 --slots 4 --axis users --range 1:30 --format json": (
        0, "4a78b2634e82bc45ca37f2df1be86083004b952ef333f2182744cdc6a2fb23ae"
    ),
    "sweep --tokens 8 --slots 4 --axis users --range 1:30 --format csv": (
        0, "697511112149ac089ba500eb2b7b181e7d092bdca21a80788b7a64fb6b8332ea"
    ),
    "sweep --tokens 8 --users 12 --axis data-slots --range 1:10 --format json": (
        0, "d8f2b39c6ed4a1b282ed1df051ac6822e2954218772fa4daafe9c2469b65fed7"
    ),
    "sweep --tokens 8 --users 12 --axis data-slots --range 1:10 --format csv": (
        0, "5b84805054356df3c5c1778738e547b2aba998213728cefe587666fdcd98280c"
    ),
    "simulate --tokens 8 --slots 4 --users 12 --seed 42 --iterations 2000 --format json": (
        0, "dba560b88c6ec337cdd69550d09eb9070cbecee597d114e288ca0ef46138accc"
    ),
    "simulate --tokens 8 --slots 4 --users 12 --seed 42 --iterations 2000 --format csv": (
        0, "06c1384beea5e0c5fc77f299e8b9cc9ac35d3275ee2854d5c7f13a04a5136ba2"
    ),
    "simulate --tokens 8 --slots 4 --users 12 --seed 42 --iterations 2000 --mode ternary --format json": (
        0, "0af27e37b759fcf18faa510238b4aa9903558248c5a9aad34bd1bc5f9dde5b6c"
    ),
    "simulate --tokens 8 --slots 4 --users 12 --seed 42 --iterations 2000 --mode ternary --format csv": (
        0, "51f1c221a700ff3c70cf05af4789d8dee198713f605fa71b7a68ba2296b98cff"
    ),
    "simulate --tokens 8 --slots 4 --users 0 --seed 42 --iterations 2000 --format json": (
        0, "fe41af14596baf73ba452d28e897521bfabc1a2f69ae1f21a8948c91510d495a"
    ),
    "simulate --tokens 8 --slots 4 --users 0 --seed 42 --iterations 2000 --format csv": (
        0, "a711a0b5a966143fd0d7d3227a2155ff527508e96967f2f72493d9a767f67c07"
    ),
    "compare --tokens 8 --slots 8 --users 12 --seed 42 --iterations 2000 --format json": (
        0, "208b4a55539481dee278eef03f71de844478a83d6305db0e4a3572179ebf4689"
    ),
    "compare --tokens 8 --slots 8 --users 12 --seed 42 --iterations 2000 --format csv": (
        0, "9b414f7df6f80efc169a2db028e3ec63b446310548f932d0e528b9bc1ba01dd8"
    ),
    "optimize-k --tokens 8 --users 12 --k-max 8 --format json": (
        0, "8e532549691824173b0880d30f71ed64a4dc5449ed0d28b23a472eca6f8b78d2"
    ),
    "optimize-k --tokens 8 --users 12 --k-max 8 --format csv": (
        0, "485f5ece06ae46059d375e58227acd80c63b2067052229251bc298915da185cf"
    ),
    "metrics --tokens 64 --slots 8 --users 5000 --format json": (
        0, "895a91cfa3f92c6a8731e29851eed5b7fbb77dfa99e53d262b69fe6b9facf16b"
    ),
    "pmf --tokens 64 --slots 8 --users 20000": (
        0, "0e34134142e8441b15f076b69b0e53d26fc65a458afed4c504f6b8f945eed7e1"
    ),
    "pmf --tokens 128 --slots 32 --users 20000": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
}


def run(command: str) -> tuple[int, str]:
    """The exit code of ``command`` and the sha256 of its stdout; stderr
    is discarded."""
    from accessframe.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def check() -> int:
    """Check every pin, print one line each, and return the exit status."""
    has_numpy = importlib.util.find_spec("numpy") is not None
    failed = 0
    for command, pin in DOCUMENTS.items():
        if command.split()[0] in ("simulate", "compare") and not has_numpy:
            verdict = "skipped (no numpy)"
        elif run(command) == pin:
            verdict = "ok"
        else:
            verdict, failed = "FAILED", failed + 1
        print(f"{verdict:18} {command}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"python {version}: {len(DOCUMENTS)} pins, {failed} failed")
    return int(failed > 0)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(check())
