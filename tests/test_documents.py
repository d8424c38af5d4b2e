"""Every stdout document, pinned byte for byte.

Each case runs one command line and compares the sha256 of what it
printed, and its exit code, with the values recorded when the case was
added.  A change to how documents are written, or to the numbers in
them, shows here as a changed hash; update a hash only for a change to
a document that is meant.
"""

from __future__ import annotations

import hashlib

import pytest

from accessframe.cli import FORMAT_ENV, main

#: command line -> (exit code, sha256 of stdout).  Of the last two, the first
#: writes integers past the interpreter's 4300-digit int -> str limit and the
#: second is refused by the cost model.
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
        0, "890cc28c2c9a6a5f506c62b83c6dae9f06cf4028ea2ff8f86b2c0c55e0a3b0fb"
    ),
    "simulate --tokens 8 --slots 4 --users 12 --seed 42 --iterations 2000 --format csv": (
        0, "768253909fdc0224ee92e41af3eac9a912f5ba9ae26ae3cbdcb3f91ea5967356"
    ),
    "simulate --tokens 8 --slots 4 --users 12 --seed 42 --iterations 2000 --mode ternary --format json": (
        0, "95dbaca4f0f8dd54a9aea9fb071e888a953d726fd2130e7253e4245e50396928"
    ),
    "simulate --tokens 8 --slots 4 --users 12 --seed 42 --iterations 2000 --mode ternary --format csv": (
        0, "9e39e29652ac03708d9f921856ead64418804346d1b1accbe91dbd157b2fa36c"
    ),
    "simulate --tokens 8 --slots 4 --users 0 --seed 42 --iterations 2000 --format json": (
        0, "0e2187a2d8a249fd6b26493606d39e2fc03d3a67ab8de8ff13132fe20573a0b4"
    ),
    "simulate --tokens 8 --slots 4 --users 0 --seed 42 --iterations 2000 --format csv": (
        0, "a711a0b5a966143fd0d7d3227a2155ff527508e96967f2f72493d9a767f67c07"
    ),
    "compare --tokens 8 --slots 8 --users 12 --seed 42 --iterations 2000 --format json": (
        0, "317c3600438a99368906da19e58be7118b00ed7566920e97a63510d5622b90ea"
    ),
    "compare --tokens 8 --slots 8 --users 12 --seed 42 --iterations 2000 --format csv": (
        0, "bd20991a0702a5f6edc270e6acb7037ca24394ecd86d436d8e172acc31dcccaa"
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
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
}


@pytest.mark.parametrize("command", DOCUMENTS)
def test_stdout_is_pinned(capsys, monkeypatch, command):
    monkeypatch.delenv(FORMAT_ENV, raising=False)
    code, digest = DOCUMENTS[command]
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
