"""Every stdout document, pinned byte for byte (see ``documents.py``)."""

from __future__ import annotations

import pytest

from documents import DOCUMENTS, run


@pytest.mark.parametrize("command", DOCUMENTS)
def test_stdout_is_pinned(command):
    assert run(command) == DOCUMENTS[command]


@pytest.mark.parametrize("command", DOCUMENTS)
def test_stdout_depends_on_the_arguments_alone(command, monkeypatch):
    # a default format once came from this variable; it must change nothing
    monkeypatch.setenv("ACCESSFRAME_FORMAT", "csv")
    assert run(command) == DOCUMENTS[command]
