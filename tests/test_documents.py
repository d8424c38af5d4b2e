"""Every stdout document, pinned byte for byte (see ``documents.py``)."""

from __future__ import annotations

import pytest

from documents import DOCUMENTS, run


@pytest.mark.parametrize("command", DOCUMENTS)
def test_stdout_is_pinned(command):
    assert run(command) == DOCUMENTS[command]
