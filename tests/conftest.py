"""Put ``src`` on the path of the interpreters the tests start, so the
subprocess tests import the package from the checkout without an install
(``pythonpath`` in pyproject.toml covers the test process itself)."""

from __future__ import annotations

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
