"""Read the cost estimate an exact entry point charges, without doing the
work it guards."""

from __future__ import annotations

from contextlib import suppress
from types import ModuleType
from typing import Callable
from unittest.mock import patch


class _Stop(Exception):
    pass


def charged_work(module: ModuleType, call: Callable[[], object]) -> tuple[float, tuple]:
    """Run ``call``, an entry point of ``module``, up to its first
    surjection roll and return the estimate it passed to
    ``refuse_oversized`` with the (range of rows, cols) of the roll it then
    asked for (empty when it asked for none).  The refusal is recorded, not
    raised, so an input over the limit reads the same way."""
    with (
        patch.object(module, "refuse_oversized") as refuse,
        patch.object(module, "surjection_rows", side_effect=_Stop) as rows,
    ):
        with suppress(_Stop):
            call()
    ((work, _what),) = [c.args for c in refuse.call_args_list]
    return work, rows.call_args.args if rows.called else ()
