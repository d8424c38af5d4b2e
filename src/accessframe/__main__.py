"""Allow ``python -m accessframe ...``: the process entry
:func:`accessframe.cli.run`, which runs the command line and freezes the
heap before the interpreter shuts down."""

from .cli import run

if __name__ == "__main__":
    run()
