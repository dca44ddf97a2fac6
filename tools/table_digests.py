"""Print the SHA-256 of the four output tables of ``fdilsim run`` for each config.

Usage, from the repository root::

    PYTHONPATH=src python tools/table_digests.py CONFIG [CONFIG ...]

Each config goes through ``fdilsim run`` in process, into a temporary
directory that is removed afterwards.  One line is printed per table,
``<sha256>  <config>:<table>``, or ``exit <code>  <config>`` for a run that
fails (its message goes to stderr).  The output names no temporary path, so
two checkouts give equal text exactly when their tables are byte-identical:
point ``PYTHONPATH`` at each checkout's ``src`` in turn and diff the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from fdilsim.cli import main as fdilsim_main
from fdilsim.runio import OUTPUT_FILES


def table_digests(config: str) -> list[str]:
    """The digest lines of one config."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            code = fdilsim_main(["run", config, "--out", str(out)])
        if code != 0:
            return [f"exit {code}  {config}"]
        return [
            f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {config}:{name}"
            for name in OUTPUT_FILES
        ]


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    for config in argv:
        for line in table_digests(config):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
