"""Locate the checkout and put its ``src/`` first on the import path.

The benchmark always measures the program in the checkout it was started
from, never an installed copy.  Without ``src/repro`` it stops with exit
code 2 before measuring anything.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output (span dumps) inside the checkout; listed in .gitignore.
OUT = ROOT / ".perfbench"
#: Child processes run with a fixed hash seed, so set iteration order (and
#: with it any order-dependent cost) is the same in every run.
CHILD_ENV = {"PYTHONHASHSEED": "0"}


def use_checkout_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so ``finally`` blocks stop child processes."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
