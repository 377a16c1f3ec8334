"""Tests of the benchmark's own code: ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import bootstrap  # noqa: E402

bootstrap.use_checkout_source()
