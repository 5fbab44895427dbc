"""Locate the repository's ``src`` tree for the benchmark and its children.

The benchmark command may not name ``src`` (it lies outside the
benchmark's own directory), so every entry point imports this module
first: it puts ``src`` on ``sys.path`` and into ``PYTHONPATH``, which
the worker processes the cluster supervisor spawns (``python -m
repro.cli serve-worker``) inherit.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch output of a run (traces, state dirs); ignored by git.
OUT = HERE / "_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
_inherited = os.environ.get("PYTHONPATH", "")
if str(SRC) not in _inherited.split(os.pathsep):
    os.environ["PYTHONPATH"] = (
        str(SRC) + (os.pathsep + _inherited if _inherited else "")
    )
