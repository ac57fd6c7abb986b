"""The benchmark's braid-closure generator, ``perfbench/braid.py``, loaded
by path once for every test module that draws closures:
``from braids import braid``."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "braid", Path(__file__).resolve().parents[1] / "perfbench" / "braid.py"
)
braid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(braid)
