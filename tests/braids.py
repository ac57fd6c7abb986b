"""Braid closures for the test modules: ``closure`` reads the PD code of
the benchmark's generator, ``perfbench/braid.py`` (loaded by path once, as
``braid``), and ``seeded_word`` is the one seeded word draw, so a seed names
the same diagrams in every module."""

import importlib.util
from pathlib import Path

from frobknot import diagram as dg

_spec = importlib.util.spec_from_file_location(
    "braid", Path(__file__).resolve().parents[1] / "perfbench" / "braid.py"
)
braid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(braid)


def closure(word, strands: int) -> dg.LinkDiagram:
    return dg.parse_pd(braid.closure_pd(word, strands))


def seeded_word(rng, strands=(2, 4), letters=(1, 7)) -> tuple:
    """(word, strands), drawing a strand count, a letter count (each in its
    closed range), then each letter as a sign times a generator."""
    s = rng.randint(*strands)
    return [rng.choice((1, -1)) * rng.randint(1, s - 1) for _ in range(rng.randint(*letters))], s
