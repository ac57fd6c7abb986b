"""Span tracing around the library's public functions, from outside it.

``Tracer.install()`` wraps every public module-level function of the traced
modules, plus ``ExactMatrix.__matmul__``, and rebinds each wrapped name in
every ``frobknot`` module namespace that holds it (``complex`` and ``rank2``
import functions by name).  ``uninstall()`` restores the originals.  A span
is (name, start ns, end ns, parent span index, operation id); spans stay in
memory until the run writes them out.  Functions missing at some commit are
simply not wrapped, so their metrics are absent.

``rings`` and ``laurent`` are not traced, nor are the scalar helpers in
``SCALAR``: they run up to 10^6 times per operation, so a wrapper would
measure itself.  Their cost shows up as self time of the traced caller.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

MODULES = ("cli", "diagram", "frobenius", "complex", "linalg", "rank2", "verifier")
SCALAR = {
    "rank2.multiply",
    "rank2.pow_in_squares",
    "rank2.is_nonresidue",
    "rank2.evaluate_PR",
    "rank2.evaluate_PA",
}
_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []
        self._originals = []  # (owner, attribute, original)
        self.names = set()  # span names of the functions found and wrapped

    # -- installation -----------------------------------------------------

    def install(self):
        wrapped = {}
        for short in MODULES:
            mod = sys.modules.get(f"frobknot.{short}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                    or name in SCALAR
                ):
                    continue
                wrapped[id(fn)] = (fn, self._wrap(name, fn, _HOOKS.get(name)))
                self.names.add(name)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("frobknot.") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._originals.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        linalg = sys.modules.get("frobknot.linalg")
        matrix = getattr(linalg, "ExactMatrix", None)
        if matrix is not None and "__matmul__" in vars(matrix):
            orig = vars(matrix)["__matmul__"]
            self._originals.append((matrix, "__matmul__", orig))
            matrix.__matmul__ = self._wrap("linalg.matmul", orig, _matmul_hook)
            self.names.add("linalg.matmul")

    def uninstall(self):
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[1], rec[2] = start, _now()
                stack.pop()
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            rec[1], rec[2] = start, _now()
            stack.pop()
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- aggregation --------------------------------------------------------

    def summary(self, keep) -> dict:
        """Per span name: calls, total seconds and self seconds, over the
        spans whose operation id passes ``keep``."""
        child = defaultdict(int)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            if not keep(op):
                continue
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - child.get(idx, 0)) / 1e9
        return dict(out)


# Counters computed from a call's arguments and result, at the same boundary
# as the span (after the span has ended, so they do not inflate it).


def _matmul_hook(counts, args, result):
    a, b = args
    counts["linalg.matmul.macs"] += a.rows * a.cols * b.cols


def _rank_hook(counts, args, result):
    m = args[0]
    if m.rows and m.cols:
        counts["linalg.rank.nonempty_calls"] += 1


def _cube_hook(counts, args, cube):
    counts["diagram.build_cube.states"] += len(cube.circles)


def _complex_hook(counts, args, C):
    counts["complex.generators"] += sum(C.ranks)
    counts["complex.diffs"] += sum(1 for m in C.diffs if m.rows and m.cols)
    counts["complex.diff_pairs"] += max(len(C.diffs) - 1, 0)
    for m in C.diffs:
        counts["complex.diff_cells"] += m.rows * m.cols
        counts["complex.diff_nnz"] += len(m.entries) - m.entries.count(0)


def _isomorphic_hook(counts, args, g):
    if g is not None:
        counts["rank2.isomorphic.found"] += 1


def _battery_hook(counts, args, report):
    counts["verifier.candidates"] += report.space_size


_HOOKS = {
    "linalg.rank": _rank_hook,
    "diagram.build_cube": _cube_hook,
    "complex.build_complex": _complex_hook,
    "rank2.isomorphic": _isomorphic_hook,
    "verifier.verify_theorem_1_1": _battery_hook,
    "verifier.verify_theorem_1_2": _battery_hook,
    "verifier.verify_prop_3_4": _battery_hook,
    "verifier.verify_char2_classification": _battery_hook,
    "verifier.verify_noncommutative": _battery_hook,
}
