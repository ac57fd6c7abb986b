"""The benchmark's per-layer metrics name library functions.

A traced benchmark run reports a span metric only for a function that
``perfbench/spans.Tracer`` finds and wraps, and a missing one silently
drops the metric.  So every span named in ``perfbench/run.py``'s
``SPAN_METRICS`` and ``DERIVED`` must be among the tracer's names once the
CLI and everything it imports are loaded.
"""

import importlib.util
from pathlib import Path

import frobknot.cli  # noqa: F401  (loads every module the tracer wraps)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_span_is_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    run, spans = load("run"), load("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        names = set(tracer.names)
    finally:
        tracer.uninstall()
    wanted = {span for _, _, span, _ in run.SPAN_METRICS}
    wanted |= {span for _, span in run.DERIVED.values()}
    assert wanted - names == set()
