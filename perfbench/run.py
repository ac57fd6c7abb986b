"""frobknot benchmark: seeded workloads, output checks, optional span trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from the src/ directory beside perfbench/.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Inputs, per-pass details, output
digests and (traced) spans go under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from refclock import RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3  # untraced run: at least three passes
MIN_TRACE_PASSES = 2  # traced run: at least two untraced and two traced
TRACED_PAIR = 2.5  # an untraced plus a traced pass, in untraced passes
SLOW_STOP = 3  # stop early, past the minimum, after this many times --seconds
SETUP_PROBES = 9  # at least this many, one after each pass, one warm-up before

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Stage metrics, from the untraced passes of a traced run.
STAGES = {
    "kh_z_s": ("s", "kh_z"),
    "kh_f2_s": ("s", "kh_f2"),
    "kh_q_s": ("s", "kh_q"),
    "verify_s": ("s", "verify"),
    "zbox_s": ("s", "zbox"),
}
# Per-function metrics read off the spans: (metric, unit, span name, field).
SPAN_METRICS = [
    ("diagram.build_cube.s", "s", "diagram.build_cube", "s"),
    ("diagram.kauffman_bracket.s", "s", "diagram.kauffman_bracket", "s"),
    ("frobenius.generator_map.calls", "count", "frobenius.generator_map", "calls"),
    ("frobenius.generator_map.s", "s", "frobenius.generator_map", "s"),
    ("complex.build_complex.self_s", "s", "complex.build_complex", "self_s"),
    ("complex.verify_d_squared.s", "s", "complex.verify_d_squared", "s"),
    ("complex.homology.self_s", "s", "complex.homology", "self_s"),
    ("complex.graded_euler_characteristic.s", "s", "complex.graded_euler_characteristic", "s"),
    ("linalg.matmul.calls", "count", "linalg.matmul", "calls"),
    ("linalg.matmul.s", "s", "linalg.matmul", "s"),
    ("linalg.rank.calls", "count", "linalg.rank", "calls"),
    ("linalg.rank.s", "s", "linalg.rank", "s"),
    ("linalg.smith_normal_form.calls", "count", "linalg.smith_normal_form", "calls"),
    ("linalg.smith_normal_form.s", "s", "linalg.smith_normal_form", "s"),
    ("linalg.homology_summands.self_s", "s", "linalg.homology_summands", "self_s"),
    ("linalg.solve_linear.calls", "count", "linalg.solve_linear", "calls"),
    ("linalg.solve_linear.s", "s", "linalg.solve_linear", "s"),
    ("rank2.is_associative.calls", "count", "rank2.is_associative", "calls"),
    ("rank2.is_associative.s", "s", "rank2.is_associative", "s"),
    ("rank2.is_multiplication_surjective.calls", "count", "rank2.is_multiplication_surjective", "calls"),
    ("rank2.is_multiplication_surjective.s", "s", "rank2.is_multiplication_surjective", "s"),
    ("rank2.find_unit.calls", "count", "rank2.find_unit", "calls"),
    ("rank2.find_unit.s", "s", "rank2.find_unit", "s"),
    ("rank2.isomorphic.calls", "count", "rank2.isomorphic", "calls"),
    ("rank2.isomorphic.s", "s", "rank2.isomorphic", "s"),
    ("rank2.classify.calls", "count", "rank2.classify", "calls"),
    ("rank2.classify.s", "s", "rank2.classify", "s"),
    ("verifier.verify_theorem_1_1.s", "s", "verifier.verify_theorem_1_1", "s"),
    ("verifier.verify_theorem_1_2.s", "s", "verifier.verify_theorem_1_2", "s"),
    ("verifier.verify_prop_3_4.s", "s", "verifier.verify_prop_3_4", "s"),
    ("verifier.verify_char2_classification.s", "s", "verifier.verify_char2_classification", "s"),
    ("verifier.verify_noncommutative.s", "s", "verifier.verify_noncommutative", "s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]
BATTERY_SPANS = [name for _, _, name, _ in SPAN_METRICS if name.startswith("verifier.")]
# Metrics computed from counters and ratios: (metric, unit, span it needs).
DERIVED = {
    "diagram.parse_pd.s": ("s", "diagram.parse_pd"),
    "diagram.build_cube.states": ("count", "diagram.build_cube"),
    "complex.generators": ("count", "complex.build_complex"),
    "complex.diff_cells": ("count", "complex.build_complex"),
    "complex.diff_nnz": ("count", "complex.build_complex"),
    "complex.diff_fill": ("ratio", "complex.build_complex"),
    "linalg.matmul.macs": ("count", "linalg.matmul"),
    "linalg.matmul.per_pair": ("ratio", "linalg.matmul"),
    "linalg.rank.per_diff": ("ratio", "linalg.rank"),
    "rank2.isomorphic.hit_ratio": ("ratio", "rank2.isomorphic"),
    "rank2.classify.gap_ratio": ("ratio", "rank2.classify"),
    "verifier.candidates_per_s": ("1/s", "verifier.verify_theorem_1_2"),
}
RUN_METRICS = {
    "classify_per_s": "tables/s",
    "error_rate": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def per_layer_units() -> dict:
    units = {name: unit for name, (unit, _) in STAGES.items()}
    units.update({m: u for m, u, _, _ in SPAN_METRICS})
    units.update({m: u for m, (u, _) in DERIVED.items()})
    units.update(RUN_METRICS)
    return units


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def probe_setup(manifest: str) -> float:
    """Set-up reference seconds of one fresh process (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, manifest],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    def __init__(self, plan, tracer=None):
        self.plan = plan
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.reference = {}  # op name -> digest of its first output
        self.errors = []  # (pass, op, reason)
        self.passes = []  # {"traced", "wall_s", "ops": {op name: reference seconds}, "wall": ...}
        self.clock = RefClock()

    def run_pass(self, traced: bool):
        idx = len(self.passes)
        results, failures, times, wall = {}, {}, {}, {}
        clock = self.clock
        tracer = self.tracer if traced else None
        if tracer:
            tracer.counts.clear()
            tracer.install()
        try:
            for op in self.plan.ops:
                if tracer:
                    tracer.op = (idx, op.name)
                gc.collect()  # every operation starts from the same heap
                try:
                    with clock:
                        rc, payload = op.run()
                except Exception as exc:  # a crashing operation is a failed one
                    failures[op.name] = f"{type(exc).__name__}: {exc}"
                    continue
                finally:
                    times[op.name], wall[op.name] = clock.ref, clock.wall
                results[op.name] = (rc, op.render(payload) if op.render else payload)
                del payload
        finally:
            if tracer:
                tracer.uninstall()
                tracer.op = None
        for name, err in self.plan.check(results).items():
            if err and name not in failures:
                failures[name] = err
        for name, (_, out) in results.items():
            d = digest(out)
            if self.reference.setdefault(name, d) != d and name not in failures:
                failures[name] = "stdout digest differs from the first pass"
        self.attempted += len(self.plan.ops)
        self.failed += len(failures)
        self.errors += [(idx, name, err) for name, err in sorted(failures.items())]
        record = {"traced": traced, "wall_s": sum(times.values()), "ops": times, "wall": wall}
        if tracer:
            record["counts"] = dict(tracer.counts)
        self.passes.append(record)


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    """Passes of one run: as many as fill ``seconds`` at the workload's
    nominal pass time.  The count depends on nothing the code under test
    does, so every commit takes its medians over as many samples."""
    nominal = workloads.PASS_S[workload]
    if traced:
        return 2 * max(MIN_TRACE_PASSES, round(seconds / (TRACED_PAIR * nominal)))
    return max(MIN_PASSES, round(seconds / nominal))


def typical(plan, passes, group=None) -> float:
    """Reference seconds of one pass (or one group's share of it): the sum
    over its operations of each one's median over ``passes``.  Reference
    seconds (refclock.py) take out most of the machine's drift in speed;
    the median takes out what is left, from either side."""
    return sum(
        statistics.median(p["ops"][op.name] for p in passes)
        for op in plan.ops
        if group is None or op.group == group
    )


def layer_metrics(runner, tracer, setup_spans) -> dict:
    plain = [p for p in runner.passes if not p["traced"]]
    traced = [(i, p) for i, p in enumerate(runner.passes) if p["traced"]]
    present = tracer.names
    out = {}
    plan = runner.plan
    for name, (_, group) in STAGES.items():
        out[name] = typical(plan, plain, group)
    n_classify = sum(1 for op in plan.ops if op.group == "classify")
    t_classify = typical(plan, plain, "classify")
    out["classify_per_s"] = n_classify / t_classify if t_classify else 0.0
    out["error_rate"] = runner.failed / runner.attempted
    out["trace.overhead_s"] = typical(plan, [p for _, p in traced]) - typical(plan, plain)
    out["trace.spans"] = sum(1 for rec in tracer.spans if rec[4] is not None and rec[4][0] == traced[0][0])

    summaries = [tracer.summary(lambda op, i=i: op is not None and op[0] == i) for i, _ in traced]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    first, counts = summaries[0], traced[0][1]["counts"]
    for metric, _, span, field in SPAN_METRICS:
        if span not in present:
            continue
        if field == "calls":  # counts repeat exactly between traced passes
            out[metric] = first.get(span, zero)["calls"]
        else:
            out[metric] = statistics.median(s.get(span, zero)[field] for s in summaries)

    def calls(span):
        return first.get(span, zero)["calls"]

    def ratio(a, b):
        return a / b if b else 0.0

    battery_s = statistics.median(sum(s.get(b, zero)["s"] for b in BATTERY_SPANS) for s in summaries)
    derived = {
        "diagram.parse_pd.s": setup_spans.get("diagram.parse_pd", zero)["s"],
        "diagram.build_cube.states": counts.get("diagram.build_cube.states", 0),
        "complex.generators": counts.get("complex.generators", 0),
        "complex.diff_cells": counts.get("complex.diff_cells", 0),
        "complex.diff_nnz": counts.get("complex.diff_nnz", 0),
        "complex.diff_fill": ratio(counts.get("complex.diff_nnz", 0), counts.get("complex.diff_cells", 0)),
        "linalg.matmul.macs": counts.get("linalg.matmul.macs", 0),
        "linalg.matmul.per_pair": ratio(calls("linalg.matmul"), counts.get("complex.diff_pairs", 0)),
        "linalg.rank.per_diff": ratio(counts.get("linalg.rank.nonempty_calls", 0), counts.get("complex.diffs", 0)),
        "rank2.isomorphic.hit_ratio": ratio(counts.get("rank2.isomorphic.found", 0), calls("rank2.isomorphic")),
        "rank2.classify.gap_ratio": ratio(
            counts.get("rank2.classify.raised.ClassificationGap", 0), calls("rank2.classify")
        ),
        "verifier.candidates_per_s": ratio(counts.get("verifier.candidates", 0), battery_s),
    }
    for metric, (_, span) in DERIVED.items():
        if span in present:
            out[metric] = derived[metric]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "frobknot", "cli.py")):
        print(f"error: no frobknot sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from setup_probe import load_inputs
    from spans import Tracer

    if args.workload not in workloads.PLANS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.PLANS)}", file=sys.stderr)
        return 2
    import frobknot.cli  # noqa: F401  (loads every library module)

    results_dir = os.path.join(OUT, args.workload, f"seed{args.seed}")
    work = os.path.join(results_dir, "inputs")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = workloads.PLANS[args.workload](args.seed, work)
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"pd": plan.pd_files, "tables": plan.table_files}, fh)

    tracer = Tracer() if args.trace else None
    setup_times = []
    if not tracer:
        probe_setup(manifest)  # warm-up: may compile bytecode
    # The in-process half of set-up: load every input once (traced, so a
    # traced run times parse_pd) and hand the diagrams to the plan.
    if tracer:
        tracer.install()
        tracer.op = ("setup", "load")
    diagrams = load_inputs(plan.pd_files, plan.table_files)
    if tracer:
        tracer.uninstall()
    setup_spans = tracer.summary(lambda op: op == ("setup", "load")) if tracer else {}
    if plan.load:
        plan.load(diagrams)

    runner = Runner(plan, tracer)
    # A fixed number of passes (see pass_count); a commit so slow that they
    # would take past SLOW_STOP times --seconds stops early, after the
    # minimum.  Set-up probes run between passes, so they sample the
    # machine over the whole run like the passes do.
    passes = pass_count(args.workload, args.seconds, bool(tracer))
    least = 2 * MIN_TRACE_PASSES if tracer else MIN_PASSES
    start = time.perf_counter()
    while len(runner.passes) < passes:
        runner.run_pass(traced=bool(tracer) and len(runner.passes) % 2 == 1)
        if not tracer:
            setup_times.append(probe_setup(manifest))
        if len(runner.passes) >= least and time.perf_counter() - start > SLOW_STOP * args.seconds:
            break

    plain = [p for p in runner.passes if not p["traced"]]
    if tracer:
        values = layer_metrics(runner, tracer, setup_spans)
        units = per_layer_units()
    else:
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup(manifest))
        values = {
            "wall_s": typical(plan, plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    details = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   passes=runner.passes, digests=runner.reference, errors=runner.errors,
                   python=sys.version.split()[0], nproc=os.cpu_count())
    with open(os.path.join(results_dir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    if tracer:
        with gzip.open(os.path.join(results_dir, "spans.jsonl.gz"), "wt", encoding="utf-8") as fh:
            for name, t0, t1, parent, op in tracer.spans:
                fh.write(json.dumps([name, t0, t1, parent, op]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
