"""Self-check of the benchmark on tiny inputs (a few seconds).

    python3 perfbench/selfcheck.py

Pins the braid-closure generator against the library's built-in diagrams,
runs every output check of the three workloads on 3-crossing closures, the
F_2 batteries and a few classify tables, and confirms that corrupted
outputs, crashes and unstable outputs count as failed operations.  It also
checks that BENCHMARK.json declares exactly the metrics run.py prints.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import braid  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from setup_probe import load_inputs  # noqa: E402
from frobknot import complex as cx  # noqa: E402
from frobknot import diagram as dg  # noqa: E402
from frobknot import frobenius as fb  # noqa: E402
from refclock import RefClock  # noqa: E402
from spans import Tracer  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def homology_json(d):
    return cx.homology(cx.chain_complex(d, fb.a5(0, 0), normalize=True)).to_json()


def check_generator():
    for word, known in (
        ((1, 1, 1), "trefoil_right"),
        ((-1, -1, -1), "trefoil_left"),
        ((1, 1), "hopf_pos"),
        ((-1, -1), "hopf_neg"),
    ):
        d, b = dg.parse_pd(braid.closure_pd(word, 2)), dg.BUILDERS[known]()
        expect(homology_json(d) == homology_json(b), f"closure of {list(word)} has the homology of {known}")
        expect(cx.jones_from_bracket(d) == cx.jones_from_bracket(b), f"closure of {list(word)} has the bracket of {known}")

    rnd = random.Random(0)
    matched = skipped = 0
    while matched < 20:
        word = [rnd.choice((1, -1)) * rnd.randint(1, 2) for _ in range(rnd.randint(3, 6))]
        pd = braid.closure_pd(word, 3)
        unsigned = "\n".join(ln for ln in pd.splitlines() if not ln.startswith("SIGNS"))
        try:
            oriented = dg.parse_pd(unsigned + "\n" + "\n".join(braid.orient_lines(word, 3)))
        except dg.PDError:  # a two-arc component: orientation cannot fix the signs
            skipped += 1
            continue
        signed = dg.parse_pd(pd)
        if (signed.n_plus, signed.n_minus) != (oriented.n_plus, oriented.n_minus):
            expect(False, f"SIGNS of {word} match the signs parse_pd derives from ORIENT")
            return
        matched += 1
    expect(True, f"SIGNS match ORIENT-derived signs on 20 random 3-strand words ({skipped} ambiguous skipped)")

    bad = []
    for _ in range(30):
        s = rnd.randint(2, 4)
        word = [rnd.choice((1, -1)) * rnd.randint(1, s - 1) for _ in range(rnd.randint(1, 5))]
        d = dg.parse_pd(braid.closure_pd(word, s))
        C = cx.chain_complex(d, fb.a5(0, 0), normalize=True)
        if list(C.ranks) != braid.rank_profile(word, s):
            bad.append((word, "ranks"))
        if cx.graded_euler_characteristic(C) != cx.jones_from_bracket(d):
            bad.append((word, "euler"))
    expect(not bad, f"rank profile and graded Euler = bracket on 30 random closures {bad[:3]}")


def tiny_plans(work):
    rnd = random.Random(1)
    words = [((1, 1, 1), 2), ((-1, -1, -1), 2)]
    words += [(tuple(rnd.choice((1, -1)) * rnd.randint(1, 2) for _ in range(3)), 3) for _ in range(2)]
    words = [(w, s, braid.rank_profile(w, s)) for w, s in words]
    os.makedirs(os.path.join(work, "kh"))
    os.makedirs(os.path.join(work, "cube"))
    os.makedirs(os.path.join(work, "rank2"))
    f2 = tuple((args, "verify") for args in checks.FROZEN_STAGES if args[-2:] == ("--p", "2") or args == ("char2",))
    return {
        "kh": wl.kh_plan(words, os.path.join(work, "kh"), q_crossings=3),
        "cube": wl.cube_plan(words, os.path.join(work, "cube")),
        "rank2": wl.plan_rank2_search(0, os.path.join(work, "rank2"), f2, f3_every=15, f5_count=4),
    }


def corrupt(plan, name, fn):
    """Copy of plan whose op ``name`` has its (rc, stdout) passed through fn."""
    ops = []
    for op in plan.ops:
        if op.name == name:
            op = wl.Op(op.name, op.group, lambda op=op: fn(*op.run()), op.render)
        ops.append(op)
    return wl.Plan(ops, plan.check, plan.pd_files, plan.table_files, plan.load)


def drop_torsion(rc, out):
    table = json.loads(out)
    for g in table["groups"]:
        if g["torsion"]:
            g["torsion"].pop()
            break
    return rc, json.dumps(table)


def run_plan(plan, passes=2, tracer=None):
    diagrams = load_inputs(plan.pd_files, plan.table_files)
    if plan.load:
        plan.load(diagrams)
    runner = run.Runner(plan, tracer)
    for i in range(passes):
        runner.run_pass(traced=tracer is not None and i % 2 == 1)
    return runner


def check_workloads(work):
    plans = tiny_plans(work)
    for name, plan in plans.items():
        r = run_plan(plan)
        expect(r.failed == 0 and r.attempted == 2 * len(plan.ops), f"tiny {name}: {r.attempted} ops, no failures {r.errors[:2]}")

    kh = plans["kh"]
    cases = [
        ("Z torsion entry dropped", corrupt(kh, "kh_z/d01", drop_torsion), "kh_f2/d01"),
        ("F_2 table replaced by Z table", corrupt(kh, "kh_f2/d01", lambda rc, out: wl.call_cli(
            ["homology", kh.pd_files[1], "--a5", "0,0", "--normalize", "--json"])), "kh_f2/d01"),
        ("Q op exits 2", corrupt(kh, "kh_q/d00", lambda rc, out: (2, out)), "kh_q/d00"),
        ("Z op raises", corrupt(kh, "kh_z/d02", lambda rc, out: 1 / 0), "kh_z/d02"),
        ("cube Euler mismatch", corrupt(plans["cube"], "cube/d00", lambda rc, C: (1, C)), "cube/d00"),
    ]
    rank2 = plans["rank2"]
    battery = next(op.name for op in rank2.ops if op.group == "verify")
    table = [op.name for op in rank2.ops if op.group == "classify"][-1]
    cases += [
        ("battery stage count changed", corrupt(rank2, battery, lambda rc, out: (rc, out.replace("22", "23", 1))), battery),
        ("classify exit flipped", corrupt(rank2, table, lambda rc, out: (1 - rc, out)), table),
    ]
    flip = iter(range(10**6))
    cases.append(("stdout changes between passes", corrupt(kh, "kh_f2/d00", lambda rc, out: (rc, out + " " * (next(flip) % 2))), "kh_f2/d00"))
    for what, plan, victim in cases:
        r = run_plan(plan)
        failed_ops = {op for _, op, _ in r.errors}
        expect(victim in failed_ops, f"corruption counted as a failure: {what}")

    label = json.dumps({"family": "F_(p^2)", "params": []})
    expect(checks.check_classify(True, 0, label) is None, "a field that may be a gap passes when classify labels it")
    expect(checks.check_classify(True, 0, "") is not None, "a field labelled with no family label fails")
    expect(checks.check_classify(False, 1, "") is not None, "a gap on a table that is no field fails")


def check_trace(work):
    plan = tiny_plans(work)["kh"]
    tracer = Tracer()
    r = run_plan(plan, passes=4, tracer=tracer)
    m = run.layer_metrics(r, tracer, {})
    expect(m["linalg.matmul.per_pair"] == 2.0, f"traced tiny kh: matmul per pair {m['linalg.matmul.per_pair']}")
    expect(m["linalg.rank.per_diff"] == 2.0, f"traced tiny kh: rank per differential {m['linalg.rank.per_diff']}")
    expect(r.passes[1]["counts"] == r.passes[3]["counts"], "trace counters repeat exactly between traced passes")
    from frobknot import linalg

    expect(linalg.rank.__name__ == "rank" and not hasattr(linalg.rank, "__wrapped__"), "tracer uninstalls its wrappers")


def check_refclock():
    clock = RefClock()
    t0 = time.perf_counter()
    with clock:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    span = time.perf_counter() - t0
    expect(clock.ticks >= 2 and 0 < clock.wall < span and clock.ref > 0,
           f"reference clock samples inside an operation ({clock.ticks} ticks)")
    expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "reference clock stops its timer")
    try:
        with clock:
            1 / 0
    except ZeroDivisionError:
        pass
    expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "reference clock stops its timer on an exception")


def check_declaration():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect(layer == run.per_layer_units(), "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in bench["workloads"]} == set(wl.PLANS), "BENCHMARK.json workloads match run.py")


def main() -> int:
    work = os.path.join(run.OUT, "selfcheck")
    shutil.rmtree(work, ignore_errors=True)
    check_generator()
    check_workloads(os.path.join(work, "a"))
    check_trace(os.path.join(work, "b"))
    check_refclock()
    check_declaration()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
