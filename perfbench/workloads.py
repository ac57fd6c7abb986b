"""The benchmark's three workloads: seeded inputs, operations and checks.

A workload turns a seed into input files and a Plan: the operations of one
pass, in order, and a check over the outputs of a pass.  Two workloads call
``frobknot.cli.main(argv)`` in-process with stdout captured; ``cube_assembly``
calls ``frobknot.complex`` directly, because no CLI command builds a complex
without reducing it.

The seed picks braid words and the F_5 table sample; strand and crossing
counts are fixed per slot.  A drawn word is kept only when a cost proxy of
its complex, computed from the rank profile r_0..r_n, falls in the slot's
band: the d∘d multiply-adds sum(r_i r_(i+1) r_(i+2)) for homology, and the
dense cells sum(r_i r_(i+1)) for assembly.  Random words of one length
differ in cost by up to 4x, which would swamp the regression bounds; the
bands pin the work per pass while the words still vary with the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import braid
import checks

MAX_DRAWS = 2000


@dataclass
class Op:
    name: str
    group: str  # the stage the op's time is booked to
    run: Callable[[], tuple]  # -> (exit code, payload); the timed part
    render: Optional[Callable] = None  # payload -> stdout text, untimed


@dataclass
class Plan:
    ops: list
    check: Callable[[dict], dict]  # {op name: (rc, out)} -> {op name: error}
    pd_files: list = field(default_factory=list)
    table_files: list = field(default_factory=list)
    load: Optional[Callable[[list], None]] = None  # takes the parsed diagrams


def call_cli(argv: list) -> tuple:
    from frobknot import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _d2_macs(r):
    return sum(a * b * c for a, b, c in zip(r, r[1:], r[2:]))


def _cells(r):
    return sum(a * b for a, b in zip(r, r[1:]))


def draw_words(rnd, slots, proxy, seen):
    """One word per (strands, crossings, lo, hi) slot, proxy(profile) in [lo, hi]."""
    out = []
    for strands, n, lo, hi in slots:
        for _ in range(MAX_DRAWS):
            w = tuple(rnd.choice((1, -1)) * rnd.randint(1, strands - 1) for _ in range(n))
            if w in seen:
                continue
            prof = braid.rank_profile(w, strands)
            if lo <= proxy(prof) <= hi:
                seen.add(w)
                out.append((w, strands, prof))
                break
        else:
            raise RuntimeError(f"no {strands}-strand {n}-crossing word in [{lo}, {hi}]")
    return out


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_diagram(work: str, idx: int, word, strands: int) -> str:
    header = f"# closure of {list(word)} on {strands} strands\n"
    return _write(os.path.join(work, f"d{idx:02d}.pd"), header + braid.closure_pd(word, strands))


def _euler(word, prof) -> int:
    """Alternating sum of chain-group ranks after the -n_minus shift."""
    n_minus = sum(1 for x in word if x < 0)
    return sum(-r if (i - n_minus) % 2 else r for i, r in enumerate(prof))


# ---------------------------------------------------------------------------
# kh_homology: linalg-bound homology through the CLI
# ---------------------------------------------------------------------------

KH_SLOTS = (
    [(3, 5, 180_000, 220_000)] * 6
    + [(2, 4, 19_000, 22_000)] * 2
    + [(3, 4, 22_000, 27_000)] * 2
)
KH_RINGS = (("Z", "kh_z"), ("Fp:2", "kh_f2"), ("Q", "kh_q"))


def plan_kh_homology(seed: int, work: str) -> Plan:
    rnd = random.Random(f"kh_homology-{seed}")
    return kh_plan(draw_words(rnd, KH_SLOTS, _d2_macs, set()), work, q_crossings=4)


def kh_plan(words, work: str, q_crossings: int) -> Plan:
    """Homology over Z and F_2 of every (word, strands, profile), and over Q
    of those with ``q_crossings`` crossings (the Fraction path costs about
    8x Z, so Q runs on the small diagrams only)."""
    paths, eulers, ops = [], [], []
    for idx, (w, strands, prof) in enumerate(words):
        paths.append(_write_diagram(work, idx, w, strands))
        eulers.append(_euler(w, prof))
    for ring, group in KH_RINGS:
        for idx, (w, _, _) in enumerate(words):
            if ring == "Q" and len(w) != q_crossings:
                continue
            argv = ["homology", paths[idx], "--a5", "0,0", "--ring", ring, "--normalize", "--json"]
            ops.append(Op(f"{group}/d{idx:02d}", group, lambda a=argv: call_cli(a)))

    def check(res):
        errs = {}
        for idx in range(len(words)):
            z_name = f"kh_z/d{idx:02d}"
            z = checks.parse_table(*res[z_name]) if z_name in res else None
            errs[z_name] = checks.check_z_table(z, eulers[idx])
            for group, fn in (("kh_f2", checks.check_f2_table), ("kh_q", checks.check_q_table)):
                name = f"{group}/d{idx:02d}"
                if name in res:
                    errs[name] = fn(z, checks.parse_table(*res[name]))
        return errs

    return Plan(ops, check, pd_files=paths)


# ---------------------------------------------------------------------------
# cube_assembly: dense complex assembly through the library
# ---------------------------------------------------------------------------

CUBE_SLOTS = (
    (2, 7, 919_104, 919_104),  # exactly 3 or 4 negative letters
    (3, 8, 1_000_000, 1_100_000),
    (3, 8, 1_000_000, 1_100_000),
    (4, 8, 1_000_000, 1_100_000),
)


def plan_cube_assembly(seed: int, work: str) -> Plan:
    rnd = random.Random(f"cube_assembly-{seed}")
    return cube_plan(draw_words(rnd, CUBE_SLOTS, _cells, set()), work)


def cube_plan(words, work: str) -> Plan:
    """Build the normalized a5(0, 0) complex of each diagram and compare its
    graded Euler characteristic with the bracket."""
    paths = [_write_diagram(work, i, w, s) for i, (w, s, _) in enumerate(words)]
    diagrams = []

    def load(parsed):
        diagrams[:] = parsed

    def build_and_check(i):
        from frobknot import complex as cx, frobenius as fb

        d = diagrams[i]
        C = cx.chain_complex(d, fb.a5(0, 0), normalize=True)
        ok = cx.graded_euler_characteristic(C) == cx.jones_from_bracket(d)
        return (0 if ok else 1), C

    def render(C):
        nnz = [len(m.entries) - m.entries.count(0) for m in C.diffs]
        return json.dumps({"shift": C.shift, "ranks": list(C.ranks), "nnz": nnz})

    ops = [
        Op(f"cube/d{i:02d}", "cube", lambda i=i: build_and_check(i), render)
        for i in range(len(words))
    ]
    want = {f"cube/d{i:02d}": list(prof) for i, (_, _, prof) in enumerate(words)}

    def check(res):
        errs = {}
        for name, (rc, out) in res.items():
            if rc != 0:
                errs[name] = "graded Euler characteristic != bracket"
            elif json.loads(out)["ranks"] != want[name]:
                errs[name] = "module ranks differ from the rank profile"
            else:
                errs[name] = None
        return errs

    return Plan(ops, check, pd_files=paths, load=load)


# ---------------------------------------------------------------------------
# rank2_search: verification batteries and classify through the CLI
# ---------------------------------------------------------------------------

# `verify thm1.2` at its defaults makes four reports: F_2, F_3, F_5 and the
# Z box of bound 2.  Four calls make them here, so the Z box runs once per
# pass and is timed on its own.
BATTERIES = (
    (("thm1.1",), "verify"),
    (("thm1.2", "--p", "2"), "verify"),
    (("thm1.2", "--p", "3"), "verify"),
    (("thm1.2", "--p", "5"), "verify"),
    (("thm1.2", "--zbound", "2"), "zbox"),
    (("prop3.4",), "verify"),
    (("char2",), "verify"),
    (("noncomm",), "verify"),
    (("thm1.2", "--p", "7"), "verify"),
)
F5_SAMPLE = 40


def stratified_sample(rnd, tables, p, count):
    """``count`` tables, split over the invariant classes in proportion to
    their sizes (largest remainder), then drawn at random inside each class.
    Classify's cost depends on the class (the fields are the gaps and search
    every family), so every seed gets the same mix."""
    classes = {}
    for t in tables:
        classes.setdefault(checks.invariants(t, p), []).append(t)
    keys = sorted(classes)
    shares = [count * len(classes[k]) / len(tables) for k in keys]
    alloc = [int(x) for x in shares]
    by_remainder = sorted(range(len(keys)), key=lambda i: (alloc[i] - shares[i], i))
    for i in by_remainder[: count - sum(alloc)]:
        alloc[i] += 1
    sample = [t for k, n in zip(keys, alloc) for t in rnd.sample(classes[k], n)]
    rnd.shuffle(sample)
    return sample


def plan_rank2_search(
    seed: int, work: str, batteries=BATTERIES, f3_every: int = 1, f5_count: int = F5_SAMPLE
) -> Plan:
    """The batteries, then classify on every ``f3_every``-th associative
    commutative F_3 table and on a seeded, stratified F_5 sample."""
    rnd = random.Random(f"rank2_search-{seed}")
    tables = [(t, 3) for t in checks.associative_tables(3)[::f3_every]]
    tables += [(t, 5) for t in stratified_sample(rnd, checks.associative_tables(5), 5, f5_count)]
    ops, may_gap, paths = [], {}, []
    for args, group in batteries:
        argv = ["verify", *args, "--json"]
        ops.append(Op("verify/" + " ".join(args), group, lambda a=argv: call_cli(a)))
    for idx, (t, p) in enumerate(tables):
        path = _write(os.path.join(work, f"t{idx:03d}.json"), json.dumps(checks.table_json(t, p)))
        paths.append(path)
        name = f"classify/t{idx:03d}"
        may_gap[name] = checks.may_be_gap(t, p)
        ops.append(Op(name, "classify", lambda a=["classify", path, "--json"]: call_cli(a)))
    battery_args = {"verify/" + " ".join(args): args for args, _ in batteries}

    def check(res):
        errs = {}
        for name, (rc, out) in res.items():
            if name in battery_args:
                errs[name] = checks.check_battery(battery_args[name], rc, out)
            else:
                errs[name] = checks.check_classify(may_gap[name], rc, out)
        return errs

    return Plan(ops, check, table_files=paths)


# Seconds of one untraced pass at the commit that added the benchmark, on a
# 2-vCPU VM in its slow spells.  A run makes as many passes as fill --seconds
# at this pace, the same number on every commit (run.pass_count).
PASS_S = {
    "kh_homology": 6.0,
    "cube_assembly": 4.3,
    "rank2_search": 7.5,
}

PLANS = {
    "kh_homology": plan_kh_homology,
    "cube_assembly": plan_cube_assembly,
    "rank2_search": plan_rank2_search,
}
