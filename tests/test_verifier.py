import functools
import itertools
import json
import random
import time

import pytest

from frobknot import cli
from frobknot import frobenius as fr
from frobknot import rank2
from frobknot import verifier as vf
from frobknot.rings import GF, ZZ

F2, F3, F5 = GF(2), GF(3), GF(5)


# every frozen battery report of tier-1 but noncomm's, which
# test_noncommutative_survivors holds: (verify target, domain, space_size,
# stages), where a domain is a prime p or "ZB", thm1.2's integer box [-B, B]
FROZEN = [
    ("thm1.2", 2, 2**6, {"associative": 22, "surjective": 12}),
    ("thm1.2", 3, 3**6, {"associative": 105, "surjective": 72}),
    ("thm1.2", 5, 5**6, {"associative": 745, "surjective": 600}),
    ("thm1.2", 7, 7**6, {"associative": 2737, "surjective": 2352}),
    ("thm1.2", 11, 11**6, {"associative": 15961, "surjective": 14520}),
    ("thm1.2", 13, 13**6, {"associative": 30745, "surjective": 28392}),
    ("thm1.2", "Z2", 5**6, {"associative": 481, "surjective": 180}),
    ("thm1.2", "Z3", 7**6, {"associative": 1393, "surjective": 380}),
    ("thm1.2", "Z4", 9**6, {"associative": 3121, "surjective": 636}),
    ("thm1.1", 2, 2**14, {"mult_survivors": 12, "comult_survivors": 12, "compatible_pairs": 24}),
    ("thm1.1", 3, 3**14, {"mult_survivors": 72, "comult_survivors": 72, "compatible_pairs": 432}),
    ("thm1.1", 5, 5**14, {"mult_survivors": 600, "comult_survivors": 600, "compatible_pairs": 12000}),
    ("prop3.4", 3, 67, {"swept": 67}),
    ("prop3.4", 5, 310, {"swept": 310}),
    ("char2", 2, 2**6, {"associative": 22}),
]
NONCOMM_SURVIVORS = {2: 6, 3: 16, 5: 48}
SECONDS = {}  # (battery, domain) -> the wall-clock seconds of its one run


@functools.cache  # each battery runs once per domain in this file
def _run(battery, domain):
    over_p, _, over_z, then = cli._BATTERIES[battery]  # the runs of each verify target
    t0 = time.monotonic()
    if isinstance(domain, str):
        rep = over_z(int(domain[1:]))
    else:
        rep = over_p(domain) if over_p else then()
    SECONDS[battery, domain] = time.monotonic() - t0
    return rep


@pytest.mark.parametrize("battery, domain, space_size, stages", FROZEN, ids=[f"{b}-{d}" for b, d, *_ in FROZEN])
def test_frozen_reports(battery, domain, space_size, stages):
    rep = _run(battery, domain)
    assert (rep.ok, rep.space_size, rep.stages) == (True, space_size, stages)


# acceptance criteria 1, 2, 3 and 5: each battery holds over these domains
# within a wall-clock budget in seconds, summed over the domains
BUDGETS = [
    ("thm1.2", (2, 3, 5, "Z2"), 10),
    ("thm1.1", (2, 3), 300),
    ("prop3.4", (3, 5), 5),
    ("noncomm", (2, 3), 60),
]


@pytest.mark.parametrize("battery, domains, budget", BUDGETS, ids=[b for b, *_ in BUDGETS])
def test_battery_budgets(battery, domains, budget):
    reports = [_run(battery, d) for d in domains]
    assert all(rep.ok for rep in reports), [rep.summary() for rep in reports]
    seconds = sum(SECONDS[battery, d] for d in domains)
    assert seconds < budget, f"budget {budget}s exceeded: {seconds:.1f}s"


def test_noncommutative_survivors():
    for p, survivors in NONCOMM_SURVIVORS.items():
        rep = _run("noncomm", p)
        assert (rep.ok, rep.space_size, rep.stages) == (True, p**8, {"survivors": survivors})


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_stages_follow_the_closed_forms(p):
    # orbit counting over F_p, with q = p^2 - 1: q(p^2 + p + 1) nonzero
    # associative commutative tables and the zero one, p^2 q onto ones,
    # p^3 (p - 1) q compatible pairs, 2q associative noncommutative tables;
    # checked on every frozen F_p report but the Prop. 3.4 sweeps
    q = p * p - 1
    associative, onto = q * (p * p + p + 1) + 1, p * p * q
    closed = {
        "thm1.2": {"associative": associative, "surjective": onto},
        "thm1.1": {"mult_survivors": onto, "comult_survivors": onto, "compatible_pairs": p**3 * (p - 1) * q},
        "char2": {"associative": associative},
        "noncomm": {"survivors": 2 * q},
    }
    batteries = [b for b, d, *_ in FROZEN if d == p and b in closed] + ["noncomm"] * (p in NONCOMM_SURVIVORS)
    for battery in batteries:
        assert _run(battery, p).stages == closed[battery]


def test_theorem_1_2_argument_validation():
    with pytest.raises(ValueError):
        vf.verify_theorem_1_2()
    with pytest.raises(ValueError):
        vf.verify_theorem_1_2(ring=F2, zbound=1)
    # the bound is an int, not a bool, a float or a string
    for bound in (True, 2.5, "3"):
        with pytest.raises(ValueError, match="Z box bound"):
            vf.verify_theorem_1_2(zbound=bound)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_associative_noncomm_table_is_surjective(p):
    # A^2 = A for every associative noncommutative rank-2 algebra over a
    # field (the lemma in verify_noncommutative's docstring), so the battery
    # tests no surjectivity: its survivors are all 2(p^2 - 1)
    tables = list(rank2._associative_noncomm_tables(p))
    assert len(tables) == 2 * (p * p - 1)
    assert all(rank2._surjective(t, p) for t in tables)


@pytest.mark.parametrize("p", [2, 3])
def test_associative_noncomm_tables_match_brute_force(p):
    brute = []
    for c in itertools.product(range(p), repeat=8):
        t = ((c[0], c[1]), (c[2], c[3]), (c[4], c[5]), (c[6], c[7]))
        if t[1] != t[2] and rank2._associative(t, p):
            brute.append(t)
    assert list(rank2._associative_noncomm_tables(p)) == brute


def test_search_nearly_frobenius_membership():
    F = fr.a5(0, 0, F2)
    m = rank2.MultTable(F2, (1, 0), (0, 1), (0, 0))
    found = vf.search_nearly_frobenius(m)
    assert len(found) == 4
    assert F.comult in found
    zero = (((0, 0), (0, 0)), ((0, 0), (0, 0)))
    assert zero in found


def test_report_json_shape():
    rep = vf.verify_theorem_1_2(ring=F2)
    j = rep.to_json()
    assert rep.ok
    assert j["counterexamples"] == []
    assert j["name"] and j["stages"]
    assert isinstance(rep.summary(), str)


def _reference_comults(p):
    # the p^6 loop the solved generator replaced: every symmetric tensor whose
    # transposed table is associative, in lexicographic order of the tensor
    out = []
    for c in itertools.product(range(p), repeat=6):
        d = (((c[0], c[1]), (c[1], c[2])), ((c[3], c[4]), (c[4], c[5])))
        dual = ((c[0], c[3]), (c[1], c[4]), (c[1], c[4]), (c[2], c[5]))
        if rank2._associative(dual, p):
            out.append((d, dual))
    return out


def _frobenius_relation(t, d, p) -> bool:
    # Delta m = (m (x) 1)(1 (x) Delta) = (1 (x) m)(Delta (x) 1), entry by entry
    for i, j, a, b in itertools.product((0, 1), repeat=4):
        # t[2 * i + j] is the product pair e_i e_j
        lhs = sum(t[2 * i + j][s] * d[s][a][b] for s in (0, 1)) % p
        mid = sum(t[2 * i + u][a] * d[j][u][b] for u in (0, 1)) % p
        rhs = sum(d[i][a][v] * t[2 * v + j][b] for v in (0, 1)) % p
        if lhs != mid or lhs != rhs:
            return False
    return True


@pytest.mark.parametrize("p, sample", [(2, None), (3, None), (5, 50)])
def test_frobenius_comults_match_reference(p, sample):
    # every associative commutative table (the transposed tables of the
    # reference list, each once), or a seeded sample of them.  The solver
    # reads its whole kernel, which on a unital table is all coassociative;
    # search_nearly_frobenius tests each member, so it matches on every table
    ring, comults = GF(p), _reference_comults(p)
    tables = [t for _, t in comults]
    if sample:
        tables = random.Random(p).sample(tables, sample)
    n_unital = 0
    for t in tables:
        want = [(d, dual) for d, dual in comults if _frobenius_relation(t, d, p)]
        if rank2._unit(t, p) is not None:
            n_unital += 1
            assert rank2._frobenius_comults(t, p) == want, t
        e11, e12, _, e22 = t
        assert vf.search_nearly_frobenius(rank2.MultTable(ring, e11, e12, e22)) == [d for d, _ in want]
    assert 0 < n_unital < len(tables)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_injective_coproducts_count_the_units(p):
    # over a unital commutative table the solutions are Delta(a) = Delta_0(z a)
    # for one Frobenius coproduct Delta_0 and z in A, injective exactly when z
    # is a unit: each surjective table carries |A^x| injective ones, counted
    # here by brute force, and thm1.1's compatible pairs are their sum
    tables = [t for t in rank2._associative_comm_tables(range(p), p) if rank2._surjective(t, p)]
    assert len(tables) == p * p * (p * p - 1)
    elements = list(itertools.product(range(p), repeat=2))
    total = 0
    for t in tables:
        one = rank2._unit(t, p)
        units = sum(any(rank2._mul(t, u, v, p) == one for v in elements) for u in elements)
        injective = sum(rank2._surjective(dual, p) for _, dual in rank2._frobenius_comults(t, p))
        assert injective == units, t
        total += injective
    assert total == p**3 * (p - 1) * (p * p - 1)  # thm1.1's compatible_pairs, by its FROZEN row


@pytest.mark.parametrize("p", [2, 3, 5])
def test_comult_survivors_count_the_injective_coproducts(p):
    # transposition carries the injective coassociative coproducts onto the
    # surjective associative commutative tables, so thm1.1 counts the latter
    injective = sorted(t for _, t in _reference_comults(p) if rank2._surjective(t, p))
    mults = [t for t in rank2._associative_comm_tables(range(p), p) if rank2._surjective(t, p)]
    assert injective == sorted(mults)
    assert len(injective) == p * p * (p * p - 1)  # thm1.1's comult_survivors, by its FROZEN row


# --- failure branches -----------------------------------------------------
#
# Each test forces one failure with one patch, runs the battery through
# cli.main, and checks every record: its kind, its fields, and that its table
# reads back to the kernel tuple of the candidate that failed.


def _forced(monkeypatch, capsys, module, name, fake, *argv):
    """The counterexample records of one verify run with module.name patched
    to fake; the run must exit 1 and print one report."""
    monkeypatch.setattr(module, name, fake)
    assert cli.main(["verify", *argv, "--json"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    return report["counterexamples"]


def _read_back(records, ring):
    # a table writes out e2e1 exactly when it differs from e1e2
    tables = [rank2.MultTable.from_json(r["table"]) for r in records]
    assert all(t.ring == ring for t in tables)
    assert all(("e2e1" in r["table"]["products"]) != t.commutative for r, t in zip(records, tables))
    return [rank2._entries(t) for t in tables]


def _comm_tables(entries, m):
    return list(rank2._associative_comm_tables(entries, m))


@pytest.mark.parametrize(
    "argv, ring, entries",
    [(("--p", "3"), GF(3), range(3)), (("--zbound", "1"), ZZ, range(-1, 2))],
    ids=["F_3", "Z box"],
)
def test_thm1_2_records_each_surjective_table_without_unit(
    monkeypatch, capsys, argv, ring, entries
):
    m = ring.p or 0
    want = [t for t in _comm_tables(entries, m) if rank2._surjective(t, m)]
    recs = _forced(monkeypatch, capsys, vf, "_unit", lambda t, m: None, "thm1.2", *argv)
    assert [r["kind"] for r in recs] == ["surjective_without_unit"] * len(want)
    assert all(set(r) == {"kind", "table"} for r in recs)
    assert _read_back(recs, ring) == want


def test_thm1_1_records_each_pair_without_unit(monkeypatch, capsys):
    want = [
        (t, d)
        for t in _comm_tables(range(3), 3)
        if rank2._surjective(t, 3)
        for d, dual in rank2._frobenius_comults(t, 3)
        if rank2._surjective(dual, 3)
    ]
    recs = _forced(monkeypatch, capsys, vf, "_unit", lambda t, m: None, "thm1.1", "--p", "3")
    assert len(recs) == 432
    assert all(set(r) == {"kind", "table", "comult", "missing"} for r in recs)
    assert {(r["kind"], r["missing"]) for r in recs} == {("frobenius_without_identity", "unit")}
    comults = [tuple(tuple(map(tuple, dk)) for dk in r["comult"]) for r in recs]
    assert list(zip(_read_back(recs, GF(3)), comults)) == want


def test_noncomm_records_each_unmatched_table(monkeypatch, capsys):
    want = [t for t in rank2._associative_noncomm_tables(3) if rank2._surjective(t, 3)]
    no_iso = lambda a, b, p: None
    recs = _forced(monkeypatch, capsys, vf, "_isomorphism", no_iso, "noncomm", "--p", "3")
    assert [r["kind"] for r in recs] == ["unmatched_noncommutative_table"] * 16
    assert all(set(r) == {"kind", "table"} and not r["table"]["commutative"] for r in recs)
    assert _read_back(recs, GF(3)) == want


def test_char2_records_each_unitality_mismatch(monkeypatch, capsys):
    # with no unit found, every table of a unital family is a mismatch
    tables = _comm_tables(range(2), 2)
    classes = [rank2.classify(rank2.MultTable(GF(2), t[0], t[1], t[3])) for t in tables]
    unital = [rank2._CHAR2[label][3](2, *params)[1] for label, params in classes]
    want = [(t, label) for t, (label, _), u in zip(tables, classes, unital) if u]
    recs = _forced(monkeypatch, capsys, rank2, "find_unit", lambda t: None, "char2")
    assert len(recs) == len(want) > 0
    assert all(set(r) == {"kind", "table", "label", "unital"} for r in recs)
    assert {(r["kind"], r["unital"]) for r in recs} == {("unitality_pattern_mismatch", False)}
    assert list(zip(_read_back(recs, GF(2)), (r["label"] for r in recs))) == want


def test_prop3_4_records_each_sweep_mismatch(monkeypatch, capsys):
    # the unital members of the swept families over F_3, in sweep order
    unital = [("m6", (0, 0)), ("m6", (0, 1)), ("m6", (1, 0)), ("m9", (1,))]
    unital += [("m8_2R", (1, 0)), ("m8_2R", (1, 2))]
    assert all(rank2.find_unit(rank2.representative(*fp, GF(3))) is not None for fp in unital)
    recs = _forced(monkeypatch, capsys, rank2, "find_unit", lambda t: None, "prop3.4", "--p", "3")
    assert recs == [
        {
            "kind": "sweep_mismatch",
            "family": family,
            "params": list(params),
            "expected": {"associative": True, "unital": True},
            "got": {"associative": True, "unital": False},
        }
        for family, params in unital
    ]


@pytest.mark.parametrize("p, count", [(2, 12), (3, 72), (5, 600)])
def test_a_surjective_table_keeps_its_whole_coproduct_kernel(p, count):
    # a surjective commutative table is unital, and over a unital algebra
    # every solution of the Frobenius relation is coassociative (see
    # rank2._frobenius_comults), so each keeps its 2-dimensional kernel
    tables = [t for t in rank2._associative_comm_tables(range(p), p) if rank2._surjective(t, p)]
    assert len(tables) == count
    for t in tables:
        assert len(rank2._frobenius_comults(t, p)) == p * p, t
