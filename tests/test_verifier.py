import itertools
import random

import pytest

from frobknot import frobenius as fr
from frobknot import rank2
from frobknot import verifier as vf
from frobknot.rings import GF

F2, F3, F5 = GF(2), GF(3), GF(5)


def test_theorem_1_2_f2():
    rep = vf.verify_theorem_1_2(ring=F2)
    assert rep.ok
    assert rep.stages["associative"] == 22
    assert rep.stages["surjective"] == 12


def test_theorem_1_2_f3():
    rep = vf.verify_theorem_1_2(ring=F3)
    assert rep.ok
    assert rep.stages["associative"] == 105
    assert rep.stages["surjective"] == 72


def test_theorem_1_2_f5():
    rep = vf.verify_theorem_1_2(ring=F5)
    assert rep.ok
    assert rep.stages["associative"] == 745
    assert rep.stages["surjective"] == 600


def test_theorem_1_2_bounded_z():
    rep = vf.verify_theorem_1_2(zbound=2)
    assert rep.ok
    assert rep.stages["associative"] == 481
    assert rep.stages["surjective"] == 180


@pytest.mark.parametrize(
    "kwargs, associative, surjective",
    [
        ({"ring": GF(7)}, 2737, 2352),
        ({"ring": GF(11)}, 15961, 14520),
        ({"ring": GF(13)}, 30745, 28392),
        ({"zbound": 3}, 1393, 380),
        ({"zbound": 4}, 3121, 636),
    ],
)
def test_theorem_1_2_larger_domains(kwargs, associative, surjective):
    # counts from the brute-force filter over every p^6 (or (2B+1)^6) table
    rep = vf.verify_theorem_1_2(**kwargs)
    assert rep.ok
    assert rep.stages == {"associative": associative, "surjective": surjective}


def test_theorem_1_2_argument_validation():
    with pytest.raises(ValueError):
        vf.verify_theorem_1_2()
    with pytest.raises(ValueError):
        vf.verify_theorem_1_2(ring=F2, zbound=1)


def test_theorem_1_1_f2():
    rep = vf.verify_theorem_1_1(2)
    assert rep.ok
    assert rep.stages["mult_survivors"] == 12
    assert rep.stages["comult_survivors"] == 12
    assert rep.stages["compatible_pairs"] == 24


def test_theorem_1_1_f3():
    rep = vf.verify_theorem_1_1(3)
    assert rep.ok
    assert rep.stages["mult_survivors"] == 72
    assert rep.stages["comult_survivors"] == 72
    assert rep.stages["compatible_pairs"] == 432


def test_theorem_1_1_f5():
    # the kernel solve at a prime the double enumeration refused
    rep = vf.verify_theorem_1_1(5)
    assert rep.ok
    assert rep.stages == {"mult_survivors": 600, "comult_survivors": 600, "compatible_pairs": 12000}


def test_prop_3_4_sweeps():
    rep3 = vf.verify_prop_3_4(3)
    rep5 = vf.verify_prop_3_4(5)
    assert rep3.ok and rep5.ok
    assert rep3.stages["swept"] == 67
    assert rep5.stages["swept"] == 310


def test_char2_classification():
    rep = vf.verify_char2_classification()
    assert rep.ok
    assert rep.stages["associative"] == 22


def test_noncommutative_survivors():
    rep2 = vf.verify_noncommutative(2)
    rep3 = vf.verify_noncommutative(3)
    assert rep2.ok and rep3.ok
    assert rep2.stages["survivors"] == 6
    assert rep3.stages["survivors"] == 16
    rep5 = vf.verify_noncommutative(5)
    assert rep5.ok and rep5.stages["survivors"] == 48


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
    # reference list, each once), or a seeded sample of them
    comults = _reference_comults(p)
    tables = [t for _, t in comults]
    if sample:
        tables = random.Random(p).sample(tables, sample)
    for t in tables:
        want = [(d, dual) for d, dual in comults if _frobenius_relation(t, d, p)]
        assert rank2._frobenius_comults(t, p) == want, t


@pytest.mark.parametrize("p", [2, 3, 5])
def test_comult_survivors_count_the_injective_coproducts(p):
    # transposition carries the injective coassociative coproducts onto the
    # surjective associative commutative tables, so thm1.1 counts the latter
    injective = sorted(t for _, t in _reference_comults(p) if rank2._surjective(t, p))
    mults = [t for t in rank2._associative_comm_tables(range(p), p) if rank2._surjective(t, p)]
    assert injective == sorted(mults)
    assert vf.verify_theorem_1_1(p).stages["comult_survivors"] == len(injective)


@pytest.mark.parametrize("p", [2, 3])
def test_search_nearly_frobenius_matches_reference(p):
    # the transposed tables of the reference list are every associative
    # commutative table, each once
    ring, comults = GF(p), _reference_comults(p)
    for _, t in comults:
        e11, e12, _, e22 = t
        want = [d for d, _ in comults if _frobenius_relation(t, d, p)]
        assert vf.search_nearly_frobenius(rank2.MultTable(ring, e11, e12, e22)) == want
