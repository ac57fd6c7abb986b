import gc
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import sympy

from frobknot import complex as cx
from frobknot import diagram as dg
from frobknot import frobenius as fr
from frobknot.linalg import ExactMatrix, _reduce, rank, smith_normal_form
from frobknot.rings import QQ, ZZ, GF

from braids import braid

F2, F3 = GF(2), GF(3)


def euler_characteristic(C):
    return sum(-rk if i % 2 else rk for i, rk in enumerate(C.ranks, C.shift))


def build(name, F, normalize=True):
    cube = dg.build_cube(dg.BUILDERS[name]())
    return cx.build_complex(cube, F, normalize=normalize)


# --- d^2 = 0 and basic shapes ---------------------------------------------------


def test_d_squared_all_builders():
    for name in dg.BUILDERS:
        for F in (fr.a5(0, 0), fr.a5(1, 1), fr.a5(0, 1, QQ)):
            c = build(name, F)
            assert cx.verify_d_squared(c)


def test_differentials_hold_ring_elements():
    # build_complex skips normalization: its entries must already be what
    # from_rows would make of them (residues over F_p); over Q they are
    # integers, which for a5's integer data are the Z complex's own
    typed = lambda m: tuple((type(x), x) for row in m.nz for _, x in row)
    for R in (ZZ, QQ, F2, F3):
        for name in ("trefoil_left", "figure10_d1", "hopf_neg"):
            for h, t in ((1, -1), (0, 0)):
                over_z = build(name, fr.a5(h, t)).diffs
                for m, z in zip(build(name, fr.a5(h, t, R)).diffs, over_z):
                    if R == QQ:
                        assert typed(m) == typed(z)
                        assert all(type(x) is Fraction for x in m.entries)
                        continue
                    assert typed(m) == typed(ExactMatrix.from_rows(R, list(map(m.row, range(m.rows)))))
                    if R.kind == "Fp":
                        assert all(x in range(R.p) for x in m.entries)


def test_two_crossing_two_component_ranks():
    c = build("figure10_d1", fr.a5(0, 0), normalize=False)
    assert list(c.ranks) == [2, 8, 2]
    assert euler_characteristic(c) == -4


def test_unnormalized_hopf_homology():
    c = build("hopf_pos", fr.a5(0, 0), normalize=False)
    h = cx.homology(c)
    frees = [row[1] for row in sorted((i, f) for i, f, tors in _rows(h))]
    assert frees == [2, 0, 2]


def _rows(table):
    return [(r["i"], r["free_rank"], r["torsion"]) for r in table.to_json()["groups"]]


# --- integral oracles -------------------------------------------------------------


def test_left_trefoil_integral_homology():
    c = build("trefoil_left", fr.a5(0, 0))
    got = {i: (f, tors) for i, f, tors in _rows(cx.homology(c))}
    assert got.get(-3, (0, []))[0] == 1
    assert got.get(-2) == (1, [2])
    assert got.get(0, (0, []))[0] == 2
    assert got.get(-1, (0, [])) == (0, [])


def test_right_trefoil_integral_homology():
    c = build("trefoil_right", fr.a5(0, 0))
    got = {i: (f, tors) for i, f, tors in _rows(cx.homology(c))}
    assert got.get(0, (0, []))[0] == 2
    assert got.get(2) == (1, [])
    assert got.get(3) == (1, [2])


def test_deformed_homology_counts_components():
    # over the rationals with x^2 = 1 the total rank is 2^(number of components)
    for name, comps in (
        ("unknot_0", 1),
        ("unknot_1kink_pos", 1),
        ("hopf_neg", 2),
        ("trefoil_right", 1),
    ):
        c = build(name, fr.a5(0, 1, QQ))
        assert sum(f for _, f, _ in _rows(cx.homology(c))) == 2**comps


def test_disjoint_loop_doubles_ranks():
    base = dg.BUILDERS["hopf_pos"]()
    bigger = dg.LinkDiagram(base.crossings, 1, base.signs)
    F = fr.a5(0, 0, F3)
    c1 = cx.build_complex(dg.build_cube(base), F, normalize=False)
    c2 = cx.build_complex(dg.build_cube(bigger), F, normalize=False)
    assert list(c2.ranks) == [2 * r for r in c1.ranks]


# --- Euler characteristic ------------------------------------------------------------


def test_euler_characteristic_matches_homology():
    for name in ("hopf_pos", "trefoil_left", "figure10_d1"):
        c = build(name, fr.a5(0, 0, QQ))
        chi_c = euler_characteristic(c)
        chi_h = sum((-1) ** i * f for i, f, _ in _rows(cx.homology(c)))
        assert chi_c == chi_h


def test_graded_euler_characteristic_is_jones():
    for name in ("unknot_0", "hopf_pos", "hopf_neg", "trefoil_left", "trefoil_right"):
        d = dg.BUILDERS[name]()
        c = cx.build_complex(dg.build_cube(d), fr.a5(0, 0), normalize=True)
        assert cx.graded_euler_characteristic(c) == cx.jones_from_bracket(d)


def test_jones_values():
    assert cx.jones_from_bracket(dg.BUILDERS["unknot_0"]()) == {-1: 1, 1: 1}
    assert cx.jones_from_bracket(dg.BUILDERS["hopf_pos"]()) == {0: 1, 2: 1, 4: 1, 6: 1}
    assert cx.jones_from_bracket(dg.BUILDERS["trefoil_right"]()) == {1: 1, 3: 1, 5: 1, 9: -1}


def test_jones_substitution(monkeypatch):
    # times delta = -A^2 - A^-2, then A^(2k) -> (-1)^k q^(-k), read off in
    # increasing q-exponent order; an odd A-exponent has no image
    monkeypatch.setattr(cx, "normalized_bracket", lambda d: {-4: 3, 0: -1, 2: 1})
    assert list(cx.jones_from_bracket(None).items()) == [(-2, -1), (-1, -1), (0, -1), (1, 2), (3, 3)]
    monkeypatch.setattr(cx, "normalized_bracket", lambda d: {3: 1})
    with pytest.raises(ValueError, match="odd exponent present"):
        cx.jones_from_bracket(None)


# --- grading guards ----------------------------------------------------------------


def test_q_grading_only_for_graded_algebra():
    d = dg.BUILDERS["hopf_pos"]()
    c = cx.build_complex(dg.build_cube(d), fr.a5(1, 1), normalize=True)
    assert c.q_degrees is None
    with pytest.raises(ValueError):
        cx.graded_euler_characteristic(c)


def test_q_grading_requires_normalization():
    d = dg.BUILDERS["hopf_pos"]()
    c = cx.build_complex(dg.build_cube(d), fr.a5(0, 0), normalize=False)
    assert c.q_degrees is None


def test_grading_is_solved_once_per_algebra(monkeypatch):
    # the algebra keeps its grading: a second build over it solves nothing,
    # and a new algebra with the same tensors solves it again
    solved = []
    monkeypatch.setattr(fr, "_grading", lambda *a: solved.append(a) or (1, -1))
    cube = dg.build_cube(dg.BUILDERS["trefoil_left"]())
    F = fr.a5(0, 0)
    C1, C2 = (cx.build_complex(cube, F, normalize=True) for _ in range(2))
    assert C1.q_degrees == C2.q_degrees is not None and len(solved) == 1
    assert cx.build_complex(cube, fr.a5(0, 0), normalize=True).q_degrees == C1.q_degrees
    assert len(solved) == 2


# --- homology over fields vs Z ------------------------------------------------------


def test_f2_rank_jumps_on_torsion():
    # the Z/2 in the right trefoil shows up as extra F_2 rank in two degrees
    cz = build("trefoil_right", fr.a5(0, 0))
    cf = build("trefoil_right", fr.a5(0, 0, F2))
    total_z = sum(f for _, f, _ in _rows(cx.homology(cz)))
    total_f2 = sum(f for _, f, _ in _rows(cx.homology(cf)))
    assert total_f2 == total_z + 2


def scaled(R):
    """a5(0, 0) with its product times 2 and its coproduct times 3: over Z
    few entries are units, and the torsion has 2, 3, 4 and 6."""
    F = fr.a5(0, 0, R)
    times = lambda t, k: [[[k * x for x in row] for row in a] for a in t]
    return fr.FrobeniusData(R, 2, times(F.mult, 2), times(F.comult, 3))


def test_universal_coefficients():
    # H^i(C x F_p) = H^i x F_p + Tor(H^(i+1), F_p) and H^i(C x Q) = H^i x Q,
    # read off the integral table
    diagrams = [b() for b in dg.BUILDERS.values()]
    for hand in ("left", "right"):
        base = dg.BUILDERS[f"trefoil_{hand}"]()
        diagrams += [dg.rii_pair(base, arc) for arc in (1, 4)]
    for d in diagrams:
        cube = dg.build_cube(d)
        for algebra in (lambda R: fr.a5(0, 0, R), lambda R: fr.a5(1, 1, R), scaled):
            table = lambda R: _rows(cx.homology(cx.build_complex(cube, algebra(R), True)))
            z = table(ZZ)
            assert table(QQ) == [(i, f, []) for i, f, _ in z]
            for p in (2, 3):
                tor = [sum(1 for x in tors if x % p == 0) for _, _, tors in z] + [0]
                want = [(i, f + tor[k] + tor[k + 1], []) for k, (i, f, _) in enumerate(z)]
                assert table(GF(p)) == want


def test_twisting_by_a_unit_keeps_the_homology():
    # twisting the coproduct and counit by an invertible y gives an
    # isomorphic complex (Khovanov, arXiv:math/0411447, Prop. 3); over Q,
    # y = 2 + x puts 1/2 and -1/4 into the coproduct
    rng = random.Random(25)
    diagrams = [b() for b in dg.BUILDERS.values()]
    for _ in range(4):
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(3, 6))]
        diagrams.append(dg.parse_pd(braid.closure_pd(word, strands)))
    for R, y in ((ZZ, (1, 1)), (QQ, (2, 1)), (F3, (2, 1))):
        F = fr.a5(0, 0, R)
        twisted = fr.twist(F, y)
        assert twisted.comult != F.comult
        if R == QQ:
            assert {Fraction(1, 2), Fraction(-1, 4)} <= {x for a in twisted.comult for row in a for x in row}
        for d in diagrams:
            cube = dg.build_cube(d)
            table = lambda A: cx.homology(cx.build_complex(cube, A, True)).to_json()
            assert table(twisted) == table(F)


# --- structural oracles: mirror image and disjoint union -------------------------


def seeded_closures(seed, count, max_letters):
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.randint(2, 3)
        letters = rng.randint(1, max_letters)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(letters)]
        yield dg.parse_pd(braid.closure_pd(word, strands))


def mirror(d):
    """The mirror image: each crossing rotated by one position, which swaps
    its 0- and its 1-smoothing, and each sign negated."""
    return dg.LinkDiagram(tuple(q[1:] + q[:1] for q in d.crossings), d.free_loops,
                          tuple(-s for s in d.signs))


def union(d1, d2):
    """The split union: d2's arc labels shifted past d1's, loops added and
    signs concatenated."""
    shifted = tuple(tuple(a + d1.arc_count for a in q) for q in d2.crossings)
    return dg.LinkDiagram(d1.crossings + shifted, d1.free_loops + d2.free_loops,
                          d1.signs + d2.signs)


def test_mirror_with_the_dual_algebra_is_the_dual_complex():
    # mirroring swaps the smoothings and dualizing transposes the product and
    # the coproduct, so C(mirror D; dual F) is the dual of C(D; F): over Z,
    # H^-k of the first has the free rank of H^k and the torsion of H^(k+1)
    # of the second.  The scaled algebra's dual is not isomorphic to it
    diagrams = [dg.BUILDERS[name]() for name in (
        "trefoil_left", "trefoil_right", "hopf_pos", "hopf_neg", "unknot_1kink_pos", "unknot_1kink_neg")]
    diagrams += seeded_closures(33, 9, 5)
    groups = lambda d, F: {i: (f, t) for i, f, t in _rows(cx.homology(cx.chain_complex(d, F, True)))}
    for F in (fr.a5(0, 0), fr.a5(1, 1), scaled(ZZ)):
        for d in diagrams:
            h, dual = groups(d, F), groups(mirror(d), fr.dualize(F))
            for k in {k for i in h for k in (i, i - 1)} | {-i for i in dual}:
                assert dual.get(-k, (0, []))[0] == h.get(k, (0, []))[0], (d, k)
                assert dual.get(-k, (0, []))[1] == h.get(k + 1, (0, []))[1], (d, k)


def test_homology_of_a_split_union_is_the_product():
    # Kunneth: C(D1 u D2) is C(D1) (x) C(D2), degrees added.  The
    # differential raises the degree, so over Z H^n(D1 u D2) is the sum of
    # H^i (x) H^j over i + j = n and of Tor(H^i, H^j) over i + j = n + 1;
    # over a field the Tor terms vanish.  Torsion is compared by elementary
    # divisors (prime powers), since Z/2 + Z/3 = Z/6.  a5(0, 0) has little
    # torsion; the scaled algebra's gives the Tor term most to check
    small = [dg.BUILDERS[name]() for name in ("trefoil_left", "hopf_pos", "unknot_1kink_neg")]
    small += seeded_closures(34, 4, 4)
    for F in (fr.a5(0, 0, F2), fr.a5(0, 0, F3), fr.a5(0, 0, QQ), fr.a5(0, 0), scaled(ZZ)):
        def groups(d):
            """Free rank by degree, and each prime power's multiplicity by (degree, prime power)."""
            free, tors = Counter(), Counter()
            for i, f, torsion in _rows(cx.homology(cx.chain_complex(d, F, True))):
                free[i] += f
                for n in torsion:
                    for q, e in sympy.factorint(n).items():
                        tors[i, q ** e] += 1
            return +free, +tors

        pairs = itertools.combinations_with_replacement([(d, groups(d)) for d in small], 2)
        for (d1, (free1, tors1)), (d2, (free2, tors2)) in pairs:
            free, tors = Counter(), Counter()
            for (i, a), (j, b) in itertools.product(free1.items(), free2.items()):
                free[i + j] += a * b
            for ((i, x), m), (j, b) in itertools.product(tors1.items(), free2.items()):
                tors[i + j, x] += m * b
            for (i, a), ((j, y), n) in itertools.product(free1.items(), tors2.items()):
                tors[i + j, y] += a * n
            for ((i, x), m), ((j, y), n) in itertools.product(tors1.items(), tors2.items()):
                if (g := gcd(x, y)) > 1:  # Z/x (x) Z/y = Tor(Z/x, Z/y) = Z/g
                    tors[i + j, g] += m * n
                    tors[i + j - 1, g] += m * n
            assert groups(union(d1, d2)) == (free, tors), (F, d1, d2)


# closure of the 2-strand braid (-1)^8: the (2, -8) torus link
T28_PD = """X 1 2 4 3
X 3 4 6 5
X 5 6 8 7
X 7 8 10 9
X 9 10 12 11
X 11 12 14 13
X 13 14 16 15
X 15 16 2 1
SIGNS - - - - - - - -
"""


def test_t28_homology_is_frozen():
    # (i, free rank, torsion) as frozen from a dense-elimination build,
    # which took ~36 s over Z; the F_2 ranks follow by universal coefficients
    z = [(-8, 2, []), (-7, 1, []), (-6, 1, [2]), (-5, 1, []), (-4, 1, [2]),
         (-3, 1, []), (-2, 1, [2]), (-1, 0, []), (0, 2, [])]
    f2 = [(i, 2 if i != -1 else 0, []) for i in range(-8, 1)]
    cube = dg.build_cube(dg.parse_pd(T28_PD))
    for R, want in ((ZZ, z), (F2, f2)):
        assert _rows(cx.homology(cx.build_complex(cube, fr.a5(0, 0, R), True))) == want


# closure of the 2-strand braid (-1)^7: the (2, -7) torus knot
T27_PD = """X 1 2 4 3
X 3 4 6 5
X 5 6 8 7
X 7 8 10 9
X 9 10 12 11
X 11 12 14 13
X 13 14 2 1
SIGNS - - - - - - -
"""


def test_t27_homology_of_the_scaled_algebra_is_frozen():
    # (i, free rank, {factor: multiplicity}) over Z, as frozen from the
    # reduction that finished the unit-free residue with a dense Smith loop
    want = [(-7, 1, {}), (-6, 1, {2: 126, 4: 1}), (-5, 1, {2: 320}),
            (-4, 1, {2: 350, 4: 1}), (-3, 1, {2: 208}), (-2, 1, {2: 70, 4: 1}),
            (-1, 0, {2: 12}), (0, 2, {3: 2})]
    cube = dg.build_cube(dg.parse_pd(T27_PD))
    rows = _rows(cx.homology(cx.build_complex(cube, scaled(ZZ), True)))
    assert [(i, f, dict(Counter(t))) for i, f, t in rows] == want


def test_rank_and_snf_after_homology_match_a_fresh_matrix():
    # homology stores each differential's reduction without the columns its
    # predecessor's unit pivots cover; rank and smith_normal_form read that
    # reduction afterwards and must agree with a full one
    cube = dg.build_cube(dg.parse_pd(T27_PD))
    skipped = 0
    for R in (ZZ, QQ, F3):
        for F in (fr.a5(0, 0, R), fr.a5(1, 1, R), scaled(R)):
            C = cx.build_complex(cube, F, True)
            cx.homology(C)
            if R == QQ:  # the Z complex's integers, and homology leaves them so
                over_z = cx.build_complex(cube, fr.FrobeniusData(ZZ, 2, F.mult, F.comult), True)
                assert [d.nz for d in C.diffs] == [d.nz for d in over_z.diffs]
                assert all(type(x) is int for d in C.diffs for row in d.nz for _, x in row)
            for d_in, d in zip((None,) + C.diffs, C.diffs):
                fresh = ExactMatrix(d.ring, d.rows, d.cols, d.nz)
                assert rank(d) == rank(fresh)
                if R == ZZ:
                    assert smith_normal_form(d) == smith_normal_form(fresh)
                if d_in is not None:
                    covered = d_in._reduced[2]
                    skipped += any(j in covered for row in d.nz for j, _ in row)
    assert skipped  # some reductions really dropped nonzero columns


def test_reductions_without_covered_columns_on_seeded_closures():
    # each unit pivot of d_in covers a column of d_out, and over a5 data
    # about 44 % of them are rows with one entry, swept before the
    # Markowitz loop: reducing d_out without those columns must keep its
    # rank and torsion
    rng = random.Random(23)
    for _ in range(10):
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(3, 6))]
        cube = dg.build_cube(dg.parse_pd(braid.closure_pd(word, strands)))
        for R in (ZZ, QQ, F2, F3):
            for F in (fr.a5(0, 0, R), fr.a5(1, 1, R), scaled(R)):
                C = cx.build_complex(cube, F, True)
                for d_in, d_out in zip(C.diffs, C.diffs[1:]):
                    assert _reduce(d_out, _reduce(d_in)[2])[:2] == _reduce(d_out)[:2]


def test_homology_reads_no_dense_view(monkeypatch):
    def dense(_):
        raise AssertionError("dense view read on the homology path")

    monkeypatch.setattr(ExactMatrix, "entries", property(dense))
    for name in ("trefoil_left", "figure10_d1", "hopf_neg"):
        for R in (ZZ, QQ, F2):
            for F in (fr.a5(0, 0, R), fr.a5(1, 1, R)):
                cx.homology(cx.chain_complex(dg.BUILDERS[name](), F, normalize=True))


def test_homology_rejects_broken_differential():
    from frobknot.linalg import ExactMatrix

    c = build("hopf_pos", fr.a5(0, 0))
    diffs = list(c.diffs)
    for k in range(2):
        rows = [[1] * diffs[k].cols for _ in range(diffs[k].rows)]
        diffs[k] = ExactMatrix.from_rows(ZZ, rows)
    bad = cx.ChainComplex(c.ring, c.shift, c.ranks, tuple(diffs), c.q_source)
    assert not cx.verify_d_squared(bad)
    with pytest.raises(ValueError):
        cx.homology(bad)


def test_library_calls_pause_the_collector_and_restore_it(monkeypatch):
    # chain_complex, build_complex and homology run with the collector off
    # and leave it as they found it, on or off, also when they raise: on a
    # non-planar code (no cube) and on a hand-built non-complex
    d = dg.BUILDERS["trefoil_left"]()
    F = fr.a5(0, 0)
    hopf = build("hopf_pos", F)
    broken = cx.ChainComplex(ZZ, 0, (1, 1, 1), (ExactMatrix.from_rows(ZZ, [[1]]),) * 2, None)
    during = []
    summands = cx.homology_summands

    def spy(*args):
        during.append(gc.isenabled())
        return summands(*args)

    monkeypatch.setattr(cx, "homology_summands", spy)
    calls = [
        lambda: cx.chain_complex(d, F, normalize=True),
        lambda: cx.build_complex(dg.build_cube(d), F, normalize=True),
        lambda: cx.homology(hopf),
    ]
    raising = [
        lambda: cx.chain_complex(dg.parse_pd("X 1 2 1 2\n"), F),
        lambda: cx.homology(broken),
    ]
    collecting = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for call in calls:
                call()
                assert gc.isenabled() is enabled
            for call in raising:
                with pytest.raises(ValueError):
                    call()
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if collecting else gc.disable)()
    assert during and not any(during)


def test_library_homology_leaves_no_garbage_cycles():
    # the collector may stay off on the library path because the engine
    # makes no cycles: after a run nothing is left for it to collect
    d = dg.parse_pd(braid.closure_pd([-1] * 5, 2))
    cx.homology(cx.chain_complex(d, fr.a5(0, 0), normalize=True))
    gc.collect()
    for R in (ZZ, QQ, F2):
        table = cx.homology(cx.chain_complex(d, fr.a5(0, 0, R), normalize=True))
        assert table.rows, R
        del table
        assert gc.collect() == 0, R


def test_json_table_shape():
    t = cx.homology(build("hopf_pos", fr.a5(0, 0)))
    j = t.to_json()
    assert j["normalized"] is True
    assert {"i", "free_rank", "torsion"} <= set(j["groups"][0].keys())
