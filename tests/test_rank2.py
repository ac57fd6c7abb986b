import functools
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobknot import rank2
from frobknot.linalg import ExactMatrix, rank, smith_normal_form, solve_linear
from frobknot.rings import QQ, ZZ, GF

F2, F3, F5 = GF(2), GF(3), GF(5)


def table(ring, e11, e12, e22, e21=None):
    return rank2.MultTable(ring, e11, e12, e22, e21)


def all_commutative_tables(ring):
    """Every commutative table over F_p (p^6 of them), lexicographic order."""
    for a1, b1, a2, b2, a4, b4 in itertools.product(ring.elements(), repeat=6):
        yield table(ring, (a1, b1), (a2, b2), (a4, b4))


# --- multiply -------------------------------------------------------------


def test_multiply_basis_products():
    t = rank2.representative("m6", (0, 1), F3)
    assert rank2.multiply(t, (1, 0), (0, 1)) == (0, 1)  # e1*e2 = e2
    assert rank2.multiply(t, (0, 0), (1, 1)) == (0, 0)
    z = rank2.representative("m17", (), F3)
    assert rank2.multiply(z, (1, 0), (1, 0)) == (0, 0)


def test_multiply_bilinear_random():
    t = table(ZZ, (2, -1), (0, 3), (1, 1))
    u, v, w = (1, 2), (3, -1), (0, 5)
    lhs = rank2.multiply(t, (u[0] + w[0], u[1] + w[1]), v)
    a, b = rank2.multiply(t, u, v), rank2.multiply(t, w, v)
    assert lhs == (a[0] + b[0], a[1] + b[1])


# --- associativity --------------------------------------------------------


def test_is_associative_stated_examples():
    assert rank2.is_associative(rank2.representative("m10", (1,), QQ))
    assert not rank2.is_associative(rank2.representative("m10", (2,), QQ))
    assert rank2.is_associative(rank2.representative("m17", (), F3))
    assert rank2.is_associative(rank2.representative("m9", (1,), F3))
    assert not rank2.is_associative(rank2.representative("m9", (0,), F5).__class__(
        F5, (1, 0), (0, 3), (0, 0)))  # beta2 = 3 fails beta2^2 = beta2


def test_two_equality_check_matches_full_check():
    # exhaustive over F_2 and F_3: the shortcut for commutative tables
    # agrees with testing all eight basis triples
    for ring in (F2, F3):
        for t in all_commutative_tables(ring):
            full = all(
                rank2.multiply(t, rank2.multiply(t, x, y), z)
                == rank2.multiply(t, x, rank2.multiply(t, y, z))
                for x, y, z in itertools.product(((1, 0), (0, 1)), repeat=3)
            )
            assert rank2.is_associative(t) == full


@pytest.mark.parametrize(
    "entries, m",
    [(range(p), p) for p in (2, 3, 5, 7)] + [(range(-b, b + 1), 0) for b in range(4)],
)
def test_associative_comm_tables_match_brute_force(entries, m):
    # solving the corner identities for e22 finds exactly the tuples that
    # filtering every commutative tuple finds, in the same order
    brute = []
    for a1, b1, a2, b2, a4, b4 in itertools.product(entries, repeat=6):
        t = ((a1, b1), (a2, b2), (a2, b2), (a4, b4))
        if rank2._associative(t, m):
            brute.append(t)
    assert list(rank2._associative_comm_tables(entries, m)) == brute


def _associative_by_triples(t, m):
    # the definition: (x y) z = x (y z) on all eight basis triples
    mul = rank2._mul
    return all(
        mul(t, mul(t, x, y, m), z, m) == mul(t, x, mul(t, y, z, m), m) for x, y, z in rank2._TRIPLES
    )


@pytest.mark.parametrize(
    "entries, m",
    [(range(3), 3), (range(-2, 3), 0), ((0, Fraction(1, 2), Fraction(-1)), 0)],
    ids=["F3", "Z", "Q"],
)
def test_corner_polynomials_match_the_triples(entries, m):
    # the commutative branch evaluates three polynomials; on every
    # commutative tuple of the box they decide as the eight triples do
    verdicts = set()
    for e in itertools.product(entries, repeat=6):
        t = (e[0:2], e[2:4], e[2:4], e[4:6])
        verdict = rank2._associative(t, m)
        assert verdict == _associative_by_triples(t, m), t
        verdicts.add(verdict)
    assert verdicts == {True, False}


# --- units ----------------------------------------------------------------


def test_find_unit_stated_examples():
    assert rank2.find_unit(rank2.representative("m6", (0, 0), F5)) == (1, 1)
    assert rank2.find_unit(rank2.representative("m9", (1,), F5)) == (1, 0)
    assert rank2.find_unit(rank2.representative("m12", (), F5)) is None


def test_unit_implies_associative_exhaustive():
    for ring in (F2, F3):
        for t in all_commutative_tables(ring):
            u = rank2.find_unit(t)
            if u is not None:
                assert rank2.is_associative(t)
                for e in ((1, 0), (0, 1)):
                    assert rank2.multiply(t, u, e) == e
                    assert rank2.multiply(t, e, u) == e


def test_find_unit_over_z():
    t = table(ZZ, (1, 0), (0, 1), (3, 2))  # x^2 = 3 + 2x, unital
    assert rank2.find_unit(t) == (1, 0)
    t2 = table(ZZ, (2, 0), (0, 2), (0, 0))  # everything divisible by 2
    assert rank2.find_unit(t2) is None


def test_unit_matches_brute_force_on_every_f3_tuple():
    # Cramer's candidate, checked against its eight equations, is the one
    # u in F_3^2 with u e = e = e u, noncommutative tuples included
    plane, basis = list(itertools.product(range(3), repeat=2)), ((1, 0), (0, 1))
    units = 0
    for e in itertools.product(range(3), repeat=8):
        t = (e[0:2], e[2:4], e[4:6], e[6:8])
        found = [u for u in plane if all(_mul(t, u, v, 3) == v == _mul(t, v, u, 3) for v in basis)]
        assert rank2._unit(t, 3) == (found[0] if found else None), t
        units += bool(found)
    assert units > 0


# --- idempotents ----------------------------------------------------------


def test_idempotents_stated_examples():
    assert rank2.idempotents(rank2.representative("m12", (), F5)) == [(1, 0)]
    assert rank2.idempotents(rank2.representative("m14", (), F5)) == []
    assert rank2.idempotents(rank2.representative("m6", (0, 0), F3)) == [
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_idempotents_over_z_needs_bound():
    t = table(ZZ, (1, 0), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        rank2.idempotents(t)


def _brute_idempotents(t, space):
    """Nonzero v with v*v = v, from the products written out: v*v is
    v1^2 e1e1 + v1 v2 (e1e2 + e2e1) + v2^2 e2e2."""
    e21 = t.e12 if t.e21 is None else t.e21
    n = t.ring.normalize
    out = []
    for v1, v2 in space:
        sq = tuple(
            n(v1 * v1 * a + v1 * v2 * (b + c) + v2 * v2 * d)
            for a, b, c, d in zip(t.e11, t.e12, e21, t.e22)
        )
        if (v1, v2) != (0, 0) and sq == (n(v1), n(v2)):
            out.append((v1, v2))
    return sorted(out)


@pytest.mark.parametrize("ring", [F2, F3])
def test_idempotents_match_brute_force_on_every_table(ring):
    space = list(itertools.product(ring.elements(), repeat=2))
    for e in itertools.product(ring.elements(), repeat=8):
        for e21 in (None, e[6:8]) if e[2:4] == e[6:8] else (e[6:8],):
            t = table(ring, e[0:2], e[2:4], e[4:6], e21)
            assert rank2.idempotents(t) == _brute_idempotents(t, space), t


# --- surjectivity ---------------------------------------------------------


def test_surjectivity_examples():
    assert not rank2.is_multiplication_surjective(rank2.representative("m17", (), F3))
    for h, t in itertools.product((-2, 0, 2), repeat=2):
        a5ish = table(ZZ, (1, 0), (0, 1), (t, h))
        assert rank2.is_multiplication_surjective(a5ish)
    doubled = table(ZZ, (2, 0), (0, 2), (0, 0))
    assert not rank2.is_multiplication_surjective(doubled)


def _reference_tables():
    # the Z box of bound 1, the Q box with entries in {0, 1/2, 1}, every
    # commutative F_2/F_3 table, every noncommutative F_2 table
    for c in itertools.product(range(-1, 2), repeat=6):
        yield table(ZZ, c[0:2], c[2:4], c[4:6])
    for c in itertools.product((0, Fraction(1, 2), 1), repeat=6):
        yield table(QQ, c[0:2], c[2:4], c[4:6])
    for ring in (F2, F3):
        yield from all_commutative_tables(ring)
    for c in itertools.product(range(2), repeat=8):
        yield table(F2, c[0:2], c[2:4], c[6:8], c[4:6])


def test_kernel_matches_linalg_reference():
    # surjectivity and units against SNF / rank / solve_linear on the
    # explicit 2 x k product matrix and the 8 x 2 unit system
    for t in _reference_tables():
        cols = [t.e11, t.e12, t.e22] if t.commutative else [t.e11, t.e12, t.e21, t.e22]
        M = ExactMatrix.from_rows(t.ring, [[c[0] for c in cols], [c[1] for c in cols]])
        if t.ring == ZZ:
            onto = smith_normal_form(M) == (1, 1)
        else:
            onto = rank(M) == 2
        assert rank2.is_multiplication_surjective(t) == onto, t
        rows, rhs = [], []
        for e in ((1, 0), (0, 1)):
            # u e = e and e u = e for u = x e1 + y e2
            for c1, c2 in (
                (rank2.multiply(t, (1, 0), e), rank2.multiply(t, (0, 1), e)),
                (rank2.multiply(t, e, (1, 0)), rank2.multiply(t, e, (0, 1))),
            ):
                rows += [[c1[0], c2[0]], [c1[1], c2[1]]]
                rhs += list(e)
        sol = solve_linear(ExactMatrix.from_rows(t.ring, rows), rhs)
        assert rank2.find_unit(t) == (None if sol is None else tuple(sol)), t


def _reference_surjective(t):
    # over Z: the gcd of every 2x2 minor of the 2x4 product matrix, repeated
    # columns included
    return math.gcd(*(a[0] * b[1] - a[1] * b[0] for a, b in itertools.combinations(t, 2))) == 1


def _reference_unit(t):
    # over Z: Cramer's rule on the first nonsingular pair of all eight unit
    # equations, commutative or not, then a check of all eight
    (a11, b11), (a12, b12), (a21, b21), (a22, b22) = t
    rows = (
        (a11, a21, 1), (b11, b21, 0), (a12, a22, 0), (b12, b22, 1),
        (a11, a12, 1), (b11, b12, 0), (a21, a22, 0), (b21, b22, 1),
    )
    for (c1, d1, r1), (c2, d2, r2) in itertools.combinations(rows, 2):
        det = c1 * d2 - c2 * d1
        if det:
            break
    else:
        return None
    u = ((r1 * d2 - r2 * d1) // det, (c1 * r2 - c2 * r1) // det)
    return u if all(u[0] * c + u[1] * d == r for c, d, r in rows) else None


def test_unit_and_surjectivity_match_all_equations_on_the_z_box():
    # over Z a Cramer quotient is floored, so the kernel's shorter systems are
    # pinned on every commutative tuple of [-2, 2]^6 and on a seeded sample of
    # noncommutative tuples of [-2, 2]^8
    box = range(-2, 3)
    tuples = [(e[0:2], e[2:4], e[2:4], e[4:6]) for e in itertools.product(box, repeat=6)]
    rnd = random.Random(46)
    for _ in range(5000):
        e = tuple(rnd.choice(box) for _ in range(8))
        tuples.append((e[0:2], e[2:4], e[4:6], e[6:8]))
    seen = set()
    for t in tuples:
        unit, onto = rank2._unit(t, 0), rank2._surjective(t, 0)
        assert (unit, onto) == (_reference_unit(t), _reference_surjective(t)), t
        seen.add((unit is not None, onto, t[1] == t[2]))
    # a unit makes the product onto, and a unital rank-2 algebra, spanned by
    # 1 and one more element, is commutative: the other five cases all occur
    assert len(seen) == 5


# --- isomorphism ----------------------------------------------------------
#
# The reference is the brute force the kernel replaced: every g in GL_2(F_p)
# in lexicographic order, each base change building a MultTable from its own
# arithmetic mod p, first match wins.


def _gl2(p):
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p:
            yield ((a, b), (c, d))


def _reference_transport(t, g):
    """Table in the basis f_j = g[0][j] e1 + g[1][j] e2, mod p."""
    p = t.ring.p
    t4 = (t.e11, t.e12, t.e12 if t.e21 is None else t.e21, t.e22)
    dinv = pow(g[0][0] * g[1][1] - g[0][1] * g[1][0], -1, p)
    gi = ((dinv * g[1][1], -dinv * g[0][1]), (-dinv * g[1][0], dinv * g[0][0]))

    def back(w):
        return tuple((gi[i][0] * w[0] + gi[i][1] * w[1]) % p for i in (0, 1))

    f1, f2 = (g[0][0], g[1][0]), (g[0][1], g[1][1])
    prods = [back(_mul(t4, u, v, p)) for u, v in ((f1, f1), (f1, f2), (f2, f2))]
    e21 = None if t.commutative else back(_mul(t4, f2, f1, p))
    return rank2.MultTable(t.ring, *prods, e21)


def _transport(t, g, p, dinv):
    """The products of the kernel tuple t in the basis f_j = g[0][j] e1 +
    g[1][j] e2, lazily, in kernel order; dinv is the inverse of det g mod p."""
    (g00, g01), (g10, g11) = g
    f = ((g00, g10), (g01, g11))
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        x, y = rank2._mul(t, f[i], f[j], p)
        yield ((g11 * x - g01 * y) * dinv % p, (g00 * y - g10 * x) * dinv % p)


def _scan_isomorphism(a, b, p):
    """The first g in GL_2(F_p), in lexicographic order of its entries, that
    transports the tuple a onto the tuple b, or None: every g is tried."""
    inv = [0] + [pow(d, -1, p) for d in range(1, p)]
    for g in _gl2(p):
        det = (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % p
        if all(x == y for x, y in zip(_transport(a, g, p, inv[det]), b)):
            return g
    return None


def _kernel_transport(t4, g, p):
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    return tuple(_transport(t4, g, p, pow(det, -1, p)))


def _reference_isomorphic(a, b):
    if a.commutative != b.commutative:
        return None
    return next((g for g in _gl2(a.ring.p) if _reference_transport(a, g) == b), None)


def _reference_targets(ring):
    # the library's target list, as MultTables for the reference search
    return [
        (label, params, rank2.MultTable(ring, e11, e12, e22))
        for label, params, (e11, e12, _, e22) in rank2._classification_targets(ring)
    ]


def _reference_classify(t, targets):
    """First matching (label, params), or None."""
    return next(((l, ps) for l, ps, rep in targets if _reference_isomorphic(t, rep)), None)


def _assoc_tables(ring):
    return [t for t in all_commutative_tables(ring) if rank2.is_associative(t)]


def _mul(t, u, v, p):
    # the bilinear product of a kernel tuple, written out independently
    x = [u[i] * v[j] for i in (0, 1) for j in (0, 1)]
    return tuple(sum(c * e[k] for c, e in zip(x, t)) % p for k in (0, 1))


def _is_field(t4, p):
    # unital, and multiplication by each nonzero u is invertible (det of the
    # 2 x 2 matrix of u*e1, u*e2), so there are no zero divisors
    elems = list(itertools.product(range(p), repeat=2))
    if not any(all(_mul(t4, u, e, p) == e for e in ((1, 0), (0, 1))) for u in elems):
        return False
    for u in elems[1:]:
        (a, b), (c, d) = _mul(t4, u, (1, 0), p), _mul(t4, u, (0, 1), p)
        if (a * d - b * c) % p == 0:
            return False
    return True


def test_isomorphic_examples():
    z = rank2.representative("m17", (), F3)
    assert rank2.isomorphic(z, z) is not None
    a = rank2.representative("m6", (0, 0), F3)
    b = rank2.representative("m6", (0, 1), F3)
    assert rank2.isomorphic(a, b) is not None
    m12 = rank2.representative("m12", (), F2)
    m17 = rank2.representative("m17", (), F2)
    assert rank2.isomorphic(m12, m17) is None


def test_commutativity_is_read_from_the_products():
    # the same table, once with e2e1 left implicit and once written out
    implicit = table(F3, (1, 0), (0, 1), (0, 0))
    explicit = table(F3, (1, 0), (0, 1), (0, 0), (0, 1))
    assert explicit.commutative
    assert rank2.isomorphic(implicit, explicit) == rank2.isomorphic(implicit, implicit) is not None
    assert rank2.isomorphic(explicit, implicit) is not None
    assert rank2.classify(explicit) == rank2.classify(implicit)
    with pytest.raises(ValueError, match="commutative"):
        rank2.classify(table(F3, (1, 0), (0, 1), (0, 0), (0, 2)))


def test_json_round_trip_keeps_commutativity():
    # e2e1 written out equal to e1e2 commutes; the flag says so and reads
    # back, and the table is the one that leaves e2e1 out, hash and all
    plain = table(F3, (1, 0), (0, 1), (0, 0))
    for e21, commutes in ((None, True), ((0, 1), True), ((0, 2), False)):
        t = table(F3, (1, 0), (0, 1), (0, 0), e21)
        assert (t == plain) is commutes and len({t, plain}) == 2 - commutes
        data = json.loads(json.dumps(t.to_json()))
        assert t.commutative is data["commutative"] is commutes
        assert rank2.MultTable.from_json(data) == t
        data["commutative"] = not commutes
        with pytest.raises(ValueError, match="commutative"):
            rank2.MultTable.from_json(data)


def test_isomorphic_matches_reference_on_noncommutative_f2():
    targets = [rank2.representative(label, (), F2) for label in ("nc_left", "nc_right")]
    survivors = 0
    for c in itertools.product(range(2), repeat=8):
        t = table(F2, c[0:2], c[2:4], c[6:8], c[4:6])
        if t.commutative or not rank2.is_associative(t) or not rank2.is_multiplication_surjective(t):
            continue
        survivors += 1
        for tgt in targets:
            assert rank2.isomorphic(t, tgt) == _reference_isomorphic(t, tgt), t
    assert survivors == 6


@pytest.mark.parametrize("ring", [F2, F3])
def test_classify_matches_reference_exhaustive(ring):
    targets = _reference_targets(ring)
    for t in _assoc_tables(ring):
        assert rank2.classify(t) == _reference_classify(t, targets), t


def test_classify_matches_reference_on_f5_sample():
    # every 50th table, five of them fields: labels and params
    sample = _assoc_tables(F5)[::50]
    assert sum(_is_field(rank2._entries(t), 5) for t in sample) == 5
    targets = _reference_targets(F5)
    for t in sample:
        assert rank2.classify(t) == _reference_classify(t, targets), t


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3**6 - 1), st.integers(0, 47))
def test_transport_preserves_structure(idx, gidx):
    # pick a table and a base change over F_3; the kernel transport agrees
    # with the reference transport, and the transported table agrees on
    # associativity, unit existence, and idempotent count
    digits = []
    for _ in range(6):
        digits.append(idx % 3)
        idx //= 3
    t = table(F3, (digits[0], digits[1]), (digits[2], digits[3]), (digits[4], digits[5]))
    g = list(_gl2(3))[gidx]
    e11, e12, _, e22 = _kernel_transport(rank2._entries(t), g, 3)
    t2 = table(F3, e11, e12, e22)
    assert t2 == _reference_transport(t, g)
    assert rank2.is_associative(t) == rank2.is_associative(t2)
    assert (rank2.find_unit(t) is None) == (rank2.find_unit(t2) is None)
    assert len(rank2.idempotents(t)) == len(rank2.idempotents(t2))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_signature_is_invariant_under_base_change(p, data):
    entries = st.integers(0, p - 1)
    t4 = tuple(data.draw(st.tuples(entries, entries)) for _ in range(4))
    g = data.draw(
        st.tuples(st.tuples(entries, entries), st.tuples(entries, entries)).filter(
            lambda g: (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % p
        )
    )
    moved = _kernel_transport(t4, g, p)
    assert rank2._signature(moved, p) == rank2._signature(t4, p)
    assert rank2._isomorphism(t4, moved, p) is not None


def test_isomorphism_matches_scan_on_every_f2_pair():
    # the scan's answer for (a, b) is the first g whose image of a is b, so
    # one pass over GL_2(F_2) per a serves every b
    tuples = list(itertools.product(itertools.product(range(2), repeat=2), repeat=4))
    for a in tuples:
        first = {}
        for g in _gl2(2):
            first.setdefault(_kernel_transport(a, g, 2), g)
        for b in tuples:
            assert rank2._isomorphism(a, b, 2) == first.get(b), (a, b)


@pytest.mark.parametrize("p, pairs", [(3, 180), (5, 90), (7, 48)])
def test_isomorphism_matches_scan_on_seeded_pairs(p, pairs):
    # half of the pairs are a tuple and a transported image of it, which
    # the scan finds somewhere in GL_2(F_p); commutative tuples meet
    # commutative partners, noncommutative and non-associative ones abound
    rnd = random.Random(p)
    gl2 = list(_gl2(p))
    assoc = list(rank2._associative_comm_tables(range(p), p))
    kinds = set()
    for k in range(pairs):
        a = [(rnd.randrange(p), rnd.randrange(p)) for _ in range(4)]
        if k % 3 == 1:
            a[2] = a[1]
        a = rnd.choice(assoc) if k % 3 == 0 else tuple(a)
        if k % 2:
            b = _kernel_transport(a, rnd.choice(gl2), p)
        else:
            b = tuple((rnd.randrange(p), rnd.randrange(p)) for _ in range(4))
            b = (b[0], b[1], b[1] if a[1] == a[2] else b[2], b[3])
        g = rank2._isomorphism(a, b, p)
        assert g == _scan_isomorphism(a, b, p), (a, b)
        if k % 2:
            assert g is not None
        kinds.add((a[1] == a[2], rank2._associative(a, p)))
    assert kinds >= {(True, True), (True, False), (False, False)}


# --- representative side conditions ----------------------------------------


def test_nonresidue_parameters_checked():
    # squares of F_5 units are {1, 4}; 2 and 3 (and 0) are admissible
    assert [x for x in range(5) if not rank2._square(5, x)] == [0, 2, 3]
    rank2.representative("m11R", (2,), F5)
    with pytest.raises(ValueError):
        rank2.representative("m11R", (4,), F5)
    with pytest.raises(ValueError):
        rank2.representative("m8_2R", (1, 2), F5)  # 1-2*1 = -1 = 4 is a square mod 5
    rank2.representative("m8_2R", (1, 2), F3)  # -1 = 2 is not a square mod 3


def test_m9_excludes_half():
    with pytest.raises(ValueError):
        rank2.representative("m9", (2,), F3)  # 1/2 = 2 mod 3


# --- representative families against the if-chain they replaced -------------


def _is_nonresidue(ring, x):
    # Euler's criterion: a unit x is a square exactly when x^((p-1)/2) = 1
    x = ring.normalize(x)
    return x == 0 or pow(x, (ring.p - 1) // 2, ring.p) != 1


def _pow_in_squares(ring, x):
    x = ring.normalize(x)
    return any((y * y) % ring.p == x for y in range(ring.p))


def _half(ring):
    # 1/2, or an error where 2 is no unit: ZeroDivisionError over Z and
    # ValueError from pow over F_2
    if ring.kind == "Z":
        raise ZeroDivisionError("2 is not a unit in Z")
    return Fraction(1, 2) if ring.kind == "Q" else pow(2, -1, ring.p)


def _reference_representative(label, params, ring):
    """The family-by-family chain that rank2._FAMILIES replaced."""
    R = ring
    n = R.normalize
    T = rank2.MultTable

    def fp_rootless(poly) -> bool:
        return R.kind != "Fp" or all(poly(y) % R.p for y in R.elements())

    if label == "m6":
        a2, b2 = params
        return T(R, (1, 0), (a2, b2), (0, 1))
    if label == "m7":
        return T(R, (1, 0), (1, _half(R)), (0, 0))
    if label == "m8":
        return T(R, (1, 0), (0, _half(R)), (1, 0))
    if label == "m9":
        (b2,) = params
        if R.kind == "Fp" and R.p != 2 and n(b2) == _half(R):
            raise ValueError("m9 excludes beta2 = 1/2")
        return T(R, (1, 0), (0, b2), (0, 0))
    if label == "m10":
        (a4,) = params
        return T(R, (1, 0), (1, 0), (a4, 0))
    if label == "m11":
        return T(R, (1, 0), (0, 0), (1, 0))
    if label == "m12":
        return T(R, (1, 0), (0, 0), (0, 0))
    if label == "m13":
        return T(R, (0, 1), (0, 1), (0, 0))
    if label == "m14":
        return T(R, (0, 1), (0, 0), (0, 0))
    if label == "m15":
        return T(R, (0, 1), (-2, 3), (-8, 8))
    if label == "m16":
        return T(R, (0, 0), (1, 0), (0, 0))
    if label == "m17":
        return T(R, (0, 0), (0, 0), (0, 0))
    if label == "m8_1R":
        (l2,) = params
        if R.kind == "Fp" and not _is_nonresidue(R, l2):
            raise ValueError("m8_1R needs a nonresidue lambda2")
        return T(R, (1, 0), (0, _half(R)), (l2, 0))
    if label == "m8_2R":
        b2, l2 = params
        if R.kind == "Fp":
            if not _is_nonresidue(R, l2):
                raise ValueError("m8_2R needs a nonresidue lambda2")
            if not _is_nonresidue(R, 1 - 2 * n(b2)):
                raise ValueError("m8_2R needs 1 - 2*beta2 a nonresidue")
        return T(R, (1, 0), (0, b2), (l2, 0))
    if label == "m11R":
        (l2,) = params
        if R.kind == "Fp" and not _is_nonresidue(R, l2):
            raise ValueError("m11R needs lambda2 outside the nonzero squares")
        return T(R, (1, 0), (0, 0), (l2, 0))
    if label == "m14_1R":
        (a2,) = params
        if R.kind == "Fp" and _pow_in_squares(R, 2 * n(a2) + 1):
            raise ValueError("m14_1R needs 2*alpha2 + 1 outside the squares")
        return T(R, (1, 0), (a2, 1), (0, 0))
    if label == "m14_2R":
        (a2,) = params
        if R.kind == "Fp" and _pow_in_squares(R, 2 * n(a2) + 1):
            raise ValueError("m14_2R needs 2*alpha2 + 1 outside the squares")
        return T(R, (1, 0), (a2, 0), (0, 0))
    if label == "m15_1R":
        a2, b2, a4, b4 = coeffs = tuple(map(n, params))
        if not fp_rootless(lambda y: _at(rank2._pa(*coeffs), y)):
            raise ValueError("m15_1R needs a rootless obstruction polynomial")
        return T(R, (0, 1), (a2, b2), (a4, b4))
    if label == "Fp2":
        (x,) = params
        if R.kind == "Fp" and (n(x) == 0 or _pow_in_squares(R, x)):
            raise ValueError("Fp2 needs a nonzero nonresidue")
        return T(R, (1, 0), (0, 1), (x, 0))
    if label == "m2_1":
        return T(R, (1, 0), (0, 1), (0, 1))
    if label == "m2_2":
        return T(R, (1, 0), (0, 0), (0, 0))
    if label == "m2_3":
        return T(R, (1, 0), (0, 0), (0, 1))
    if label == "m2_4":
        (a4,) = params
        return T(R, (1, 0), (0, 1), (a4, 0))
    if label == "m2_5":
        (a4,) = params
        if R.kind == "Fp":
            # x^2 + x + a4 must have no roots outside {0, 1}
            for x in R.elements():
                if x in (0, 1):
                    continue
                if (x * x + x + n(a4)) % R.p == 0:
                    raise ValueError("m2_5 side condition violated")
        return T(R, (1, 0), (0, 1), (a4, 1))
    if label == "m2_6":
        return T(R, (0, 1), (0, 0), (0, 0))
    if label == "m2_7":
        return T(R, (0, 0), (0, 0), (0, 0))
    if label == "m2R":
        a2, b2 = params
        a2n, b2n = n(a2), n(b2)
        a4, b4 = a2n * b2n, a2n + b2n * b2n
        if not fp_rootless(lambda y: y**3 * a4**2 + y * b4 + 1):
            raise ValueError("m2R needs a rootless obstruction polynomial")
        return T(R, (0, 1), (a2, b2), (a4, b4))
    if label == "nc_left":
        return T(R, (0, 0), (0, 0), (0, 1), e21=(1, 0))
    if label == "nc_right":
        return T(R, (0, 0), (1, 0), (0, 1), e21=(0, 0))
    raise ValueError(f"unknown family {label!r}")


def _outcome(make, label, params, ring, rejections=(ValueError,)):
    try:
        return make(label, params, ring).to_json()
    except rejections:
        return "rejected"


def test_families_match_reference():
    half = [Fraction(k, 2) for k in range(-3, 4)]
    for label, (arity, _, _, _) in rank2._FAMILIES.items():
        domains = [(GF(p), range(p)) for p in (2, 3, 5, 7)] + [(ZZ, range(-2, 3)), (QQ, half)]
        for ring, entries in domains:
            for params in itertools.product(entries, repeat=arity):
                # the reference divides by 2 where 1/2 is missing
                want = _outcome(
                    _reference_representative, label, params, ring, (ValueError, ZeroDivisionError)
                )
                got = _outcome(rank2.representative, label, params, ring)
                assert got == want, (label, params, str(ring))


def test_every_family_statement_matches_brute_force():
    # each member that representative accepts, in the characteristic of its
    # row, against the definitions written out here: (x y) z = x (y z) on the
    # eight basis triples, and a unit among the p^2 elements
    basis, checked = ((1, 0), (0, 1)), 0
    for rows, primes in ((rank2._CHAR2, (2,)), (rank2._ODD | rank2._FIELD, (3, 5, 7))):
        for p, (label, (arity, _, _, stated)) in itertools.product(primes, rows.items()):
            plane = list(itertools.product(range(p), repeat=2))
            for params in itertools.product(range(p), repeat=arity) if stated else ():
                try:
                    t = rank2.representative(label, params, GF(p))
                except ValueError:  # outside the family's side conditions
                    continue
                t4 = rank2._entries(t)
                associative = all(
                    _mul(t4, _mul(t4, x, y, p), z, p) == _mul(t4, x, _mul(t4, y, z, p), p)
                    for x, y, z in itertools.product(basis, repeat=3)
                )
                unital = any(all(_mul(t4, u, e, p) == e == _mul(t4, e, u, p) for e in basis) for u in plane)
                assert stated(p, *params) == (associative, unital), (label, params, p)
                checked += 1
    assert checked == 1416


def test_representative_rejects_with_value_error():
    for label, params, ring, match in (
        ("m99", (), F3, "unknown family 'm99'"),
        ("m6", (1,), F3, "family m6 takes 2 parameters, got 1"),
        ("m12", (0,), F3, "family m12 takes 0 parameters, got 1"),
        ("m7", (), ZZ, "not an integer"),  # 1/2 is not in Z
        ("m8", (), F2, "divisible by 2"),
        ("m11R", (4,), F5, "family m11R excludes"),
    ):
        with pytest.raises(ValueError, match=match):
            rank2.representative(label, params, ring)
    assert rank2.representative("m7", (), QQ).e12 == (1, Fraction(1, 2))


# --- P_R / P_A -------------------------------------------------------------


def _at(coeffs, y):  # Horner on coefficients listed from the highest degree, as rank2._pa gives them
    return functools.reduce(lambda s, c: s * y + c, coeffs)


def _pr(a2, b2, y):
    """P_R as stated: P_A at a4 = a2 b2, b4 = a2 + b2^2, expanded."""
    return (
        -1 + y * (5 * a2 + b2**2) + y**2 * (-8 * a2**2 - 2 * a2 * b2**2)
        + y**3 * (4 * a2**3 + a2**2 * b2**2)
    )


def test_pr_stated_values():
    def pr(a2, b2, y):
        return _at(rank2._pa(a2, b2, a2 * b2, a2 + b2 * b2), y)

    # alpha2 = beta2 = 1 at y = 1: -1 + 6 - 10 + 5 = 0
    assert pr(1, 1, 1) == 0
    assert pr(0, 0, 7) == -1
    # alpha2 != 0: y = 1/alpha2 is always a root
    for a2 in range(1, 5):
        for b2 in range(5):
            y = pow(a2, -1, 5)
            assert pr(a2, b2, y) % 5 == 0


def test_pa_reduces_to_pr_on_constrained_parameters():
    for a2, b2, y in itertools.product(range(5), repeat=3):
        a4 = (a2 * b2) % 5
        b4 = (a2 + b2 * b2) % 5
        assert _at(rank2._pa(a2, b2, a4, b4), y) % 5 == _pr(a2, b2, y) % 5


# --- classification ---------------------------------------------------------


def test_classify_same_on_second_call():
    # the first pass builds the cached targets, the second reads them
    rank2._signed_targets.cache_clear()
    tables = _assoc_tables(F3)
    first = [rank2.classify(t) for t in tables]
    assert [rank2.classify(t) for t in tables] == first


_ODD_HEAD = [
    ("m6", (0, 0)), ("m6", (0, 1)), ("m6", (1, 0)), ("m9", (0,)), ("m9", (1,)), ("m10", (1,)),
    ("m12", ()), ("m14", ()), ("m17", ()),
]
_ODD_TAIL = [("m11R", (0,)), ("m15_1R", (0, 0, 0, 0))]


def _fp2(*nonresidues):
    return [("Fp2", (n,)) for n in nonresidues]


_TARGETS = {
    2: [
        ("m2_1", ()), ("m2_2", ()), ("m2_3", ()), ("m2_4", (0,)), ("m2_4", (1,)), ("m2_5", (0,)),
        ("m2_5", (1,)), ("m2_6", ()), ("m2_7", ()), ("m2R", (0, 0)),
    ],
    3: _ODD_HEAD + [("m8_2R", (1, 0)), ("m8_2R", (1, 2))] + _ODD_TAIL + _fp2(2),
    5: _ODD_HEAD + _ODD_TAIL + _fp2(2, 3),
    7: _ODD_HEAD + [("m8_2R", (1, l2)) for l2 in (0, 3, 5, 6)] + _ODD_TAIL + _fp2(3, 5, 6),
    11: _ODD_HEAD + [("m8_2R", (1, l2)) for l2 in (0, 2, 6, 7, 8, 10)] + _ODD_TAIL + _fp2(2, 6, 7, 8, 10),
    13: _ODD_HEAD + _ODD_TAIL + _fp2(2, 5, 6, 7, 8, 11),
}


@pytest.mark.parametrize("p", sorted(_TARGETS))
def test_classification_targets_are_pinned(p):
    # the members the family statements call associative, at every prime that
    # classify accepts: m8_2R(1, l2) exists only where -1 is a nonresidue
    # (p = 3 mod 4), with l2 any nonresidue, 0 included; Fp2(n) at every p > 2
    assert [(label, params) for label, params, _ in rank2._classification_targets(GF(p))] == _TARGETS[p]


@pytest.mark.parametrize("p", [p for p in range(2, rank2.MAX_SEARCH_P + 1) if all(p % d for d in range(2, p))])
def test_every_prime_has_a_target_of_each_class(p):
    # the six signatures of the README's table, so classify has an answer for
    # every associative commutative table
    six = {
        (True, 3, 0), (True, 1, 0), (True, 1, p - 1), (False, 1, p - 1), (False, 0, p - 1), (False, 0, p * p - 1),
    }
    assert set(rank2._signed_targets(GF(p))) == six


def test_classify_stated_examples():
    assert rank2.classify(rank2.representative("m2_7", (), F2))[0] == "m2_7"
    assert rank2.classify(table(F2, (1, 0), (0, 1), (0, 1)))[0] == "m2_1"
    # the m9(0) table is literally the m12/m9-class representative
    label, _ = rank2.classify(rank2.representative("m9", (0,), F5))
    assert label in ("m9", "m12")


def test_classify_rejects_nonassociative():
    with pytest.raises(ValueError):
        rank2.classify(rank2.representative("m8", (), F3))


def _histogram(ring):
    """Label counts over the associative commutative tables, and the tables by label."""
    by_label = {}
    for t in _assoc_tables(ring):
        by_label.setdefault(rank2.classify(t)[0], []).append(t)
    return {label: len(ts) for label, ts in by_label.items()}, by_label


def test_f3_classification_is_gapless():
    assert _histogram(F3)[0] == {"m6": 24, "m8_2R": 24, "m9": 48, "m14": 8, "m17": 1}


def test_f5_classification_histogram():
    # -1 is a square mod 5, so m8_2R has no member and F_25 is Fp2: every
    # Fp2 table is a field
    hist, by_label = _histogram(F5)
    assert hist == {"Fp2": 240, "m6": 240, "m9": 240, "m14": 24, "m17": 1}
    assert all(_is_field(rank2._entries(t), 5) for t in by_label["Fp2"])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_signature_classes_are_the_orbits(p):
    """The _signature classes of the associative commutative F_p tables have
    the orbit-stabilizer sizes |GL_2(F_p)| / |Aut A| of the six algebras:
    F_p x F_p and F_{p^2} (|Aut A| = 2), F_p[x]/x^2 and F_p x 0 (p - 1),
    x^2 = y (p(p - 1)) and zero (all of GL_2).  Without the idempotent count
    F_p x F_p and F_{p^2} merge, and without the square-zero count
    F_p[x]/x^2 and F_{p^2} do.  Unital tells F_p[x]/x^2 from F_p x 0, the
    one pair that the two counts leave together.

    At F_5 and F_7 classify's lookup must also return the first target that
    _isomorphism finds isomorphic to the table.  The search skips targets of
    another signature, which cannot be isomorphic
    (test_signature_is_invariant_under_base_change)."""
    tables = list(rank2._associative_comm_tables(range(p), p))
    sizes = Counter(rank2._signature(t4, p) for t4 in tables).values()
    orbits = [p * (p - 1) * (p * p - 1) // 2] * 2 + [p * (p * p - 1)] * 2 + [p * p - 1, 1]
    assert sorted(sizes) == sorted(orbits)
    assert len(tables) == (p * p - 1) * (p * p + p + 1) + 1
    if p < 5:
        return
    ring = GF(p)
    targets = [(*tgt, rank2._signature(tgt[2], p)) for tgt in rank2._classification_targets(ring)]
    for t4 in tables:
        sig = rank2._signature(t4, p)
        want = next(
            ((label, params) for label, params, rep, rep_sig in targets
             if rep_sig == sig and rank2._isomorphism(t4, rep, p) is not None),
            None,
        )
        assert rank2.classify(rank2._table(ring, t4)) == want, t4


# --- JSON -------------------------------------------------------------------


def test_multtable_json_round_trip():
    for t in (
        table(ZZ, (1, 0), (0, 1), (3, -2)),
        table(F3, (1, 2), (0, 1), (2, 2)),
        rank2.representative("nc_left", (), F2),
    ):
        assert rank2.MultTable.from_json(t.to_json()) == t
