"""A thin-link oracle: the Z homology of an alternating braid closure,
checked at any size against two numbers read off the diagram.

For a non-split alternating link L with c components and determinant det,
Khovanov homology over Q is thin (Lee, arXiv:math/0201105) and its total
rank is det + 2^(c-1), and its torsion is only Z/2 (Shumakovitch,
arXiv:math/0405474): (det - 2^(c-1))/2 summands.  For every link the
Euler characteristic of the free ranks is 2^c, the unnormalized Jones
polynomial at q = 1, so a normalization shift off by one flips its sign.
The determinant is
|<D>(zeta_8)|, the bracket at a primitive 8th root of unity, computed here
exactly in Z[zeta_8]; the components come from a union-find over arcs.
Neither touches the cube, the complex or the reduction.

The helpers also serve the CI check of the 14-crossing closure of
(sigma_1 sigma_2^-1)^7: ``tests`` on sys.path, then
``from test_thin_links import oracle, totals``.
"""

import math
import random
from collections import Counter

import pytest

from frobknot import complex as cx
from frobknot import diagram as dg
from frobknot import frobenius as fr
from frobknot.linalg import ExactMatrix, rank
from frobknot.rings import QQ

from braids import closure


def alternating_closure(word, strands: int) -> dg.LinkDiagram:
    """The closure of an alternating braid word: odd generators positive,
    even ones negative, and each of 1..strands-1 used at least twice, so
    the diagram is reduced and non-split.  Any other word raises ValueError."""
    for k in range(1, strands):
        if sum(abs(x) == k for x in word) < 2:
            raise ValueError(f"generator {k} is used fewer than twice in {word}")
    if any((x > 0) != (abs(x) % 2 == 1) for x in word):
        raise ValueError(f"{word} is not alternating")
    return closure(word, strands)


def alternating_words(seed: int, count: int, max_len: int) -> list:
    """count distinct seeded alternating (word, strands) pairs on 2-4
    strands of at most max_len letters."""
    rng, words = random.Random(seed), []
    while len(words) < count:
        strands = rng.randint(2, 4)
        gens = list(range(1, strands)) * 2
        gens += rng.choices(range(1, strands), k=rng.randint(0, max_len - len(gens)))
        rng.shuffle(gens)
        if (pair := ([k if k % 2 else -k for k in gens], strands)) not in words:
            words.append(pair)
    return words


def _times(x, y) -> list:
    """The product in Z[zeta] with zeta^4 = -1, on coefficients of 1, zeta,
    zeta^2, zeta^3."""
    out = [0] * 4
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if i + j < 4:
                out[i + j] += a * b
            else:
                out[i + j - 4] -= a * b
    return out


def determinant(d: dg.LinkDiagram) -> int:
    """|<D>(zeta_8)|: the bracket and its conjugate as four integers each;
    their product must be a perfect square integer, det^2."""
    x, conj = [0] * 4, [0] * 4
    for e, c in dg.kauffman_bracket(d).items():
        for power, into in ((e, x), (-e, conj)):
            k = power % 8
            into[k % 4] += c if k < 4 else -c
    norm, *rest = _times(x, conj)
    det = math.isqrt(norm)
    assert rest == [0, 0, 0] and det * det == norm, f"|<D>(zeta_8)|^2 = {norm, *rest}"
    return det


def components(d: dg.LinkDiagram) -> int:
    """Components by union-find over arcs: X a b c d joins a with c and b
    with d, the two strands through the crossing."""
    parent = list(range(d.arc_count + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for a, b, c, e in d.crossings:
        parent[find(a)] = find(c)
        parent[find(b)] = find(e)
    return sum(find(a) == a for a in range(1, d.arc_count + 1)) + d.free_loops


def oracle(d: dg.LinkDiagram) -> tuple:
    """(total free rank, Euler characteristic, sorted torsion orders) of
    the Z table of a non-split alternating diagram."""
    det, shared = determinant(d), 2 ** (components(d) - 1)
    return det + shared, 2 * shared, (2,) * ((det - shared) // 2)


def totals(groups) -> tuple:
    """(total free rank, Euler characteristic, sorted torsion orders) of a
    table's JSON groups."""
    free = [(g["i"], g["free_rank"]) for g in groups]
    return (
        sum(f for _, f in free),
        sum(-f if i % 2 else f for i, f in free),
        tuple(sorted(t for g in groups for t in g["torsion"])),
    )


def test_alternating_closures_match_the_oracle():
    for word, strands in alternating_words(seed=27, count=15, max_len=10):
        d = alternating_closure(word, strands)
        table = cx.homology(cx.chain_complex(d, fr.a5(0, 0), True))
        assert totals(table.to_json()["groups"]) == oracle(d), (word, strands)


def bigraded_ranks(C) -> dict:
    """(i, j) -> the rank of the Q group H^{i,j}, nonzero ones only: each
    differential of C restricted to a q-block, which it keeps (an entry
    that leaves its block raises KeyError)."""
    blocks = [{} for _ in C.q_degrees]  # per degree: q -> its generators
    for k, qs in enumerate(C.q_degrees):
        for g, q in enumerate(qs):
            blocks[k].setdefault(q, []).append(g)
    ranks = Counter({(k, j): len(gens) for k, by_q in enumerate(blocks) for j, gens in by_q.items()})
    for k, d in enumerate(C.diffs):
        for j, rows in blocks[k + 1].items():
            cols = {c: n for n, c in enumerate(blocks[k].get(j, ()))}
            nz = tuple(tuple((cols[c], v) for c, v in d.nz[g]) for g in rows)
            r = rank(ExactMatrix(C.ring, len(rows), len(cols), nz))
            ranks[k, j] -= r
            ranks[k + 1, j] -= r
    return {(C.shift + k, j): h for (k, j), h in ranks.items() if h}


def test_alternating_closures_lie_on_two_diagonals():
    # over Q the table of a non-split alternating link lies on exactly the
    # diagonals delta = j - 2i = -sigma' -+ 1, where sigma' = s_A - n+ - 1 and
    # s_A counts the circles of the all-0 state (Lee; Traczyk); the bigraded
    # ranks also give the graded Euler characteristic
    for word, strands in alternating_words(seed=27, count=15, max_len=10):
        d = alternating_closure(word, strands)
        cube = dg.build_cube(d)
        C = cx.build_complex(cube, fr.a5(0, 0, QQ), True)
        ranks, sigma, euler = bigraded_ranks(C), cube.counts[0] - d.n_plus - 1, Counter()
        for (i, j), h in ranks.items():
            euler[j] += -h if i % 2 else h
        assert {j - 2 * i for i, j in ranks} == {-sigma - 1, -sigma + 1}, (word, strands)
        assert {j: c for j, c in euler.items() if c} == cx.graded_euler_characteristic(C), (word, strands)


def test_the_oracle_on_known_links():
    # trefoil: det 3; Hopf link: det 2, two components; figure eight: det 5
    assert oracle(alternating_closure([1, 1, 1], 2)) == (4, 2, (2,))
    assert oracle(alternating_closure([1, 1], 2)) == (4, 4, ())
    assert oracle(alternating_closure([1, -2, 1, -2], 3)) == (6, 2, (2, 2))
    assert components(alternating_closure([1, -2] * 3, 3)) == 3


def test_a_word_that_is_not_alternating_is_refused():
    for word, strands in (([1, 2, 1, 2], 3), ([-1, -1, -1], 2), ([1, -2, 1], 3)):
        with pytest.raises(ValueError):
            alternating_closure(word, strands)
