import itertools
import random

import pytest

from frobknot import complex as cx
from frobknot import diagram as dg
from frobknot import frobenius as fr

from braids import braid


# --- parsing ------------------------------------------------------------------


def test_parse_pd_basic():
    d = dg.parse_pd("X 1 3 2 4\nX 2 4 1 3\nSIGNS + +\n")
    assert d.n_crossings == 2
    assert d.arc_count == 4
    assert d.writhe == 2


def test_parse_pd_comments_and_free_loops():
    d = dg.parse_pd("# a disjoint circle\nO\nX 1 1 2 2\nSIGNS +\n")
    assert d.free_loops == 1
    assert d.n_crossings == 1


def test_parse_pd_rejects_bad_labels():
    with pytest.raises(dg.PDError):
        dg.parse_pd("X 1 2 3 4\n")  # every arc label must occur exactly twice
    with pytest.raises(dg.PDError):
        dg.parse_pd("X 1 1 3 3\nSIGNS +\n")  # gap: label 2 missing
    with pytest.raises(dg.PDError):
        dg.LinkDiagram(((True, 1, 2, 2),))  # bool is an int subclass, not a label


_LEFT_TREFOIL = "X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\n"
_RIGHT_TREFOIL = "X 4 2 5 1\nX 6 4 1 3\nX 2 6 3 5\n"


@pytest.mark.parametrize(
    "pd, orient, signs",
    [
        (_LEFT_TREFOIL, "1 2 3 4 5 6", (-1, -1, -1)),
        (_RIGHT_TREFOIL, "1 2 3 4 5 6", (1, 1, 1)),
        # reversing a knot's orientation keeps every crossing sign
        (_LEFT_TREFOIL, "6 5 4 3 2 1", (-1, -1, -1)),
        (_RIGHT_TREFOIL, "6 5 4 3 2 1", (1, 1, 1)),
    ],
    ids=["left", "right", "left-reversed", "right-reversed"],
)
def test_orient_header_recovers_signs(pd, orient, signs):
    # orientation given as the cyclic arc order of the knot
    d = dg.parse_pd(f"{pd}ORIENT {orient}\n")
    assert d.signs == signs
    assert (d.n_plus, d.n_minus) == (signs.count(1), signs.count(-1))


def test_orient_ambiguity_on_two_arc_component():
    # the Hopf link has two-arc components, so orientation data cannot
    # disambiguate the crossing signs
    with pytest.raises(dg.PDError, match="SIGNS"):
        dg.parse_pd("X 1 3 2 4\nX 2 4 1 3\nORIENT 1 2\nORIENT 3 4\n")


def test_signs_header_wins():
    text = "X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\nSIGNS + + +\nORIENT 1 2 3 4 5 6\n"
    d = dg.parse_pd(text)
    assert d.signs == (1, 1, 1)
    assert d.n_plus == 3 and d.n_minus == 0


def test_signs_header_matches_orient_crossing_by_crossing():
    # on seeded 3-strand closures, the SIGNS line and the signs derived from
    # the ORIENT lines agree at each crossing, and both are the letters' signs
    rng = random.Random(36)
    matched = mixed = 0
    while matched < 20:
        word = [rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(rng.randint(3, 6))]
        pd = braid.closure_pd(word, 3)
        unsigned = "\n".join(ln for ln in pd.splitlines() if not ln.startswith("SIGNS"))
        try:
            oriented = dg.parse_pd(unsigned + "\n" + "\n".join(braid.orient_lines(word, 3)))
        except dg.PDError:  # a two-arc component: ORIENT cannot fix the signs
            continue
        want = tuple(1 if x > 0 else -1 for x in word)
        assert dg.parse_pd(pd).signs == oriented.signs == want, word
        matched += 1
        mixed += len(set(want)) == 2
    assert mixed >= 10


@pytest.mark.parametrize(
    "orient, error",
    [("ORIENT 1 2 7", "which no crossing has"), ("ORIENT 1 1", "listed twice"), ("ORIENT 1 2", None)],
)
def test_orient_labels_are_checked_under_signs(orient, error):
    # SIGNS gives the signs, so a two-arc component is no ambiguity; the
    # ORIENT labels are still checked
    text = f"X 1 1 2 2\nSIGNS +\n{orient}\n"
    if error is None:
        assert dg.parse_pd(text).signs == (1,)
    else:
        with pytest.raises(dg.PDError, match=error):
            dg.parse_pd(text)


# --- resolutions ---------------------------------------------------------------


def test_resolve_hopf_circle_counts():
    d = dg.BUILDERS["hopf_pos"]()
    assert len(dg.resolve(d, (0, 0))) == 2
    assert len(dg.resolve(d, (1, 0))) == 1
    assert len(dg.resolve(d, (0, 1))) == 1
    assert len(dg.resolve(d, (1, 1))) == 2


def test_resolve_trefoil_circle_counts():
    d = dg.BUILDERS["trefoil_left"]()
    assert len(dg.resolve(d, (0, 0, 0))) == 3
    for s in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert len(dg.resolve(d, s)) == 2
    assert len(dg.resolve(d, (1, 1, 1))) == 2


def test_resolve_includes_free_loops():
    d = dg.BUILDERS["figure10_d2"]()
    circles = dg.resolve(d, ())
    assert sum(1 for c in circles if c[0] < 0) == 2


# --- the cube -------------------------------------------------------------------


def test_cube_edge_kinds_hopf():
    cube = dg.build_cube(dg.BUILDERS["hopf_pos"]())
    shapes = sorted((len(src), len(dst)) for _, _, src, dst in cube.edges)
    # 1 circle -> 2 (split) twice, then 2 circles -> 1 (merge) twice
    assert shapes == [(1, 2), (1, 2), (2, 1), (2, 1)]


def block_signs(cube):
    """The sign of each edge's block in the a5(0, 0) complex over Z, keyed
    by the edge's two states: the block, read off the rows of the target
    state and the columns of the source state, is plus or minus the
    generator map of the edge's shape."""
    F, states = fr.a5(0, 0), list(cube.circles)
    C = cx.build_complex(cube, F)
    offset, filled = [], [0] * (len(states[0]) + 1)  # a state's first row in its degree
    for s, c in zip(states, cube.counts):
        offset.append(filled[sum(s)])
        filled[sum(s)] += 2**c
    sign = {}
    for i, j, src, dst in cube.edges:
        m, co = fr.generator_map(F, cube.counts[i], src, dst), offset[i]
        rows = C.diffs[sum(states[i])].nz[offset[j] : offset[j] + m.rows]
        block = tuple(tuple((c - co, v) for c, v in row if co <= c < co + m.cols) for row in rows)
        negated = tuple(tuple((c, -v) for c, v in row) for row in m.nz)
        sign[states[i], states[j]] = {m.nz: 1, negated: -1}[block]
    return sign


def test_edge_signs():
    # (-1)^(number of 1-bits before the raised position), on the blocks
    sign = block_signs(dg.build_cube(dg.BUILDERS["trefoil_left"]()))
    assert sign[(0, 0, 0), (0, 1, 0)] == 1
    assert sign[(1, 0, 0), (1, 1, 0)] == -1
    assert sign[(1, 0, 1), (1, 1, 1)] == -1
    assert sign[(1, 1, 0), (1, 1, 1)] == 1


def test_cube_squares_anticommute_after_signs():
    # over every builder, the four block signs around each 2-face multiply
    # to -1, which is what makes the signed differential square to zero
    for name, build in dg.BUILDERS.items():
        d = build()
        n = d.n_crossings
        if n < 2:
            continue
        sign = block_signs(dg.build_cube(d))
        for s in itertools.product((0, 1), repeat=n):
            for i, j in itertools.combinations(range(n), 2):
                if s[i] or s[j]:
                    continue
                si = s[:i] + (1,) + s[i + 1 :]
                sj = s[:j] + (1,) + s[j + 1 :]
                sij = si[:j] + (1,) + si[j + 1 :]
                around = sign[s, si] * sign[si, sij] * sign[s, sj] * sign[sj, sij]
                assert around == -1, (name, s, i, j)


def test_nonplanar_code_parses_but_has_no_cube():
    # flipping the crossing keeps its one circle, so no edge is a merge or split
    d = dg.parse_pd("X 1 2 1 2\n")
    assert d.n_crossings == 1
    with pytest.raises(dg.PDError, match=r"crossing 1 \(X 1 2 1 2\).*not planar"):
        dg.build_cube(d)


def test_orient_rejects_arcs_no_crossing_has():
    # the phantom arc 7 used to break the two-arc ambiguity
    with pytest.raises(dg.PDError, match="arc 7"):
        dg.parse_pd("X 1 1 2 2\nORIENT 1 2 7\n")
    with pytest.raises(dg.PDError, match="arc 1"):
        dg.parse_pd("O\nORIENT 1 2\n")


# --- bracket -------------------------------------------------------------------


def test_bracket_unknots():
    assert dg.kauffman_bracket(dg.BUILDERS["unknot_0"]()) == {0: 1}
    for name in ("unknot_1kink_pos", "unknot_1kink_neg", "unknot_0"):
        assert dg.normalized_bracket(dg.BUILDERS[name]()) == {0: 1}


def test_bracket_disjoint_union_multiplies_by_delta():
    base = dg.BUILDERS["trefoil_right"]()
    plus_loop = dg.LinkDiagram(base.crossings, free_loops=1, signs=base.signs)
    # <trefoil> = A^-7 - A^-3 - A^5; times -A^2 - A^-2 the A^-5 terms cancel
    assert dg.kauffman_bracket(base) == {-7: 1, -3: -1, 5: -1}
    assert list(dg.kauffman_bracket(plus_loop).items()) == [(-9, -1), (-1, 1), (3, 1), (7, 1)]


def test_bracket_hopf_value():
    # <positive hopf> = -A^4 - A^-4 after expanding the 4 states
    d = dg.BUILDERS["hopf_pos"]()
    assert dg.kauffman_bracket(d) == {-4: -1, 4: -1}


def test_rii_pair_preserves_bracket_and_writhe():
    for name in ("unknot_0", "hopf_neg", "trefoil_left"):
        base = dg.BUILDERS[name]()
        if base.n_crossings == 0:
            continue
        arc = 1
        bigger = dg.rii_pair(base, arc)
        assert bigger.n_crossings == base.n_crossings + 2
        assert bigger.writhe == base.writhe
        assert dg.kauffman_bracket(bigger) == dg.kauffman_bracket(base)
        assert dg.normalized_bracket(bigger) == dg.normalized_bracket(base)


def _orient_line(d, start):
    """The ORIENT line of a knot diagram that first enters a crossing at
    start = (crossing index, position): the strand entering at position k
    of (a, b, c, d) leaves at k + 2."""
    slots = {}
    for i, q in enumerate(d.crossings):
        for k, a in enumerate(q):
            slots.setdefault(a, []).append((i, k))
    arcs, (i, k) = [], start
    while not arcs or (i, k) != start:
        arcs.append(d.crossings[i][k])
        out = (i, (k + 2) % 4)
        (i, k), = (s for s in slots[d.crossings[i][out[1]]] if s != out)
    assert len(arcs) == d.arc_count  # one component
    return "ORIENT " + " ".join(map(str, arcs))


@pytest.mark.parametrize("name", ["trefoil_left", "trefoil_right"])
def test_rii_pair_signs_match_orientation(name):
    # the two new crossings get (-1, +1) on every arc and in both directions,
    # as the enlarged diagram's own orientation says
    base = dg.BUILDERS[name]()
    for arc in range(1, base.arc_count + 1):
        bigger = dg.rii_pair(base, arc)
        assert bigger.signs == base.signs + (-1, 1)
        pd = "".join(f"X {a} {b} {c} {e}\n" for a, b, c, e in bigger.crossings)
        # entering the arc at one end or the other: the two directions
        starts = [(i, k) for i, q in enumerate(bigger.crossings) for k, a in enumerate(q) if a == arc]
        for start in starts:
            assert dg.parse_pd(pd + _orient_line(bigger, start)).signs == bigger.signs, (arc, start)


def test_builders_are_valid_diagrams():
    for name, build in dg.BUILDERS.items():
        d = build()
        assert d.oriented, name
        # re-parse through the validator
        assert dg.LinkDiagram(d.crossings, d.free_loops, d.signs).writhe == d.writhe
