import itertools

import pytest

from frobknot import diagram as dg
from frobknot.laurent import Laurent


def delta():
    return Laurent.monomial(2, -1) + Laurent.monomial(-2, -1)


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


def test_orient_header_recovers_signs():
    # left trefoil, orientation given as the cyclic arc order of the knot
    text = "X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\nORIENT 1 2 3 4 5 6\n"
    d = dg.parse_pd(text)
    assert d.n_plus == 0 and d.n_minus == 3


def test_orient_ambiguity_on_two_arc_component():
    # the Hopf link has two-arc components, so orientation data cannot
    # disambiguate the crossing signs
    with pytest.raises(dg.PDError, match="SIGNS"):
        dg.parse_pd("X 1 3 2 4\nX 2 4 1 3\nORIENT 1 2\nORIENT 3 4\n")


def test_signs_header_wins():
    text = "X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\nSIGNS + + +\nORIENT 1 2 3 4 5 6\n"
    d = dg.parse_pd(text)
    assert d.n_plus == 3 and d.n_minus == 0


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
    kinds = sorted(e.kind for e in cube.edges)
    # 2 circles -> 1 (merge) twice, then 1 -> 2 (split) twice
    assert kinds == ["merge", "merge", "split", "split"]


def test_sign_exponent():
    assert dg.sign_exponent((0, 0, 0), (0, 1, 0)) == 0
    assert dg.sign_exponent((1, 0, 0), (1, 1, 0)) == 1
    assert dg.sign_exponent((1, 0, 1), (1, 1, 1)) == 1
    assert dg.sign_exponent((1, 1, 0), (1, 1, 1)) == 2
    with pytest.raises(dg.PDError):
        dg.sign_exponent((0, 0), (1, 1))
    with pytest.raises(dg.PDError):
        dg.sign_exponent((0, 0), (1,))
    with pytest.raises(dg.PDError):
        dg.sign_exponent((0,), (0, 1))


def test_cube_squares_anticommute_after_signs():
    # over every builder, each 2-face has an odd total sign exponent,
    # which is what makes the signed differential square to zero
    for name, build in dg.BUILDERS.items():
        d = build()
        n = d.n_crossings
        if n < 2:
            continue
        cube = dg.build_cube(d)
        by_src = {}
        for e in cube.edges:
            by_src.setdefault(e.s1, []).append(e)
        for s in itertools.product((0, 1), repeat=n):
            for e1 in by_src.get(s, []):
                for e2 in by_src.get(e1.s2, []):
                    total = dg.sign_exponent(s, e1.s2) + dg.sign_exponent(e1.s2, e2.s2)
                    # the commuting pair of edge flips differs in parity
                    j = next(k for k in range(n) if e1.s2[k] != e2.s2[k])
                    mid = list(s)
                    mid[j] = 1
                    mid = tuple(mid)
                    alt = dg.sign_exponent(s, mid) + dg.sign_exponent(mid, e2.s2)
                    assert (total + alt) % 2 == 1


# --- bracket -------------------------------------------------------------------


def test_bracket_unknots():
    assert dg.kauffman_bracket(dg.BUILDERS["unknot_0"]()) == Laurent.one()
    for name in ("unknot_1kink_pos", "unknot_1kink_neg", "unknot_0"):
        assert dg.normalized_bracket(dg.BUILDERS[name]()) == Laurent.one()


def test_bracket_disjoint_union_multiplies_by_delta():
    base = dg.BUILDERS["trefoil_right"]()
    plus_loop = dg.LinkDiagram(
        base.crossings, free_loops=1, n_plus=base.n_plus, n_minus=base.n_minus
    )
    assert dg.kauffman_bracket(plus_loop) == dg.kauffman_bracket(base) * delta()


def test_bracket_hopf_value():
    # <positive hopf> = -A^4 - A^-4 after expanding the 4 states
    d = dg.BUILDERS["hopf_pos"]()
    expected = Laurent.monomial(4, -1) + Laurent.monomial(-4, -1)
    assert dg.kauffman_bracket(d) == expected


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


def test_builders_are_valid_diagrams():
    for name, build in dg.BUILDERS.items():
        d = build()
        assert d.oriented, name
        # re-parse through the validator
        assert dg.LinkDiagram(
            d.crossings, d.free_loops, d.n_plus, d.n_minus
        ).writhe == d.writhe
