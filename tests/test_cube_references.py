"""The cube-side stages against per-term references.

``build_cube`` and ``kauffman_bracket`` resolve every state in one
depth-first walk over the crossings; ``build_cube`` classifies edges at
their crossing, ``kauffman_bracket`` tallies monomials, and
``build_complex`` appends row cells in order from a small kernel per edge
shape, placed by ``frobenius._place``.  The references below are the
direct forms they replaced: a breadth-first search for circles, one
``resolve`` per state, set differences over every circle of both states of
an edge, one polynomial term per state or generator, multiplied and summed
by a plain convolution of exponent -> coefficient dicts, and each edge's
block read off the basis labellings of the circles themselves, with no
index arithmetic and no ``frobenius`` placement, scattered into per-row
dicts, sorted at the end, with each edge's sign counted from its states.
The quantum grading is solved by sympy from the structure constants.
"""

import functools
import itertools
import random
from collections import deque
from fractions import Fraction

import pytest
import sympy

from frobknot import complex as cx
from frobknot import diagram as dg
from frobknot import frobenius as fr
from frobknot.rings import GF, QQ, ZZ

from braids import braid


def closure(word, strands):
    return dg.parse_pd(braid.closure_pd(word, strands))


def random_closures(seed=20261018, count=40):
    """Seeded closures of 2- to 4-strand braid words with 0 to 7 letters;
    strands no letter touches become free loops."""
    rng = random.Random(seed)
    out = [closure([], 3), closure([1, -1, 1], 4)]  # no crossings; two free loops
    for _ in range(count):
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 7))]
        out.append(closure(word, strands))
    return out


def eight_crossing_closures(seed=816, count=6):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(2, 4)
        out.append(closure([rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(8)], strands))
    return out


def diagrams():
    """The builders, RII pairs on three of them, the random closures, and
    two 8-crossing closures, whose cubes have 256 states."""
    out = [build() for build in dg.BUILDERS.values()]
    for name in ("hopf_pos", "trefoil_left", "trefoil_right"):
        base = dg.BUILDERS[name]()
        out += [dg.rii_pair(base, arc) for arc in (1, base.arc_count)]
    return out + random_closures() + eight_crossing_closures(seed=11, count=2)


# --- references ----------------------------------------------------------------


def components(d, state):
    """Circles of a state by breadth-first search over the smoothing's arc
    pairs, in the form ``resolve`` returns."""
    adj = {a: [] for a in range(1, d.arc_count + 1)}
    for (a, b, c, dd), bit in zip(d.crossings, state):
        for x, y in ((a, b), (c, dd)) if bit == 0 else ((a, dd), (b, c)):
            adj[x].append(y)
            adj[y].append(x)
    seen, circles = set(), []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [], deque([start])
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        circles.append(tuple(sorted(comp)))
    circles += [(-(i + 1),) for i in range(d.free_loops)]
    return tuple(sorted(circles))


def where_of(d, circles):
    """Position of each arc label's circle, 0 at the unused label 0."""
    where = [0] * (d.arc_count + 1)
    for i, c in enumerate(circles):
        for a in c:
            if a > 0:
                where[a] = i
    return where


def edges_by_set_difference(cube):
    """(s1, s2, src, dst) of every edge, sorted: the circles of s1 missing
    from s2 are the source, those of s2 missing from s1 the target, two and
    one for a merge, one and two for a split."""
    n = cube.diagram.n_crossings
    edges = []
    for s1, c1 in cube.circles.items():
        for pos in range(n):
            if s1[pos]:
                continue
            s2 = s1[:pos] + (1,) + s1[pos + 1 :]
            c2 = cube.circles[s2]
            gone = tuple(i for i, c in enumerate(c1) if c not in c2)
            new = tuple(j for j, c in enumerate(c2) if c not in c1)
            assert (len(gone), len(new)) in ((2, 1), (1, 2)), (s1, s2)
            edges.append((s1, s2, gone, new))
    return sorted(edges)


def poly_sum(*ps):
    """The sum of exponent -> coefficient dicts, zero terms dropped, in
    increasing exponent order."""
    out = {}
    for p in ps:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in sorted(out.items()) if c}


def poly_product(*ps):
    """The product of exponent -> coefficient dicts, by convolution, in the
    form of ``poly_sum``."""
    out = {0: 1}
    for p in ps:
        out = poly_sum(*({e1 + e2: c1 * c2} for e1, c1 in out.items() for e2, c2 in p.items()))
    return out


def bracket_per_monomial(d):
    delta = {-2: -1, 2: -1}
    n = d.n_crossings
    return poly_sum(*(
        poly_product({n - 2 * sum(s): 1}, *[delta] * (len(dg.resolve(d, s)) - 1))
        for s in itertools.product((0, 1), repeat=n)
    ))


def euler_per_generator(C):
    return poly_sum(*(
        {j: -1 if (C.shift + idx) % 2 else 1} for idx, degs in enumerate(C.q_degrees) for j in degs
    ))


@functools.cache
def sympy_grading(F):
    """Basis degrees d under which every nonzero mult[i][j][k] has
    d_k = d_i + d_j - 1 and every nonzero comult[x][u][w] has d_u + d_w =
    d_x - 1, solved by sympy over Q: the solution if it is unique and
    integral, else None."""
    r, zero = F.rank, F.ring.zero
    d = sympy.symbols(f"d0:{r}")
    eqs = []
    for i, j, k in itertools.product(range(r), repeat=3):
        if F.mult[i][j][k] != zero:
            eqs.append(d[k] - d[i] - d[j] + 1)
        if F.comult[i][j][k] != zero:
            eqs.append(d[j] + d[k] - d[i] + 1)
    sols = sympy.linsolve(eqs, d)
    if not sols:
        return None
    (sol,) = sols
    if any(x.free_symbols or not x.is_integer for x in sol):
        return None
    return tuple(map(int, sol))


def complex_from_labellings(cube, F, normalize):
    """(ranks, differential rows, q-degrees) from basis labellings.  A
    generator of a state labels each of its circles with a basis index,
    enumerated with the first circle slowest.  An edge keeps the label of
    each untouched circle, found in the target state by its arc set, and
    writes the product or coproduct's terms on the circles the edge names.
    Rows are filled as dicts and sorted, each edge's sign is counted from
    its states, and each state's q-degrees come from its own product over
    basis labels, with the degrees ``sympy_grading`` solves for."""
    d, R, r, m = cube.diagram, F.ring, F.rank, F.ring.p or 0
    n = d.n_crossings
    by_degree = [[] for _ in range(n + 1)]
    for s in sorted(cube.circles):
        by_degree[sum(s)].append(s)
    index, ranks = {}, []  # index[s]: labelling of the circles of s -> row in its degree
    for states in by_degree:
        count = 0
        for s in states:
            index[s] = {}
            for labels in itertools.product(range(r), repeat=len(cube.circles[s])):
                index[s][labels] = count
                count += 1
        ranks.append(count)
    states, diffs = list(cube.circles), []
    for i in range(n):
        scatter = [{} for _ in range(ranks[i + 1])]
        for k1, k2, src, dst in cube.edges:
            s1, s2 = states[k1], states[k2]
            if sum(s1) != i:
                continue
            c1, c2 = cube.circles[s1], cube.circles[s2]
            kept = [(j, c1.index(c)) for j, c in enumerate(c2) if j not in dst]
            assert sorted(p for _, p in kept) == [p for p in range(len(c1)) if p not in src]
            pos = next(k for k in range(n) if s1[k] != s2[k])
            negate = sum(s1[:pos]) % 2
            for labels, col in index[s1].items():
                x = [labels[p] for p in src]
                if len(src) == 2:
                    terms = [((s,), F.mult[x[0]][x[1]][s]) for s in range(r)]
                else:
                    terms = [((a, b), F.comult[x[0]][a][b]) for a in range(r) for b in range(r)]
                for bits, v in terms:
                    if v == R.zero:
                        continue
                    out = [None] * len(c2)
                    for j, p in kept:
                        out[j] = labels[p]
                    for j, b in zip(dst, bits):
                        out[j] = b
                    w = -v if negate else v
                    scatter[index[s2][tuple(out)]][col] = w % m if m else w
        diffs.append(tuple(tuple(sorted(cells.items())) for cells in scatter))
    q_degrees = None
    basis = sympy_grading(F) if normalize else None
    if basis is not None:
        q_degrees = []
        for states in by_degree:
            degs = []
            for s in states:
                base = sum(s) + d.n_plus - 2 * d.n_minus
                for labels in itertools.product(range(r), repeat=len(cube.circles[s])):
                    degs.append(base + sum(basis[b] for b in labels))
            q_degrees.append(tuple(degs))
        q_degrees = tuple(q_degrees)
    return tuple(ranks), tuple(diffs), q_degrees


# --- comparisons -----------------------------------------------------------------


def test_resolve_matches_breadth_first_search():
    for d in diagrams():
        for s in itertools.product((0, 1), repeat=d.n_crossings):
            assert dg.resolve(d, s) == components(d, s), (d, s)


def test_state_walk_matches_graph_walk():
    # circles, arc positions and circle counts of every state, in order
    for d in diagrams() + eight_crossing_closures():
        states = list(itertools.product((0, 1), repeat=d.n_crossings))
        walked = list(dg._states(d))
        assert len(walked) == len(states), d
        for s, (parent, count) in zip(states, walked):
            circles = components(d, s)
            assert count == len(circles), (d, s)
            assert dg._circles(d, parent) == circles, (d, s)
            assert dg._positions(d, parent) == where_of(d, circles), (d, s)


def test_engine_reads_counts_and_circles_come_on_demand():
    # build_complex reads circle counts only; the circle tuples are made on
    # first read of cube.circles, and match the graph walk state by state
    for d in diagrams() + eight_crossing_closures():
        cube = dg.build_cube(d)
        cx.build_complex(cube, fr.a5(0, 0), d.oriented)
        assert "circles" not in vars(cube), d
        assert cube.counts == tuple(map(len, cube.circles.values())), d
        states = list(itertools.product((0, 1), repeat=d.n_crossings))
        assert list(cube.circles) == states, d
        for s in states:
            assert cube.circles[s] == components(d, s), (d, s)


def classes_by_search(n, pairs):
    """The classes of labels 0..n-1 joined by the pairs, by breadth-first
    search, as a set of frozensets."""
    adj = {x: [] for x in range(n)}
    for x, y in pairs:
        adj[x].append(y)
        adj[y].append(x)
    seen, out = set(), set()
    for start in adj:
        if start not in seen:
            seen.add(start)
            comp, queue = {start}, deque([start])
            while queue:
                for y in adj[queue.popleft()]:
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        queue.append(y)
            out.add(frozenset(comp))
    return out


def test_union_keeps_roots_minimal_and_counts_merges():
    rng = random.Random(39)
    for _ in range(300):
        n = rng.randint(1, 20)
        parent, so_far = list(range(n)), []
        classes = classes_by_search(n, so_far)
        for _ in range(rng.randint(1, 8)):
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 8))]
            merged = dg._union(parent, pairs)
            so_far += pairs
            before, classes = classes, classes_by_search(n, so_far)
            assert all(parent[x] <= x for x in range(n)), (parent, so_far)
            roots = {}
            for x in range(n):
                r = x
                while parent[r] != r:
                    r = parent[r]
                roots.setdefault(r, set()).add(x)
            assert set(map(frozenset, roots.values())) == classes, (parent, so_far)
            assert merged == len(before) - len(classes), (parent, so_far)


def test_cube_edges_match_set_differences():
    for d in diagrams():
        cube = dg.build_cube(d)
        states = list(cube.circles)
        edges = [(states[i], states[j], src, dst) for i, j, src, dst in cube.edges]
        assert edges == edges_by_set_difference(cube), d


def test_edge_arity_follows_circle_counts():
    # a merge reads two circles and writes one, a split reads one and
    # writes two, so the edge's shape alone names its map
    for d in diagrams():
        cube = dg.build_cube(d)
        for i, j, src, dst in cube.edges:
            shape, change = (len(src), len(dst)), cube.counts[j] - cube.counts[i]
            assert (shape == (2, 1)) == (change == -1), (d, i, j)
            assert (shape == (1, 2)) == (change == 1), (d, i, j)


def test_bracket_matches_per_monomial_sum():
    for d in diagrams():
        # the same terms in the same increasing exponent order
        assert list(dg.kauffman_bracket(d).items()) == list(bracket_per_monomial(d).items()), d


def test_complex_and_euler_match_references():
    for d in diagrams():
        cube = dg.build_cube(d)
        for F in (fr.a5(0, 0), fr.a5(1, 1), fr.a5(0, 0, GF(3))):
            for normalize in (False, True) if d.oriented else (False,):
                C = cx.build_complex(cube, F, normalize)
                ranks, rows, q_degrees = complex_from_labellings(cube, F, normalize)
                assert C.ranks == ranks
                assert tuple(m.nz for m in C.diffs) == rows
                assert C.q_degrees == q_degrees
                for m in C.diffs:
                    assert all(a[0] < b[0] for row in m.nz for a, b in zip(row, row[1:]))
                if q_degrees is not None:
                    euler = cx.graded_euler_characteristic(C)
                    assert list(euler.items()) == list(euler_per_generator(C).items())
                    assert cx.graded_euler_characteristic(C) == cx.jones_from_bracket(d)


def scaled(R):
    """a5(0, 0) with its product times 2 and its coproduct times 3."""
    mult = (((2, 0), (0, 2)), ((0, 2), (0, 0)))
    comult = (((0, 3), (3, 0)), ((0, 0), (0, 3)))
    return fr.FrobeniusData(R, 2, mult, comult)


def rank3(R, seed=3):
    """Seeded rank-3 structure constants, neither commutative nor
    cocommutative, so a leg order mix-up shows."""
    rng = random.Random(seed)
    tensor = lambda: [[[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)] for _ in range(3)]
    return fr.FrobeniusData(R, 3, tensor(), tensor())


def test_complex_matches_labellings_over_rings():
    small = [d for d in diagrams() if d.n_crossings <= 5]
    for R in (ZZ, QQ, GF(2), GF(3)):
        algebras = [fr.a5(0, 0, R), fr.a5(1, 1, R), fr.a5(1, -1, R), scaled(R), rank3(R)]
        for F in algebras:
            for d in small if F.rank == 2 else small[::3]:
                cube = dg.build_cube(d)
                normalize = d.oriented
                C = cx.build_complex(cube, F, normalize)
                ranks, rows, q_degrees = complex_from_labellings(cube, F, normalize)
                assert (C.ranks, tuple(m.nz for m in C.diffs), C.q_degrees) == (ranks, rows, q_degrees), (R, F, d)


def test_equal_entries_are_one_object():
    # every row that holds a given (column, value) pair holds the same tuple;
    # a5(1, 1)'s coproduct has cells 1 and -1, so on the 3-strand closure a
    # column's pair with one value comes from edges of both signs
    t26, mixed = dg.build_cube(closure([-1] * 6, 2)), dg.build_cube(closure([1, -2, 1, -2, 1, 2], 3))
    for cube, F in ((t26, fr.a5(0, 0, ZZ)), (t26, fr.a5(0, 0, GF(3))), (mixed, fr.a5(1, 1, ZZ))):
        for m in cx.build_complex(cube, F, True).diffs:
            entries = [x for row in m.nz for x in row]
            assert len({id(x) for x in entries}) == len(set(entries)) < len(entries), (F, m)


def dense(R):
    """Rank-2 data whose sixteen structure constants are all distinct, so a
    source state makes many (column, value) blocks and a negative edge reads
    other blocks than a positive one."""
    mult = [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
    comult = [[[2, 3], [5, 7]], [[11, 13], [17, 19]]]
    return fr.FrobeniusData(R, 2, mult, comult)


def test_each_edge_shape_is_placed_once(monkeypatch):
    # a shape's positive and negative kernels come from one _place call, so
    # a build places each (circle count, src, dst) shape exactly once
    calls, place = [], fr._place
    monkeypatch.setattr(cx, "_place", lambda r, cells, n_in, src, dst: (
        calls.append((n_in, src, dst)) or place(r, cells, n_in, src, dst)))
    small = random_closures(count=12)
    for d in small + eight_crossing_closures(seed=11, count=2):
        cube = dg.build_cube(d)
        shapes = {(cube.counts[i], src, dst) for i, _, src, dst in cube.edges}
        for F in (fr.a5(0, 0, ZZ), fr.a5(0, 0, GF(2)), dense(ZZ)):
            calls.clear()
            C = cx.build_complex(cube, F, d.oriented)
            assert len(calls) == len(shapes) and set(calls) == shapes, (F, d)
            if F.ring == ZZ and d in small:
                assert tuple(m.nz for m in C.diffs) == complex_from_labellings(cube, F, False)[1], (F, d)


def tripled(R):
    """Z[x]/x^2 (a5(0, 0)'s product) with its coproduct times 3."""
    F = fr.a5(0, 0, R)
    return fr.FrobeniusData(R, 2, F.mult, [[[3 * x for x in row] for row in a] for a in F.comult])


def test_unit_free_data_get_khovanovs_grading():
    # the scaled and tripled data have a5(0, 0)'s degrees, so the same
    # graded ranks, Euler characteristic and q-degrees
    graded = [scaled(ZZ), scaled(QQ), scaled(GF(5)), tripled(ZZ)]
    for F in graded:
        assert F.grading == sympy_grading(F) == (1, -1), F
    for d in [build() for build in dg.BUILDERS.values()] + random_closures(count=20):
        if not d.oriented:
            continue
        cube = dg.build_cube(d)
        for F in graded:
            C = cx.build_complex(cube, F, True)
            assert C.q_degrees == cx.build_complex(cube, fr.a5(0, 0, F.ring), True).q_degrees
            assert cx.graded_euler_characteristic(C) == cx.jones_from_bracket(d), (F, d)


def truncated(R):
    """Z[x]/x^3 on the basis (1, x, x^2), with Delta(x^k) the sum of
    x^a (x) x^b over a + b = 2 + k."""
    mult = [[[int(k == i + j) for k in range(3)] for j in range(3)] for i in range(3)]
    comult = [[[int(a + b == 2 + k) for b in range(3)] for a in range(3)] for k in range(3)]
    return fr.FrobeniusData(R, 3, mult, comult)


def test_graded_euler_characteristic_is_the_state_sum_on_three_degrees():
    # Z[x]/x^3 is graded 1, 0, -1, so a circle counts q + 1 + 1/q, and the
    # Euler characteristic is the sum over states s of
    # (-1)^(|s| - n-) q^(|s| + n+ - 2 n-) (q + 1 + 1/q)^circles(s),
    # with the circles counted by resolve alone; a5(0, 0)'s circle counts q + 1/q
    rng = random.Random(29)
    diagrams = [build() for build in dg.BUILDERS.values()]
    for _ in range(10):
        strands = rng.randint(2, 3)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 6))]
        diagrams.append(closure(word, strands))
    for R in (ZZ, QQ, GF(2), GF(3)):
        F = truncated(R)
        assert all(fr.check_axioms(F).values()) and F.grading == (1, 0, -1), R
        for A, circle in ((F, {-1: 1, 0: 1, 1: 1}), (fr.a5(0, 0, R), {-1: 1, 1: 1})):
            for d in diagrams:
                want = {}
                for s in itertools.product((0, 1), repeat=d.n_crossings):
                    k, circles = sum(s), len(dg.resolve(d, s))
                    sign = -1 if (k - d.n_minus) % 2 else 1
                    term = poly_product({k + d.n_plus - 2 * d.n_minus: sign}, *[circle] * circles)
                    want = poly_sum(want, term)
                C = cx.build_complex(dg.build_cube(d), A, True)
                assert cx.graded_euler_characteristic(C) == want, (A, d)


def test_data_without_unique_degrees_get_no_grading():
    # x^2 = x +- 1 forces 1 and x into one degree, which the coproduct
    # contradicts; mod 2 the scaled product vanishes and mod 3 the scaled
    # coproduct does, which leaves one degree free; zero tensors leave all
    zeros = lambda R, r: fr.FrobeniusData(R, r, [[[0] * r] * r] * r, [[[0] * r] * r] * r)
    ungraded = [scaled(GF(2)), scaled(GF(3)), zeros(ZZ, 1), zeros(QQ, 2), zeros(GF(3), 3)]
    for R in (ZZ, QQ, GF(2), GF(3), GF(5)):
        ungraded += [fr.a5(1, 1, R), fr.a5(1, -1, R), rank3(R)]
    cube = dg.build_cube(dg.BUILDERS["trefoil_left"]())
    for F in ungraded:
        assert F.grading is None and sympy_grading(F) is None, F
        C = cx.build_complex(cube, F, True)
        assert C.q_degrees is None
        with pytest.raises(ValueError, match="no quantum grading"):
            cx.graded_euler_characteristic(C)


def test_scaled_complex_is_the_rescaled_a5_complex():
    # over a field where 2 and 3 are units, the scaled complex is a5(0, 0)'s
    # with each state's generators multiplied by 2^merges 3^splits along
    # any path from the 0-state, which the walk below checks is well defined;
    # so the homology tables are equal
    rng = random.Random(2710)
    words = [(s, [rng.choice((1, -1)) * rng.randint(1, s - 1) for _ in range(rng.randint(1, 6))])
             for s in [rng.randint(2, 4) for _ in range(24)]]
    for R in (QQ, GF(5)):
        for strands, word in words:
            d = closure(word, strands)
            cube = dg.build_cube(d)
            states = list(cube.circles)
            scale = {(0,) * d.n_crossings: 1}
            for e in sorted(cube.edges, key=lambda e: sum(states[e[0]])):
                i, j, src, _ = e
                factor = scale[states[i]] * (2 if len(src) == 2 else 3)
                assert scale.setdefault(states[j], factor) == factor, (word, e)
            by_degree = [[] for _ in range(d.n_crossings + 1)]
            for s in sorted(cube.circles):
                by_degree[sum(s)] += [scale[s]] * 2 ** len(cube.circles[s])
            C0 = cx.build_complex(cube, fr.a5(0, 0, R), d.oriented)
            C1 = cx.build_complex(cube, scaled(R), d.oriented)
            for i, (m0, m1) in enumerate(zip(C0.diffs, C1.diffs)):
                out, inn = by_degree[i + 1], by_degree[i]
                want = tuple(tuple((j, R.normalize(Fraction(v * out[k], inn[j]))) for j, v in row)
                             for k, row in enumerate(m0.nz))
                assert m1.nz == want, (R, word, i)
            assert cx.homology(C1).to_json() == cx.homology(C0).to_json(), (R, word)
