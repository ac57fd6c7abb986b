"""Link diagrams as PD codes, state resolutions, the cube of resolutions,
and a state-sum bracket oracle kept independent of the chain machinery.

Convention (fixed here, validated by the polynomial cross-checks): for a
crossing quadruple (a, b, c, d) the 0-smoothing joins a-b and c-d, the
1-smoothing joins a-d and b-c.  Crossing order is file order.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cached_property

from .rings import Value


class PDError(ValueError):
    pass


def _tupled(v, name: str) -> tuple:
    """tuple(v), or a PDError naming the field when v is not iterable."""
    try:
        return tuple(v)
    except TypeError:
        raise PDError(f"{name} must be iterable, got {v!r}") from None


class LinkDiagram(Value):
    # crossings: (a, b, c, d) arc-label quadruples; signs: +1 or -1 per
    # crossing, or None if unoriented (a diagram with no crossings has ())
    _fields = ("crossings", "free_loops", "signs")

    def __init__(self, crossings: tuple, free_loops: int = 0, signs: tuple | None = None):
        crossings = tuple(_tupled(x, "each crossing") for x in _tupled(crossings, "crossings"))
        seen: dict[int, int] = {}
        for q in crossings:
            if len(q) != 4:
                raise PDError("crossing needs exactly four arc labels")
            for a in q:
                if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                    raise PDError(f"bad arc label {a!r}")
                seen[a] = seen.get(a, 0) + 1
        for a, k in seen.items():
            if k != 2:
                raise PDError(f"arc {a} appears {k} times, expected 2")
        if seen and sorted(seen) != list(range(1, len(seen) + 1)):
            raise PDError("arc labels must be 1..arc_count with no gaps")
        if type(free_loops) is not int or free_loops < 0:
            raise PDError(f"free_loops must be a nonnegative integer, got {free_loops!r}")
        if signs is not None:
            signs = _tupled(signs, "signs")
            if len(signs) != len(crossings) or not all(type(s) is int and s in (1, -1) for s in signs):
                raise PDError("signs must give +1 or -1 for each crossing")
        elif not crossings:
            signs = ()
        super().__init__(crossings, free_loops, signs)

    @property
    def arc_count(self) -> int:
        return 2 * len(self.crossings)  # the labels 1..N, each on two of the 4n crossing ends

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def oriented(self) -> bool:
        return self.signs is not None

    @property
    def n_plus(self) -> int | None:
        return None if self.signs is None else self.signs.count(1)

    @property
    def n_minus(self) -> int | None:
        return None if self.signs is None else self.signs.count(-1)

    @property
    def writhe(self) -> int:
        if not self.oriented:
            raise PDError("diagram carries no orientation data")
        return sum(self.signs)


def parse_pd(text: str) -> LinkDiagram:
    """Parse the PD file format.

    Lines: ``X a b c d`` per crossing, ``O`` per crossing-free loop,
    optional ``SIGNS + - ...`` (one token per crossing, takes precedence),
    optional ``ORIENT a b c ...`` (one line per component, cyclic edge
    order); ``#`` starts a comment.
    """
    crossings: list[tuple] = []
    loops = 0
    signs_tokens: list[str] | None = None
    orient: list[list[int]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].upper()
        if key == "X":
            if len(parts) != 5:
                raise PDError(f"malformed crossing line: {raw.strip()!r}")
            try:
                crossings.append(tuple(int(x) for x in parts[1:]))
            except ValueError:
                raise PDError(f"malformed crossing line: {raw.strip()!r}") from None
        elif key == "O":
            if len(parts) != 1:
                raise PDError(f"malformed loop line: {raw.strip()!r}")
            loops += 1
        elif key == "SIGNS":
            if signs_tokens is not None:
                raise PDError("duplicate SIGNS header")
            signs_tokens = parts[1:]
        elif key == "ORIENT":
            try:
                orient.append([int(x) for x in parts[1:]])
            except ValueError:
                raise PDError(f"malformed ORIENT line: {raw.strip()!r}") from None
        else:
            raise PDError(f"unrecognized line: {raw.strip()!r}")

    signs = None
    if signs_tokens is not None:
        if len(signs_tokens) != len(crossings):
            raise PDError("SIGNS must list one sign per crossing")
        if any(t not in ("+", "-") for t in signs_tokens):
            raise PDError("SIGNS tokens must be + or -")
        signs = tuple(1 if t == "+" else -1 for t in signs_tokens)
    arcs = {a for q in crossings for a in q}
    succ: dict[int, int] = {}  # each ORIENT arc's successor, checked even under SIGNS
    for comp in orient:
        for i, a in enumerate(comp):
            if a not in arcs:
                raise PDError(f"ORIENT lists arc {a}, which no crossing has")
            if a in succ:
                raise PDError(f"arc {a} listed twice in ORIENT data")
            succ[a] = comp[(i + 1) % len(comp)]
    if signs_tokens is None and orient:
        signs = _signs_from_orientation(crossings, succ)
    return LinkDiagram(tuple(crossings), loops, signs)


def _signs_from_orientation(crossings, succ) -> tuple:
    def direction(u, v):
        fwd = succ.get(u) == v
        bwd = succ.get(v) == u
        if fwd and bwd:
            raise PDError(
                "orientation is ambiguous on a two-arc component; use a SIGNS header"
            )
        if fwd:
            return 1
        if bwd:
            return -1
        raise PDError(f"ORIENT data does not connect arcs {u} and {v}")

    return tuple(-direction(a, c) * direction(b, d) for a, b, c, d in crossings)


# ---------------------------------------------------------------------------
# Resolutions
# ---------------------------------------------------------------------------


def _smoothings(q) -> tuple:
    """The arc pairs the 0- and the 1-smoothing of crossing q join."""
    a, b, c, d = q
    return ((a, b), (c, d)), ((a, d), (b, c))


def _union(parent: list, pairs) -> int:
    """Join the circles of each pair; returns how many joins merged two.

    parent[x] <= x throughout: a union hangs the larger root under the
    smaller, so every root is the minimal label of its circle.  Each find
    halves its path in one step, ``parent[x] = x = parent[parent[x]]``:
    the targets are assigned left to right, so parent[x] is set through the
    old x before x moves on."""
    merged = 0
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
            merged += 1
        elif y < x:
            parent[x] = y
            merged += 1
    return merged


def _positions(d: LinkDiagram, parent: list) -> list:
    """The position of each arc label's circle in a finished union-find
    array, 0 at the unused label 0; compresses parent to roots.  In label
    order each parent is already a root, so one pass compresses, and roots
    first appear in circle order, after the crossing-free loops."""
    where = [0] * (d.arc_count + 1)
    k = d.free_loops
    for a in range(1, d.arc_count + 1):
        parent[a] = root = parent[parent[a]]
        if root == a:
            where[a] = k
            k += 1
        else:
            where[a] = where[root]
    return where


def _circles(d: LinkDiagram, parent: list) -> tuple:
    """The circles of a finished union-find array, as ``resolve`` returns
    them, in the order ``_positions`` numbers them."""
    where = _positions(d, parent)
    circles = [[-i] for i in range(d.free_loops, 0, -1)]
    for a in range(1, d.arc_count + 1):
        if (i := where[a]) == len(circles):
            circles.append([a])
        else:
            circles[i].append(a)
    return tuple(map(tuple, circles))


def _states(d: LinkDiagram):
    """(parent, circle count) of every state, in lexicographic order.

    A depth-first walk over the crossings: states that share a prefix share
    that prefix's unions.  The walk goes on down the 0-branch in place and
    leaves a copy, joined at the 1-smoothing, on the stack, so each yielded
    array is the caller's to keep or change."""
    joins = [_smoothings(q) for q in d.crossings]
    stack = [(0, list(range(d.arc_count + 1)), d.arc_count + d.free_loops)]
    while stack:
        k, parent, count = stack.pop()
        for zero, one in joins[k:]:
            other = parent[:]
            stack.append((k + 1, other, count - _union(other, one)))
            count -= _union(parent, zero)
            k += 1
        yield parent, count


def resolve(d: LinkDiagram, state: Sequence[int]) -> tuple:
    """Circle partition of the state: tuple of sorted arc-label tuples,
    ordered by minimal label.  Crossing-free loops appear as single
    synthetic negative labels."""
    if len(state) != d.n_crossings:
        raise PDError("state length does not match crossing count")
    parent = list(range(d.arc_count + 1))
    for q, bit in zip(d.crossings, state):
        if bit not in (0, 1):
            raise PDError("state bits must be 0 or 1")
        _union(parent, _smoothings(q)[bit == 1])
    return _circles(d, parent)


class ResolutionCube(Value):
    # counts: circle count of each state, states in lexicographic order;
    # edges: (i, j, src, dst) tuples, ordered by (i, j)
    _fields = ("diagram", "counts", "edges")

    @cached_property
    def circles(self) -> dict:
        """State -> ordered circle tuple, states in lexicographic order, as
        ``resolve`` gives them; one more walk, on first read."""
        d = self.diagram
        states = itertools.product((0, 1), repeat=d.n_crossings)
        return {s: _circles(d, parent) for s, (parent, _) in zip(states, _states(d))}


def build_cube(d: LinkDiagram) -> ResolutionCube:
    """Resolve every state in one walk, keeping its circle count and the
    position of each arc's circle, and read each edge at the crossing it
    flips: a merge when the circles of a and c differ in s1, else a split
    when those of a and b differ in s2; no planar diagram has a third case.

    An edge s1 -> s2 raises one bit; i and j are the indices of s1 and s2
    in lexicographic state order, so the bits of i are the state's.  A merge
    takes src positions (x, y) of s1's circles to dst (z,) of s2's, a split
    (z,) to (x, y); untouched circles keep their arc sets.  len(src) names
    the map, and i and j the sign (see ``complex``)."""
    n = d.n_crossings
    counts, where = [], []  # where[i]: position of each arc's circle in state i
    for parent, count in _states(d):
        counts.append(count)
        where.append(_positions(d, parent))
    # last crossing first: s2 rises as the raised bit moves left
    plan = [(pos, 1 << (n - 1 - pos), a, b, c) for pos, (a, b, c, _) in enumerate(d.crossings)][::-1]
    top = d.arc_count + d.free_loops  # bounds every circle position
    one = [(x,) for x in range(top)]  # src and dst tuples, one object per value
    two = [[(x, y) if x < y else (y, x) for y in range(top)] for x in range(top)]
    edges = []
    for i, w1 in enumerate(where):
        for pos, bit, a, b, c in plan:
            if i & bit:
                continue
            w2 = where[j := i + bit]
            x, y = w1[a], w1[c]
            if x != y:
                edges.append((i, j, two[x][y], one[w2[a]]))
            elif (x := w2[a]) != (y := w2[b]):
                edges.append((i, j, one[w1[a]], two[x][y]))
            else:
                a, b, c, dd = d.crossings[pos]
                raise PDError(
                    f"crossing {pos + 1} (X {a} {b} {c} {dd}) keeps one circle when "
                    "its smoothing flips; the PD code is not planar"
                )
    return ResolutionCube(d, tuple(counts), tuple(edges))


# ---------------------------------------------------------------------------
# Bracket oracle
# ---------------------------------------------------------------------------


def _times_delta(p: dict) -> dict:
    """p times delta = -A^2 - A^-2, for p and the result dicts from
    exponent to nonzero coefficient in increasing exponent order."""
    out: dict = {}
    for shift in (-2, 2):
        for e, c in p.items():
            out[e + shift] = out.get(e + shift, 0) - c
    return {e: c for e, c in sorted(out.items()) if c}


def kauffman_bracket(d: LinkDiagram) -> dict:
    """State sum over all smoothings: sum of A^(#0 - #1) * delta^(circles - 1)
    with delta = -A^2 - A^(-2), as a dict from A-exponent to nonzero
    coefficient in increasing exponent order.  Direct enumeration of the
    circle counts, no cube involved: the states are tallied by circle count,
    then by A-exponent, and the rows are summed in Horner form,
    row[1] + delta * (row[2] + delta * (...))."""
    if not (d.crossings or d.free_loops):
        raise PDError("empty diagram (no crossings, no loops): its bracket would be delta^-1")
    n = d.n_crossings
    tally: dict[int, dict] = {}  # circle count -> {A-exponent: states}
    for k, (_, count) in enumerate(_states(d)):  # the bits of k are the state's
        row = tally.setdefault(count, {})
        e = n - 2 * k.bit_count()
        row[e] = row.get(e, 0) + 1
    total: dict = {}
    for c in range(max(tally), 0, -1):
        total = _times_delta(total)
        for e, k in tally.get(c, {}).items():
            total[e] = total.get(e, 0) + k
    return {e: k for e, k in sorted(total.items()) if k}


def normalized_bracket(d: LinkDiagram) -> dict:
    """(-A^3)^(-writhe) times the bracket, in the bracket's form; an
    invariant of the oriented link."""
    w = d.writhe
    sign = -1 if w % 2 else 1
    return {e - 3 * w: sign * c for e, c in kauffman_bracket(d).items()}


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def rii_pair(base: LinkDiagram, arc: int) -> LinkDiagram:
    """Push a finger of the named arc across itself: two extra crossings
    forming an empty bigon, signed -1 and +1 whatever the orientation (both
    cross the arc itself).  The result is planar-isotopic to the base."""
    if not 1 <= arc <= base.arc_count:
        raise PDError(f"arc {arc} not present in diagram")
    n1, n2, n3, n4 = (base.arc_count + i for i in range(1, 5))
    crossings = []
    replaced = False
    for q in base.crossings:
        out = []
        for a in q:
            if a == arc and replaced:
                out.append(n4)
            else:
                if a == arc:
                    replaced = True
                out.append(a)
        crossings.append(tuple(out))
    crossings.append((arc, n3, n1, n4))
    crossings.append((n1, n3, n2, n2))
    signs = None if base.signs is None else base.signs + (-1, 1)
    return LinkDiagram(tuple(crossings), base.free_loops, signs)


# Zero-argument builders of the built-in diagrams, by name.
BUILDERS = {
    "unknot_0": lambda: LinkDiagram((), free_loops=1, signs=()),
    "unknot_1kink_pos": lambda: LinkDiagram(((1, 1, 2, 2),), signs=(1,)),
    "unknot_1kink_neg": lambda: LinkDiagram(((1, 2, 2, 1),), signs=(-1,)),
    "hopf_pos": lambda: LinkDiagram(((1, 3, 2, 4), (2, 4, 1, 3)), signs=(1, 1)),
    "hopf_neg": lambda: LinkDiagram(((3, 2, 4, 1), (4, 1, 3, 2)), signs=(-1, -1)),
    "trefoil_left": lambda: LinkDiagram(
        ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), signs=(-1, -1, -1)
    ),
    "trefoil_right": lambda: LinkDiagram(
        ((4, 2, 5, 1), (6, 4, 1, 3), (2, 6, 3, 5)), signs=(1, 1, 1)
    ),
    # two-crossing two-component diagram removable by one RII move
    "figure10_d1": lambda: LinkDiagram(((1, 3, 2, 4), (2, 3, 1, 4)), signs=(1, -1)),
    # crossing-free two-component unlink
    "figure10_d2": lambda: LinkDiagram((), free_loops=2, signs=()),
}
