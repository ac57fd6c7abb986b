"""Chain complexes from a resolution cube and algebra data.

Degree i collects the states with i raised bits (lexicographic state order
inside a degree); each state contributes the tensor power of the algebra
indexed by its circles, ordered by minimal arc label.  An edge reading two
circles (a merge) applies the product, one reading one (a split) the
coproduct, at the touched tensor positions, placed by ``frobenius._place``,
with the sign (-1)^(number of 1-bits before the flipped position).

Over Q each merge is scaled by a and each split by b, the least common
denominators of the product and of the coproduct.  Every path from the
0-state to s makes the same numbers of merges and splits, so rescaling s by
a^merges b^splits is an isomorphism: the complex holds integers.
"""

from __future__ import annotations

import contextlib
import gc
from collections import Counter
from functools import cached_property
from math import lcm

from .diagram import LinkDiagram, ResolutionCube, _times_delta, build_cube, normalized_bracket
from .frobenius import FrobeniusData, _cells, _place
from .linalg import ExactMatrix, homology_summands
from .rings import QQ, Value


@contextlib.contextmanager
def _paused():
    """Pause the cyclic collector; restore the caller's setting after, also
    on a raise.  The engine makes no reference cycles, so reference counting
    frees all it allocates.  Used as a decorator: ``@_paused()``."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


class ChainComplex(Value):
    # shift: degree of the first module; ranks: module rank per degree from
    # shift; diffs[i]: matrix from degree shift+i to shift+i+1; q_source:
    # what q_degrees is read from, (the cube's circle counts, the algebra,
    # n_plus - 2 n_minus) on a normalized complex, else None
    _fields = ("ring", "shift", "ranks", "diffs", "q_source")

    @cached_property
    def q_degrees(self) -> tuple | None:
        """Per degree, a tuple of quantum degrees, computed on first read;
        None when the complex is not normalized or the algebra has no
        quantum grading."""
        if self.q_source is None or (basis := self.q_source[1].grading) is None:
            return None
        count, _, base = self.q_source
        sums = [[0]]  # sums[c]: the label sums of c circles' basis labellings, first slowest
        blocks: dict[tuple, list] = {}  # (degree, circle count) -> one state's q-degrees
        degs: list[list] = [[] for _ in self.ranks]
        for i, c in zip(map(int.bit_count, range(len(count))), count):
            block = blocks.get((i, c))
            if block is None:
                while len(sums) <= c:
                    sums.append([x + b for x in sums[-1] for b in basis])
                block = blocks[i, c] = [*map((i + base).__add__, sums[c])]
            degs[i] += block
        return tuple(map(tuple, degs))


class HomologyTable(Value):
    _fields = ("ring", "normalized", "rows")  # rows: (i, free_rank, torsion tuple)

    def to_json(self) -> dict:
        return {
            "normalized": self.normalized,
            "ring": self.ring.to_json(),
            "groups": [
                {"i": i, "free_rank": free, "torsion": list(tor)} for i, free, tor in self.rows
            ],
        }


@_paused()
def build_complex(
    cube: ResolutionCube, F: FrobeniusData, normalize: bool = False
) -> ChainComplex:
    d = cube.diagram
    n = d.n_crossings
    R, r, m = F.ring, F.rank, F.ring.p  # m - v negates a cell, also mod p
    if normalize and not d.oriented:
        raise ValueError("normalization needs an oriented diagram (sign counts)")

    # states by index in lexicographic order, as edges name them: the bits of i are state i's
    count = cube.counts
    degree = [*map(int.bit_count, range(len(count)))]
    offset, ranks = [], [0] * (n + 1)
    for i, c in zip(degree, count):
        offset.append(ranks[i])
        ranks[i] += r ** c

    edges_by_degree: list[list] = [[] for _ in range(n)]
    for e in cube.edges:
        edges_by_degree[degree[e[0]]].append(e)
    local = {legs: _cells(F, legs) for legs in (1, 2)}  # by input legs: coproduct, product
    if R == QQ:  # integer cells, an isomorphic complex (see the module docstring)
        for legs, cells in local.items():
            den = lcm(*(v.denominator for *_, v in cells))
            local[legs] = [(i, o, v.numerator * (den // v.denominator)) for i, o, v in cells]
    # edge shape -> its map's cells as (row, pair index), one list per sign; a
    # cell (a, b + N * j) reads the pair (column b of its source, values[j])
    kernels: dict[tuple, tuple] = {}
    values = sorted({w for cells in local.values() for *_, v in cells for w in (v, m - v)})
    vindex = {v: j for j, v in enumerate(values)}
    diffs = []
    for i, edges in enumerate(edges_by_degree):
        rows, cols = ranks[i + 1], ranks[i]
        # edges come in s1 order and columns are offset by s1, so each row
        # receives its columns in increasing order, each at most once
        scatter: list[list] = [[] for _ in range(rows)]
        k0 = None
        for k1, k2, src, dst in edges:
            if k1 != k0:  # a new source state: its shared pairs, one int per column
                k0, N = k1, r ** count[k1]
                columns = [*range(offset[k1], offset[k1] + N)]
                pairs = [(c, v) for v in values for c in columns]
            shape = (count[k1], src, dst)
            kernel = kernels.get(shape)
            if kernel is None:
                cells = _place(r, local[len(src)], count[k1], src, dst)
                kernel = kernels[shape] = ([(a, b + N * vindex[v]) for a, b, v in cells],
                                           [(a, b + N * vindex[m - v]) for a, b, v in cells])
            # negative when k1 has an odd number of 1-bits above the raised bit k2 - k1
            ro = offset[k2]
            for a, j in kernel[(k1 >> (k2 - k1).bit_length()).bit_count() & 1]:
                scatter[ro + a].append(pairs[j])
        # structure constants are already ring elements: no normalization
        diffs.append(ExactMatrix(R, rows, cols, tuple(map(tuple, scatter))))
        del scatter  # free this degree's cells before the next degree is filled

    shift = -d.n_minus if normalize else 0
    q_source = (count, F, d.n_plus - 2 * d.n_minus) if normalize else None
    return ChainComplex(R, shift, tuple(ranks), tuple(diffs), q_source)


@_paused()
def chain_complex(d: LinkDiagram, F: FrobeniusData, normalize: bool = False) -> ChainComplex:
    return build_complex(build_cube(d), F, normalize)


def verify_d_squared(C: ChainComplex) -> bool:
    for d0, d1 in zip(C.diffs, C.diffs[1:]):
        if d0.rows and d0.cols and d1.rows and not (d1 @ d0).is_zero():
            return False
    return True


@_paused()
def homology(C: ChainComplex) -> HomologyTable:
    if not verify_d_squared(C):
        raise ValueError("differentials do not compose to zero")
    R = C.ring
    rows = []
    for idx, middle in enumerate(C.ranks):
        d_in = C.diffs[idx - 1] if idx > 0 else ExactMatrix(R, middle, 0, ((),) * middle)
        d_out = C.diffs[idx] if idx < len(C.diffs) else ExactMatrix(R, 0, middle, ())
        free, torsion = homology_summands(d_in, d_out)
        rows.append((C.shift + idx, free, tuple(torsion)))
    return HomologyTable(R, C.q_source is not None, tuple(rows))


def graded_euler_characteristic(C: ChainComplex) -> dict:
    """Alternating sum of q-degree generating functions, as a dict from
    q-exponent to nonzero coefficient in increasing exponent order.
    Available only when the complex carries the quantum grading."""
    if C.q_degrees is None:
        raise ValueError(
            "no quantum grading on this complex (requires normalization, and "
            "algebra data with unique integer basis degrees under which the "
            "product and the coproduct both have degree -1)"
        )
    tally: Counter = Counter()  # q-degree -> signed generator count
    for idx, degs in enumerate(C.q_degrees):
        counts = Counter(degs)  # counted in C, then signed once per q-degree
        if (C.shift + idx) % 2:
            tally.subtract(counts)
        else:
            tally.update(counts)
    return {e: c for e, c in sorted(tally.items()) if c}


def jones_from_bracket(d: LinkDiagram) -> dict:
    """Unnormalized polynomial invariant from the bracket oracle, in the
    form of ``graded_euler_characteristic``: multiply the writhe-corrected
    bracket by delta, then substitute A^(2k) -> (-1)^k q^(-k).  Calibrated
    so the crossing-free unknot gives q + 1/q."""
    p = _times_delta(normalized_bracket(d))
    if any(e % 2 for e in p):
        raise ValueError("odd exponent present")
    # k = e/2 and q^(-k) reverse the order; (-1)^k is + when 4 divides e
    return {-e // 2: c if e % 4 == 0 else -c for e, c in reversed(p.items())}
