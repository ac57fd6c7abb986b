"""Rank-r algebra/coalgebra data with exact axiom checking.

Structure constants live in nested tuples: ``mult[i][j][k]`` is the e_k
coefficient of e_i * e_j, and ``comult[k][i][j]`` the e_i (x) e_j coefficient
of the coproduct of e_k.  Tensor-power bases are ordered lexicographically
with the first factor slowest.  The cobordism generators and the cube edges
in ``complex`` scatter the whole-map cells of one placement kernel, ``_place``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import mod, mul
from typing import Optional, Sequence

from .linalg import ExactMatrix, _solve, rank, smith_normal_form
from .rings import ZZ, RingSpec, Value


def _listed(v, name: str):
    """v, if a list or tuple: a string's characters would read as scalars."""
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {v!r}")
    return v


def _norm_tensor(ring: RingSpec, t, r: int):
    sized = lambda v: len(_listed(v, "structure tensor")) == r
    if not (sized(t) and all(sized(a) and all(map(sized, a)) for a in t)):
        raise ValueError("structure tensor must be r x r x r")
    return tuple(tuple(tuple(ring.normalize(x) for x in row) for row in a) for a in t)


# each identity, and what a declared one that is not the solved one fails to do
_IDENTITIES = (("unit", "is not a two-sided identity"), ("counit", "does not split the coproduct"))


class FrobeniusData(Value):
    _fields = ("ring", "rank", "mult", "comult")

    def __init__(self, ring: RingSpec, rank: int, mult: tuple, comult: tuple):
        if type(rank) is not int or rank < 1:
            raise ValueError("rank must be a positive integer")
        mult, comult = (_norm_tensor(ring, t, rank) for t in (mult, comult))
        super().__init__(ring, rank, mult, comult)

    # solved from the tensors on first read and kept; None when there is none
    @cached_property
    def unit(self) -> Optional[tuple]:
        return _unit(self.ring, self.mult)

    @cached_property
    def counit(self) -> Optional[tuple]:
        return _unit(self.ring, _transpose(self.comult))

    @cached_property
    def grading(self) -> Optional[tuple]:  # the quantum grading's basis degrees
        return _grading(self)

    # -- elementwise operations -------------------------------------------

    def product(self, u: Sequence, v: Sequence) -> tuple:
        """Product of two vectors: sum_k (sum_ij u_i v_j mult[i][j][k]) e_k."""
        R, r, c, rng = self.ring, self.rank, self.mult, range(self.rank)
        u, v = ([R.normalize(x) for x in w] for w in (u, v))
        if len(u) != r or len(v) != r:
            raise ValueError(f"product takes two vectors of length {r}")
        out = [sum((u[i] * v[j] * c[i][j][k] for i in rng for j in rng), R.zero) for k in rng]
        return tuple(x % R.p for x in out) if R.p else tuple(out)

    def coproduct(self, v: Sequence) -> tuple:
        """Coproduct of a vector, as an r*r coefficient tuple (first factor
        slow): the e_i (x) e_j coefficient is sum_k v_k comult[k][i][j]."""
        R, r, d, rng = self.ring, self.rank, self.comult, range(self.rank)
        v = [R.normalize(x) for x in v]
        if len(v) != r:
            raise ValueError(f"coproduct takes a vector of length {r}")
        out = [sum((v[k] * d[k][i][j] for k in rng), R.zero) for i in rng for j in rng]
        return tuple(x % R.p for x in out) if R.p else tuple(out)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        fmt3 = lambda t: [[list(map(str, row)) for row in a] for a in t]
        out = {
            "ring": self.ring.to_json(),
            "rank": self.rank,
            "mult": fmt3(self.mult),
            "comult": fmt3(self.comult),
        }
        for name, _ in _IDENTITIES:
            if (v := getattr(self, name)) is not None:
                out[name] = list(map(str, v))
        return out

    @classmethod
    def from_json(cls, d: dict) -> "FrobeniusData":
        # a declared unit or counit must be the solved one; both are read
        # and length-checked before either is compared
        F = cls(RingSpec.from_json(d["ring"]), d["rank"], d["mult"], d["comult"])
        declared = {}
        for name, _ in _IDENTITIES:
            if (v := d.get(name)) is not None:
                declared[name] = v = tuple(map(F.ring.normalize, _listed(v, name)))
                if len(v) != F.rank:
                    raise ValueError(f"{name} has wrong length")
        for name, fails in _IDENTITIES:
            if name in declared and declared[name] != getattr(F, name):
                raise ValueError(f"declared {name} {fails}")
        return F


def _transpose(t) -> tuple:
    """The coproduct tensor d[k][i][j] read as the table c[i][j][k].

    The coproduct is coassociative, cocommutative, counital exactly when
    this table is associative, commutative, unital, and its counit is the
    table's unit.  The coproduct's matrix is the transpose of the table's,
    so it is injective when the table has full rank and split injective
    when its product is onto.  Applied twice, maps a table to a coproduct.
    """
    r = len(t)
    return tuple(tuple(tuple(t[k][i][j] for k in range(r)) for j in range(r)) for i in range(r))


def _vanish(vals, m) -> bool:
    """Every value is 0, mod m when m is nonzero.  Lazy: it stops at the
    first value that is not, so a generator is read no further."""
    return not any(map(mod, vals, itertools.repeat(m))) if m else not any(vals)


def _unit(R: RingSpec, c) -> Optional[tuple]:
    """The two-sided unit of the table c, or None: the solution u of
    u*e_j = e_j = e_j*u, as dense augmented rows [matrix | rhs].  A two-sided
    unit is unique (u = u*u' = u'), also over the fraction field, so a
    consistent system has no kernel and the Z solve, which needs a unique
    solution, never raises here."""
    rng = range(len(c))
    rows = [[c[i][j][k] if left else c[j][i][k] for i in rng] + [R.one if k == j else R.zero]
            for j in rng for left in (True, False) for k in rng]
    sol = _solve(R, rows, len(c))
    return tuple(sol) if sol is not None else None


def _algebra_flags(R: RingSpec, c) -> dict:
    """Associative and commutative flags of the table c, whether
    its product is onto over the ring (all invariant factors 1 over Z) and
    whether it has full rank over the fraction field."""
    r, m = len(c), R.p
    rng = range(r)
    M = ExactMatrix.from_rows(R, [[c[i][j][k] for i in rng for j in rng] for k in rng])
    if R == ZZ:
        diag = smith_normal_form(M)
        onto, full_rank = all(x == 1 for x in diag), all(diag)
    else:
        onto = full_rank = rank(M) == r
    return {
        "associative": _vanish(
            (sum(c[i][j][s] * c[s][k][l] - c[j][k][s] * c[i][s][l] for s in rng)
             for i, j, k, l in itertools.product(rng, repeat=4)), m),
        "commutative": all(c[i][j] == c[j][i] for i in rng for j in rng),
        "onto": onto,
        "full_rank": full_rank,
    }


def _frobenius_rows(c, col, n: int):
    """Delta m = (m (x) 1)(1 (x) Delta) = (1 (x) m)(Delta (x) 1) for the table c,
    as rows linear in n coproduct unknowns, col[k][a][b] holding d[k][a][b]:
    for each e_a (x) e_b coefficient of each e_i (x) e_j, in (i, j, a, b)
    order, the row of the first equation, then that of the second."""
    rng = range(len(c))
    for i, j, a, b in itertools.product(rng, repeat=4):
        lhs = [0] * n
        for s in rng:
            lhs[col[s][a][b]] += c[i][j][s]
        mid, rhs = lhs[:], lhs[:]
        for u in rng:
            mid[col[j][u][b]] -= c[i][u][a]
            rhs[col[i][a][u]] -= c[u][j][b]
        yield from (mid, rhs)


def check_axioms(F: FrobeniusData) -> dict:
    """Exact flags for the algebra/coalgebra axioms and the Frobenius
    relation, the rows of _frobenius_rows evaluated at the coproduct.

    The coalgebra flags are the algebra flags of the transposed coproduct.
    Over Z, "surjective" means all invariant factors are units and two
    injectivity notions are reported: full rank over the fraction field, and
    split injectivity (all invariant factors units).
    """
    R, r, c, d = F.ring, F.rank, F.mult, F.comult
    alg = _algebra_flags(R, c)
    coalg = _algebra_flags(R, _transpose(d))
    flat = [x for dk in d for row in dk for x in row]  # d[k][a][b] at where[k][a][b]
    where = [[[(k * r + a) * r + b for b in range(r)] for a in range(r)] for k in range(r)]
    rows = _frobenius_rows(c, where, r**3)  # a generator: the test stops at a failed row

    return {
        "associative": alg["associative"],
        "commutative": alg["commutative"],
        "coassociative": coalg["associative"],
        "cocommutative": coalg["commutative"],
        "frobenius_relation": _vanish((sum(map(mul, row, flat)) for row in rows), R.p),
        "unit_ok": F.unit is not None,
        "counit_ok": F.counit is not None,
        "mult_surjective": alg["onto"],
        "comult_injective": coalg["full_rank"],
        "comult_split_injective": coalg["onto"],
    }


# ---------------------------------------------------------------------------
# The two-parameter rank-2 construction and its six-parameter cover
# ---------------------------------------------------------------------------


def a5(h, t, ring: RingSpec = ZZ) -> FrobeniusData:
    """Rank-2 data on basis (1, x) with x^2 = h x + t.

    Coproduct: 1 |-> 1(x)x + x(x)1 - h 1(x)1 and x |-> x(x)x + t 1(x)1;
    counit kills 1 and sends x to 1.  This is the six-parameter family at
    a = f = 1, c = e = 0.
    """
    return a4_evaluate((1, 0, 0, 1, h, t), ring)


def a4_evaluate(pt, ring: RingSpec = ZZ) -> FrobeniusData:
    """Evaluate the six-parameter family at (a, c, e, f, h, t).

    The parameters must satisfy a*e - c*f = 0 and a*f + c*h*f - c*e*t = 1;
    otherwise the point is rejected.
    """
    a, c, e, f, h, t = (ring.normalize(x) for x in pt)
    m = ring.p
    if not _vanish((a * e - c * f, a * f + c * h * f - c * e * t - 1), m):
        raise ValueError(
            "parameters must satisfy a*e = c*f and a*f + c*h*f - c*e*t = 1"
        )
    mult = (((1, 0), (0, 1)), ((0, 1), (t, h)))
    comult = (((e * t - h * f, f), (f, e)), ((f * t, e * t), (e * t, f + e * h)))
    # FrobeniusData reduces every entry; its unit reads (1, 0), its counit (-c, a)
    return FrobeniusData(ring, 2, mult, comult)


def invert_element(F: FrobeniusData, y: Sequence) -> Optional[tuple]:
    """Multiplicative inverse of y, by solving y*z = unit.

    In an associative algebra y*z = unit makes the map v |-> y*v invertible,
    so the solution is unique; over Z, nonassociative data whose solutions
    form a coset of a nontrivial kernel raise ValueError."""
    if F.unit is None:
        raise ValueError("algebra has no unit")
    basis = [[int(i == j) for i in range(F.rank)] for j in range(F.rank)]
    cols = [F.product(y, e) for e in basis]  # column j is y*e_j
    sol = _solve(F.ring, [[*row, u] for row, u in zip(zip(*cols), F.unit)], F.rank)
    return tuple(sol) if sol is not None else None


def twist(F: FrobeniusData, y: Sequence) -> FrobeniusData:
    """Replace the coproduct by v |-> coproduct of y^{-1}*v, keeping the
    product; on Frobenius data the counit solves to v |-> counit(y*v)."""
    r = F.rank
    yinv = invert_element(F, y)
    if yinv is None:
        raise ValueError("twisting element is not invertible")
    basis = [[int(i == j) for i in range(r)] for j in range(r)]
    splits = [F.coproduct(F.product(yinv, e)) for e in basis]
    comult = [[d[a * r : (a + 1) * r] for a in range(r)] for d in splits]
    return FrobeniusData(F.ring, r, F.mult, comult)


def dualize(F: FrobeniusData) -> FrobeniusData:
    """Swap the roles of product and coproduct (transpose the tensors), so
    unit and counit trade places."""
    return FrobeniusData(F.ring, F.rank, _transpose(F.comult), _transpose(_transpose(F.mult)))


# ---------------------------------------------------------------------------
# Tensor-power maps built from the product and the coproduct
# ---------------------------------------------------------------------------


def _cells(F: FrobeniusData, legs: int) -> list:
    """The nonzero structure constants of the product (legs 2) or of the
    coproduct (1), as (input bits, output bits, value): mult[x][y][s]
    reads (x, y) and writes s, comult[x][u][w] reads x and writes (u, w)."""
    t = F.mult if legs == 2 else F.comult
    return [(i[:legs], i[legs:], v) for i in itertools.product(range(F.rank), repeat=3)
            if (v := t[i[0]][i[1]][i[2]])]  # entries are ints or Fractions: nonzero is true


def _grading(F: FrobeniusData) -> Optional[tuple]:
    """Integer degrees of the basis elements under which every one of the
    ``_cells`` of F has degree -1: its output bits' degrees sum to its input
    bits' sum minus 1, so the product and the coproduct both lower the
    degree by 1.  The unique solution, or None when there is none or more
    than one."""
    r = F.rank
    eqs = {(*(out.count(b) - inp.count(b) for b in range(r)), -1)
           for inp, out, _ in _cells(F, 2) + _cells(F, 1)}
    try:
        sol = _solve(ZZ, list(map(list, sorted(eqs))), r)
    except ValueError:  # a kernel: the degrees are not unique
        return None
    return tuple(sol) if sol is not None else None


def _place(r: int, cells: list, n_in: int, src: tuple, dst: tuple) -> list:
    """The (row, col, value) offsets of every nonzero of the map
    A^(x)n_in -> A^(x)n_out, n_out = n_in - len(src) + len(dst), that reads
    local (input bits, output bits, value) cells at input positions src and
    writes them at output positions dst, in any order, with the identity on
    the other factors.  The sorted local cells repeat over the basis
    labellings of the untouched factors, which keep their order, first
    factor slowest; so each row meets one labelling and takes its cells in
    column order."""
    n_out = n_in - len(src) + len(dst)
    w_in = [r ** p for p in range(n_in - 1, -1, -1)]
    w_out = [r ** p for p in range(n_out - 1, -1, -1)]
    wi, wo = [w_in[p] for p in src], [w_out[p] for p in dst]
    placed = sorted([(sum(map(mul, wo, out)), sum(map(mul, wi, inp)), v) for inp, out, v in cells])
    kept = zip([w for p, w in enumerate(w_out) if p not in dst],
               [w for p, w in enumerate(w_in) if p not in src])
    for a, b in reversed([*kept]):  # from the last factor, so the first ends slowest
        # label 0 of this factor adds nothing: the cells so far are its block
        placed += [(ro + a * x, co + b * x, v) for x in range(1, r) for ro, co, v in placed]
    return placed


def generator_map(F: FrobeniusData, n_in: int, src: tuple, dst: tuple) -> ExactMatrix:
    """Matrix of the map A^(x)n_in -> A^(x)n_out of a cube edge's shape: the
    product reads two 0-based input positions src = (i, j) and writes output
    position dst = (k,), the coproduct reads src = (k,) and writes its first
    factor at dst[0], its second at dst[1]; the identity acts on the other
    factors, in order, and n_out = n_in - len(src) + len(dst)."""
    R, r, n_out = F.ring, F.rank, n_in - len(src) + len(dst)
    valid = lambda ps, n: len(set(ps)) == len(ps) and all(type(p) is int and 0 <= p < n for p in ps)
    if {len(src), len(dst)} != {1, 2} or not (valid(src, n_in) and valid(dst, n_out)):
        raise ValueError("a generator reads 2 distinct positions into 1 or 1 into 2, each in range")
    rows: list[list] = [[] for _ in range(r**n_out)]
    for a, b, v in _place(r, _cells(F, len(src)), n_in, src, dst):
        rows[a].append((b, v))
    return ExactMatrix(R, r**n_out, r**n_in, tuple(map(tuple, rows)))


def verify_n2cob_relations(F: FrobeniusData) -> dict:
    """Check the five defining relations of the cobordism category by
    composing generator matrices, independently of check_axioms.  The swap
    is no generator: (co)commutativity compares a merge reading (1, 0) with
    one reading (0, 1), and a split writing (1, 0) with one writing (0, 1)."""
    m, d = generator_map(F, 2, (0, 1), (0,)), generator_map(F, 1, (0,), (0, 1))
    m_id = generator_map(F, 3, (0, 1), (0,))  # m (x) 1
    id_m = generator_map(F, 3, (1, 2), (1,))  # 1 (x) m
    d_id = generator_map(F, 2, (0,), (0, 1))  # Delta (x) 1
    id_d = generator_map(F, 2, (1,), (1, 2))  # 1 (x) Delta
    # sparse rows hold only nonzeros, in column order: equal matrices are equal
    return {
        "associative": m @ m_id == m @ id_m,
        "commutative": generator_map(F, 2, (1, 0), (0,)) == m,
        "coassociative": d_id @ d == id_d @ d,
        "cocommutative": generator_map(F, 1, (0,), (1, 0)) == d,
        "frobenius": d @ m == m_id @ id_d == id_m @ d_id,
    }
