"""Rank-2 algebra structure tables: associativity, units, idempotents,
surjectivity, and isomorphism classification over prime fields.

A table fixes the products of two generators e1, e2.  The commutative case
stores three products (e1e1, e1e2, e2e2); the noncommutative case four.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import mul

from .frobenius import _frobenius_rows, _vanish
from .linalg import _echelon
from .rings import RingSpec, Scalar, Value

Pair = tuple[Scalar, Scalar]


MAX_SEARCH_P = 13  # thm1.1, the slowest search, takes about a minute over F_13
MAX_ZBOUND = 40  # thm1.2 over the Z box [-40, 40]^6 takes about a minute


def _searchable(ring: RingSpec, what: str) -> RingSpec:
    """The prime field ring, checked before any exhaustive search over it:
    ValueError(what) off a prime field, the bound's message past MAX_SEARCH_P."""
    if ring.kind != "Fp":
        raise ValueError(what)
    if ring.p > MAX_SEARCH_P:
        raise ValueError(f"exhaustive search runs over F_p with p <= {MAX_SEARCH_P}, got p = {ring.p}")
    return ring


class MultTable(Value):
    _fields = ("ring", "e11", "e12", "e22", "e21")

    def __init__(self, ring: RingSpec, e11: Pair, e12: Pair, e22: Pair, e21: Pair | None = None):
        def norm(p):
            if not isinstance(p, (tuple, list)) or len(p) != 2:
                raise ValueError(f"a product must be a pair of scalars, got {p!r}")
            return (ring.normalize(p[0]), ring.normalize(p[1]))

        e11, e12, e22 = norm(e11), norm(e12), norm(e22)
        e21 = None if e21 is None else norm(e21)  # None means commutative: stored only when e2e1 != e1e2
        super().__init__(ring, e11, e12, e22, None if e21 == e12 else e21)

    @property
    def commutative(self) -> bool:
        return self.e21 is None

    def to_json(self) -> dict:
        named = (("e1e1", self.e11), ("e1e2", self.e12), ("e2e2", self.e22), ("e2e1", self.e21))
        prods = {k: list(map(str, v)) for k, v in named if v is not None}
        return {"ring": self.ring.to_json(), "commutative": self.commutative, "products": prods}

    @classmethod
    def from_json(cls, d: dict) -> "MultTable":
        ring = RingSpec.from_json(d["ring"])
        prods = d["products"]
        if not isinstance(prods, dict):
            raise ValueError('"products" must be an object')
        t = cls(ring, prods["e1e1"], prods["e1e2"], prods["e2e2"], prods.get("e2e1"))
        # a JSON boolean: 1 == True, but 1 is not True
        if d.get("commutative", t.commutative) is not t.commutative:
            raise ValueError('"commutative" must be true exactly when the products commute')
        return t


# ---------------------------------------------------------------------------
# Kernel on plain tuples t = (e11, e12, e21, e22) of coefficient pairs, a
# commutative table having e21 == e12.  m is p over F_p (entries in range(p))
# and 0 over Z and Q; Z and Q differ by scalar type (int or Fraction), as in
# rings.  The public functions below delegate here; the verifier's batteries
# call the kernel directly.
# ---------------------------------------------------------------------------

_TRIPLES = tuple(itertools.product(((1, 0), (0, 1)), repeat=3))


def _mul(t, u, v, m):
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = t
    x11, x12, x21, x22 = u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1]
    a = x11 * a1 + x12 * a2 + x21 * a3 + x22 * a4
    b = x11 * b1 + x12 * b2 + x21 * b3 + x22 * b4
    return (a % m, b % m) if m else (a, b)


def _associative(t, m) -> bool:
    (a1, b1), e12, e21, (a4, b4) = t
    if e12 == e21:  # commutative: the corner identities, written out
        a2, b2 = e12
        return _vanish(
            (
                b1 * a4 - a2 * b2,
                b1 * b4 - a2 * b1 - b2 * b2 + a1 * b2,
                (a1 - b2) * a4 + a2 * b4 - a2 * a2,
            ),
            m,
        )
    return all(
        _mul(t, _mul(t, x, y, m), z, m) == _mul(t, x, _mul(t, y, z, m), m) for x, y, z in _TRIPLES
    )


def _associative_comm_tables(entries, m):
    """Every associative commutative tuple (e11, e12, e12, e22) with entries
    in ``entries`` (range(p) with m = p, or a Z box with m = 0), in the
    lexicographic order of (e11, e12, e22).  With e11 = (a1, b1),
    e12 = (a2, b2) and e22 = (a4, b4) the corner identities are linear in e22:
        b1 a4 = a2 b2,  b1 b4 = a2 b1 + b2^2 - a1 b2,  (a1 - b2) a4 + a2 b4 = a2^2.
    Each (e11, e12) proposes the e22 they allow; _associative judges every
    proposal, so the case split can miss tables but never admit a wrong one.
    """

    def quot(n, d):  # n / d among the entries, or None; d is nonzero
        if m:
            return n * pow(d, -1, m) % m
        q, r = divmod(n, d)
        return q if not r and q in entries else None

    for a1, b1, a2, b2 in itertools.product(entries, repeat=4):
        e11, e12 = (a1, b1), (a2, b2)
        if b1:
            cands = ((quot(a2 * b2, b1), quot(a2 * b1 + b2 * b2 - a1 * b2, b1)),)
        elif b2 and (a2 or b2 != a1):  # a2 b2 or b2 (b2 - a1) is nonzero
            continue
        elif a2:
            cands = ((a4, quot(a2 * a2 - (a1 - b2) * a4, a2)) for a4 in entries)
        else:
            cands = itertools.product(entries, repeat=2)
        for e22 in cands:
            t = (e11, e12, e12, e22)
            if None not in e22 and _associative(t, m):
                yield t


def _associative_noncomm_tables(p):
    """Every associative noncommutative F_p tuple, in the lexicographic order
    of its eight entries.  With e11 = (a1, b1) and e22 = (a4, b4) the
    identities (e1 e1) e1 = e1 (e1 e1) and (e2 e2) e2 = e2 (e2 e2) read
    b1 (e21 - e12) = 0 and a4 (e12 - e21) = 0, so b1 = a4 = 0 when e12 != e21;
    _associative judges the remaining p^6 candidates."""
    for a1, a2, b2, a3, b3, b4 in itertools.product(range(p), repeat=6):
        t = ((a1, 0), (a2, b2), (a3, b3), (0, b4))
        if t[1] != t[2] and _associative(t, p):
            yield t


# d[k][i][j] = c[_D[k][i][j]] for the six unknowns c of a cocommutative d
_D = (((0, 1), (1, 2)), ((3, 4), (4, 5)))


def _frobenius_comults(t, p):
    """Every cocommutative coproduct over F_p that satisfies the Frobenius
    relation with the commutative F_p tuple t, as (d, dual) sorted by d:
    Delta(e_k) = sum d[k][i][j] e_i (x) e_j, and dual is the transposed tuple
    e_i e_j = (d[0][i][j], d[1][i][j]): associative exactly when d is
    coassociative, surjective exactly when d is injective, and its unit is
    the counit of d.  The relation (frobenius._frobenius_rows) is 32
    equations linear in the six unknowns of d; they are reduced mod p and
    their kernel enumerated, as the combinations of one basis vector per
    free unknown.

    When t has a unit, every member is coassociative: the relation gives
    Delta(a) = (a (x) 1) Delta(1) = Delta(1) (1 (x) a), so with
    Delta(1) = sum x_i (x) y_i both (Delta (x) 1) Delta(a) and
    (1 (x) Delta) Delta(a) are sum x_i (x) y_i x_j (x) y_j a.  A surjective
    t is unital, so it keeps all p^2 of its 2-dimensional kernel.  Without
    a unit a member need not be coassociative; the caller tests it."""
    rows = [[x % p for x in row] for row in _frobenius_rows((t[:2], t[2:]), _D, 6)]
    pivots = _echelon(rows, 6, p)
    free = [k for k in range(6) if k not in pivots]
    basis = [[int(k == f) for k in range(6)] for f in free]
    for b, f in zip(basis, free):
        for row, k in zip(rows, pivots):
            b[k] = -row[f] % p
    cols, out = [[b[k] for b in basis] for k in range(6)], []
    for vals in itertools.product(range(p), repeat=len(free)):
        a, b, e, f, g, h = (sum(map(mul, vals, col)) % p for col in cols)
        out.append(((((a, b), (b, e)), ((f, g), (g, h))), ((a, f), (b, g), (b, g), (e, h))))
    return sorted(out)


def _surjective(t, m) -> bool:
    """The multiplication A (x) A -> A is onto.  Over Z and F_p the gcd of m
    and the 2x2 minors of the 2x4 product matrix must be 1: over Z that gcd
    is d1*d2 of the Smith form.  A repeated column adds only zero or
    repeated minors, so a commutative tuple's e2e1 is left out."""
    cols = t if t[1] != t[2] else (t[0], t[1], t[3])
    minors = [a[0] * b[1] - a[1] * b[0] for a, b in itertools.combinations(cols, 2)]
    if type(minors[0]) is Fraction:  # Q: every nonzero minor is a unit
        return any(minors)
    return math.gcd(*minors, m) == 1


def _unit(t, m):
    """The two-sided unit u = x e1 + y e2, or None.

    Cramer's rule on the first nonsingular pair of the eight unit equations,
    then a check of all of them; on a commutative tuple the last four repeat
    the first four and are left out.  A unit is unique, so a system with no
    nonsingular pair has none.
    """
    (a11, b11), (a12, b12), (a21, b21), (a22, b22) = t
    rows = (  # x * c + y * d = r, from u e1 = e1, u e2 = e2, e1 u = e1, e2 u = e2
        (a11, a21, 1), (b11, b21, 0), (a12, a22, 0), (b12, b22, 1),
    )
    if t[1] != t[2]:
        rows += ((a11, a12, 1), (b11, b12, 0), (a21, a22, 0), (b21, b22, 1))
    for (c1, d1, r1), (c2, d2, r2) in itertools.combinations(rows, 2):
        det = c1 * d2 - c2 * d1
        if (det % m if m else det) != 0:
            break
    else:
        return None
    xn, yn = r1 * d2 - r2 * d1, c1 * r2 - c2 * r1
    if m:
        inv = pow(det, -1, m)
        u = (xn * inv % m, yn * inv % m)
    elif type(det) is Fraction:
        u = (xn / det, yn / det)
    else:  # Z: a floored quotient fails the check below unless it is exact
        u = (xn // det, yn // det)
    return u if _vanish([u[0] * c + u[1] * d - r for c, d, r in rows], m) else None


def _entries(t: MultTable):
    return (t.e11, t.e12, t.e12 if t.e21 is None else t.e21, t.e22)


def _table(ring: RingSpec, t) -> MultTable:
    """The MultTable of the kernel tuple t, the inverse of _entries."""
    return MultTable(ring, t[0], t[1], t[3], t[2])


def multiply(t: MultTable, u: Pair, v: Pair) -> Pair:
    """Bilinear extension of the table to arbitrary coefficient pairs."""
    n = t.ring.normalize
    return _mul(_entries(t), (n(u[0]), n(u[1])), (n(v[0]), n(v[1])), t.ring.p)


def is_associative(t: MultTable) -> bool:
    """Associativity of the bilinear extension.

    Commutative tables need only the two corner identities
    (e1 e1) e2 = e1 (e1 e2) and (e2 e2) e1 = e2 (e2 e1); noncommutative
    tables are checked on all eight basis triples.
    """
    return _associative(_entries(t), t.ring.p)


def find_unit(t: MultTable) -> Pair | None:
    """Two-sided unit, exact over Z, Q and F_p."""
    return _unit(_entries(t), t.ring.p)


def is_multiplication_surjective(t: MultTable) -> bool:
    return _surjective(_entries(t), t.ring.p)


def idempotents(t: MultTable) -> list[Pair]:
    """All nonzero v with v*v = v over F_p, p <= MAX_SEARCH_P, in
    lexicographic order: an exhaustive search."""
    p, t4 = _searchable(t.ring, "idempotent search runs over prime fields").p, _entries(t)
    return [v for v in itertools.product(range(p), repeat=2) if v != (0, 0) and _mul(t4, v, v, p) == v]


def _signature(t, p) -> tuple:
    """Isomorphism invariants of an F_p tuple: unital or not, and the
    numbers of nonzero idempotents and of nonzero square-zero elements."""
    idem = nil = -1  # v = 0 is both
    for v in itertools.product(range(p), repeat=2):
        sq = _mul(t, v, v, p)
        idem += sq == v
        nil += sq == (0, 0)
    return _unit(t, p) is not None, idem, nil


def _isomorphism(a, b, p):
    """The first g in GL_2(F_p), in lexicographic order of its entries, that
    transports the tuple a onto the tuple b, or None.

    With f0 = (g00, g10) and f1 = (g01, g11), g does so exactly when
    a(f_i, f_j) = b_ij[0] f0 + b_ij[1] f1 for the four products, an identity
    in e-coordinates that needs no inverse of g.  When b's e1e1 = (c0, c1)
    has c1 != 0, the product f0 f0 fixes f1 = (f0 f0 - c0 f0) / c1;
    otherwise it only filters f0, and f1 is scanned.
    """
    (c0, c1), *rest = b
    c1inv = pow(c1, -1, p) if c1 else 0
    for g00 in range(p):  # the first entry of g is its most significant
        found = []
        for g10 in range(p):
            f0 = (g00, g10)
            x, y = _mul(a, f0, f0, p)
            x, y = x - c0 * g00, y - c0 * g10
            if c1:
                f1s = ((x * c1inv % p, y * c1inv % p),)
            elif x % p or y % p:
                continue
            else:
                f1s = itertools.product(range(p), repeat=2)
            for f1 in f1s:
                g01, g11 = f1
                if (g00 * g11 - g01 * g10) % p and all(
                    _mul(a, u, v, p) == ((s * g00 + t * g01) % p, (s * g10 + t * g11) % p)
                    for (u, v), (s, t) in zip(((f0, f1), (f1, f0), (f1, f1)), rest)
                ):
                    found.append(((g00, g01), (g10, g11)))
        if found:
            return min(found)
    return None


def isomorphic(a: MultTable, b: MultTable):
    """The first base change g in GL_2(F_p), p <= MAX_SEARCH_P, in
    lexicographic order, carrying a onto b (the table of a in the basis
    f_j = g[0][j] e1 + g[1][j] e2 is b), or None."""
    what = "isomorphism search needs matching prime fields"
    if a.ring != b.ring:
        raise ValueError(what)
    return _isomorphism(_entries(a), _entries(b), _searchable(a.ring, what).p)


# ---------------------------------------------------------------------------
# Representative families
# ---------------------------------------------------------------------------


def _square(p, x) -> bool:
    """x is the square of a nonzero residue mod the prime p (Euler's criterion)."""
    return x % p != 0 and pow(x, (p - 1) // 2, p) == 1


def _pa(a2, b2, a4, b4):
    """The coefficients of the obstruction polynomial P_A in y, unreduced,
    the cubic's first.  At a4 = a2*b2 and b4 = a2 + b2^2 it is the
    root-obstruction polynomial P_R of the exceptional commutative family."""
    return (a4**2 - 4 * a2 * a4 * b2 + 4 * a2**2 * b4, 2 * a4 * b2 - 4 * a2**2 - 4 * a2 * b4,
            4 * a2 + b4, -1)


def _alike(associative: bool, unital: bool):
    """The statement of a family whose members are all stated alike."""
    return lambda p, *params: (associative, unital)


_HALF = Fraction(1, 2)  # MultTable rejects it over Z and F_2, where 2 is no unit

# label: (arity, params -> (e11, e12, e22[, e21]), side condition or None,
# statement or None).  A side condition side(p, *params) is a predicate on the
# parameters' residues, checked over F_p only.  A statement
# stated(p, *params) -> (associative, unital) is the paper's, on residues in
# range(p), and None where the paper states nothing.  classify's targets are
# the members stated associative, tried in row order.
_ODD = {
    "m6": (2, lambda a2, b2: ((1, 0), (a2, b2), (0, 1)),
           None, lambda p, a2, b2: ((a2, b2) in ((0, 0), (0, 1), (1, 0)),) * 2),
    "m7": (0, lambda: ((1, 0), (1, _HALF), (0, 0)), None, _alike(False, False)),
    "m8": (0, lambda: ((1, 0), (0, _HALF), (1, 0)), None, _alike(False, False)),
    "m9": (1, lambda b2: ((1, 0), (0, b2), (0, 0)),  # b2 != 1/2
           lambda p, b2: 2 * b2 % p != 1, lambda p, b2: (b2 in (0, 1), b2 == 1)),
    "m10": (1, lambda a4: ((1, 0), (1, 0), (a4, 0)), None, lambda p, a4: (a4 == 1, False)),
    "m11": (0, lambda: ((1, 0), (0, 0), (1, 0)), None, _alike(False, False)),
    "m12": (0, lambda: ((1, 0), (0, 0), (0, 0)), None, _alike(True, False)),
    "m13": (0, lambda: ((0, 1), (0, 1), (0, 0)), None, None),
    "m14": (0, lambda: ((0, 1), (0, 0), (0, 0)), None, _alike(True, False)),
    "m15": (0, lambda: ((0, 1), (-2, 3), (-8, 8)), None, _alike(False, False)),
    "m16": (0, lambda: ((0, 0), (1, 0), (0, 0)), None, _alike(False, False)),
    "m17": (0, lambda: ((0, 0), (0, 0), (0, 0)), None, _alike(True, False)),
    # lambda2 and 1 - 2*beta2 are nonresidues; 2*alpha2 + 1 is a nonzero nonresidue
    "m8_1R": (1, lambda l2: ((1, 0), (0, _HALF), (l2, 0)),
              lambda p, l2: not _square(p, l2), _alike(False, False)),
    "m8_2R": (2, lambda b2, l2: ((1, 0), (0, b2), (l2, 0)),
              lambda p, b2, l2: not _square(p, l2) and not _square(p, 1 - 2 * b2),
              lambda p, b2, l2: (b2 == 1, b2 == 1)),
    "m11R": (1, lambda l2: ((1, 0), (0, 0), (l2, 0)),
             lambda p, l2: not _square(p, l2), lambda p, l2: (l2 == 0, False)),
    "m14_1R": (1, lambda a2: ((1, 0), (a2, 1), (0, 0)),
               lambda p, a2: (2 * a2 + 1) % p != 0 and not _square(p, 2 * a2 + 1), _alike(False, False)),
    "m14_2R": (1, lambda a2: ((1, 0), (a2, 0), (0, 0)),
               lambda p, a2: (2 * a2 + 1) % p != 0 and not _square(p, 2 * a2 + 1), _alike(False, False)),
    "m15_1R": (4, lambda a2, b2, a4, b4: ((0, 1), (a2, b2), (a4, b4)),
               # P_A has no root: its coefficients reduced once per member, then Horner at each y
               lambda p, *params: all((((c3 * y + c2) * y + c1) * y + c0) % p for c3, c2, c1, c0
                                      in [[c % p for c in _pa(*params)]] for y in range(p)),
               lambda p, a2, b2, a4, b4: (a4 == a2 * b2 % p and b4 == (a2 + b2 * b2) % p, False)),
}
_CHAR2 = {
    "m2_1": (0, lambda: ((1, 0), (0, 1), (0, 1)), None, _alike(True, True)),
    "m2_2": (0, lambda: ((1, 0), (0, 0), (0, 0)), None, _alike(True, False)),
    "m2_3": (0, lambda: ((1, 0), (0, 0), (0, 1)), None, _alike(True, True)),
    "m2_4": (1, lambda a4: ((1, 0), (0, 1), (a4, 0)), None, _alike(True, True)),
    "m2_5": (1, lambda a4: ((1, 0), (0, 1), (a4, 1)),  # x^2 + x + alpha4 has no root outside {0, 1}
             lambda p, a4: all((x * x + x + a4) % p for x in range(2, p)), _alike(True, True)),
    "m2_6": (0, lambda: ((0, 1), (0, 0), (0, 0)), None, _alike(True, False)),
    "m2_7": (0, lambda: ((0, 0), (0, 0), (0, 0)), None, _alike(True, False)),
    "m2R": (2, lambda a2, b2: ((0, 1), (a2, b2), (a2 * b2, a2 + b2 * b2)),
            # 1 + (alpha2 + beta2^2) y + (alpha2 beta2)^2 y^3 has no root
            lambda p, a2, b2: all((1 + (a2 + b2 * b2) * y + (a2 * b2) ** 2 * y**3) % p for y in range(p)),
            _alike(True, False)),
}
# Not in the paper: F_{p^2} = F_p[x]/(x^2 - n) at a nonresidue n, which m8_2R
# covers only where -1 is a nonresidue (p = 3 mod 4).  Not an _ODD row, since
# prop3.4 sweeps the paper's statements.  n = 0, which _square calls a
# nonsquare, would give F_p[x]/x^2.
_FIELD = {
    "Fp2": (1, lambda n: ((1, 0), (0, 1), (n, 0)),
            lambda p, n: n % p != 0 and not _square(p, n), _alike(True, True)),
}
_FAMILIES = {
    **_ODD,
    **_FIELD,
    **_CHAR2,
    # noncommutative targets
    "nc_left": (0, lambda: ((0, 0), (0, 0), (0, 1), (1, 0)), None, None),
    "nc_right": (0, lambda: ((0, 0), (1, 0), (0, 1), (0, 0)), None, None),
}


def _member(label: str, params: tuple, ring: RingSpec) -> MultTable | None:
    """A family's member at normalized params, or None where a side condition excludes it."""
    _, products, side, _ = _FAMILIES[label]
    if side and ring.kind == "Fp" and not side(ring.p, *params):
        return None
    return MultTable(ring, *products(*params))


def representative(label: str, params: tuple, ring: RingSpec) -> MultTable:
    """Instantiate a named representative family over the given ring.

    Side conditions carried by a family (nonresidue parameters, rootless
    polynomials) are checked at instantiation time over prime fields.  An
    unknown label, a wrong number of parameters and a failed side condition
    raise ValueError, as does a family with 1/2 over Z or F_2.
    """
    if label not in _FAMILIES:
        raise ValueError(f"unknown family {label!r}")
    if len(params) != _FAMILIES[label][0]:
        raise ValueError(f"family {label} takes {_FAMILIES[label][0]} parameters, got {len(params)}")
    params = tuple(map(ring.normalize, params))
    if (t := _member(label, params, ring)) is None:
        raise ValueError(f"family {label} excludes {params} over {ring}: side condition fails")
    return t


def _classification_targets(ring: RingSpec):
    """Canonical (label, params, kernel tuple) of the representatives of
    associative commutative F_p tables, in order: each member of the ring's
    characteristic's families, in row and parameter order, that its
    statement calls associative and its side conditions admit."""
    p = ring.p
    for label, (arity, _, _, stated) in (_CHAR2 if p == 2 else _ODD | _FIELD).items():
        for params in itertools.product(range(p), repeat=arity):
            if stated and stated(p, *params)[0] and (t := _member(label, params, ring)) is not None:
                yield label, params, _entries(t)


@functools.cache  # built on the first classify over a prime, then shared
def _signed_targets(ring: RingSpec) -> dict:
    """_signature -> (label, params) of the first classification target with it."""
    targets = reversed(list(_classification_targets(ring)))  # the first target's write lands last
    return {_signature(rep, ring.p): (label, params) for label, params, rep in targets}


def classify(t: MultTable) -> tuple[str, tuple]:
    """The first target, in _classification_targets order, isomorphic to an
    associative commutative F_p table.  Such a table is F_p x F_p, F_p[x]/x^2
    or F_{p^2} if unital, else (Theorem 1.2) F_p x 0, x^2 = y or zero; the
    README shows _signature tells the six apart and every prime has a target
    of each, so the first target with the table's signature is the answer."""
    p, t4 = _searchable(t.ring, "classification runs over prime fields").p, _entries(t)
    if t4[1] != t4[2] or not _associative(t4, p):
        raise ValueError("classification expects an associative commutative table")
    return _signed_targets(t.ring)[_signature(t4, p)]
