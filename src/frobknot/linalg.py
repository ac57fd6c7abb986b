"""Exact linear algebra over Z, Q, and F_p on dense matrices.

Provides the invariant factors of the Smith normal form (arbitrary-precision
integers throughout), rank over the fraction field, exact linear solving by
elimination over the fraction field, and homology summands ker/im of a pair
of composable differentials.  The product and the rank skip zero cells,
since differentials are mostly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .rings import QQ, ZZ, RingSpec


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix with row-major entries over an exact ring."""

    ring: RingSpec
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, ring: RingSpec, rows: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ents = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            ents.extend(ring.normalize(x) for x in row)
        return cls(ring, r, c, tuple(ents))

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        R = self.ring
        zero, m, n = R.zero, self.cols, other.cols
        b = other.entries
        b_rows = [[(j, v) for j, v in enumerate(b[k * n : (k + 1) * n]) if v] for k in range(m)]
        out = [zero] * (self.rows * n)
        for i in range(self.rows):
            acc: dict = {}
            for k, a in enumerate(self.entries[i * m : (i + 1) * m]):
                if a:
                    for j, v in b_rows[k]:
                        acc[j] = R.add(acc.get(j, zero), R.mul(a, v))
            for j, s in acc.items():
                out[i * n + j] = s
        return ExactMatrix(R, self.rows, n, tuple(out))

    def mul_vector(self, v: Sequence) -> list:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        R = self.ring
        v = [R.normalize(x) for x in v]
        out = []
        for i in range(self.rows):
            s = R.zero
            ri = self.row(i)
            for k in range(self.cols):
                s = R.add(s, R.mul(ri[k], v[k]))
            out.append(s)
        return out


def _min_abs_pivot(m: list, t: int, rows: int, cols: int) -> Optional[tuple]:
    """Smallest-absolute-value nonzero entry of m[t:, t:], row-major tie-break."""
    best = None
    for i in range(t, rows):
        mi = m[i]
        for j in range(t, cols):
            v = mi[j]
            if v != 0 and (best is None or abs(v) < abs(best[2])):
                best = (i, j, v)
                if abs(v) == 1:
                    return best
    return best


def smith_normal_form(M: ExactMatrix) -> tuple:
    """Invariant factors of an integer matrix: the min(rows, cols) diagonal
    entries of its Smith normal form, nonnegative, each dividing the next,
    zeros last.

    Deterministic: pivot is the smallest-absolute-value nonzero entry of the
    remaining block, scanned row-major.
    """
    if M.ring != ZZ:
        raise ValueError("SNF requires integer matrix")
    rows, cols = M.rows, M.cols
    m = M.to_lists()

    def swap_cols(j, k):
        for r in m:
            r[j], r[k] = r[k], r[j]

    def addmul_row(dst, src, q):
        # row_dst -= q * row_src
        md, ms = m[dst], m[src]
        for j in range(cols):
            md[j] -= q * ms[j]

    def addmul_col(dst, src, q):
        for r in m:
            r[dst] -= q * r[src]

    t = 0
    n = min(rows, cols)
    while t < n:
        piv = _min_abs_pivot(m, t, rows, cols)
        if piv is None:
            break
        while True:
            i, j, _ = piv
            if i != t:
                m[t], m[i] = m[i], m[t]
            if j != t:
                swap_cols(t, j)
            p = m[t][t]
            done = True
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // p
                    addmul_row(i, t, q)
                    if m[i][t] != 0:
                        done = False
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // p
                    addmul_col(j, t, q)
                    if m[t][j] != 0:
                        done = False
            if done:
                break
            piv = _min_abs_pivot(m, t, rows, cols)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a, b = m[i][i], m[i + 1][i + 1]
            if a != 0 and b % a != 0:
                changed = True
                # fold b into the block and rediagonalize the 2x2 corner
                addmul_col(i, i + 1, -1)  # col_i += col_{i+1}
                while m[i + 1][i] != 0 or m[i][i + 1] != 0:
                    if m[i + 1][i] != 0:
                        if abs(m[i + 1][i]) < abs(m[i][i]) or m[i][i] == 0:
                            m[i], m[i + 1] = m[i + 1], m[i]
                        if m[i + 1][i] != 0:
                            addmul_row(i + 1, i, m[i + 1][i] // m[i][i])
                    if m[i][i + 1] != 0:
                        if abs(m[i][i + 1]) < abs(m[i][i]) or m[i][i] == 0:
                            swap_cols(i, i + 1)
                        if m[i][i + 1] != 0:
                            addmul_col(i + 1, i, m[i][i + 1] // m[i][i])

    # zeros sort to the end automatically: a zero pivot means the rest is zero
    return tuple(abs(m[i][i]) for i in range(n))


def _to_field(M: ExactMatrix) -> tuple[RingSpec, list]:
    """Lift to the fraction field (Z -> Q); fields pass through."""
    if M.ring == ZZ:
        return QQ, [[Fraction(x) for x in M.row(i)] for i in range(M.rows)]
    return M.ring, M.to_lists()


def _row_echelon(ring: RingSpec, m: list, cols: int) -> list:
    """In-place reduction to reduced echelon form; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ring.inv(m[r][c])
        m[r] = [ring.mul(inv, x) for x in m[r]]
        nonzero = [(j, x) for j, x in enumerate(m[r]) if x]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                for j, x in nonzero:
                    row[j] = ring.sub(row[j], ring.mul(f, x))
        pivots.append(c)
        r += 1
    return pivots


def _eliminate(row: dict, piv: dict, c: int, p: Optional[int]) -> dict:
    """a*row - b*piv with column c cleared: mod p with piv[c] == 1 over F_p,
    else fraction-free over Z with the result's content divided out."""
    a, b = piv[c], row[c]
    if not p:
        g = gcd(a, b)
        a, b = a // g, b // g
    out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in piv.items():
        x = out.get(j, 0) - b * v
        if p:
            x %= p
        if x:
            out[j] = x
        else:
            del out[j]
    return out if p else _primitive(out)


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def rank(M: ExactMatrix) -> int:
    """Rank over the fraction field of the ring.

    Sparse forward elimination: each row, as a {col: value} dict of its
    nonzeros, is reduced against the pivot rows kept so far, keyed by
    leading column.  Over Q rows are scaled to integers, so Z and Q take the
    same fraction-free integer steps; F_p works on residues.
    """
    p, over_q = M.ring.p, M.ring == QQ
    pivots: dict = {}
    for i in range(M.rows):
        row = {j: v for j, v in enumerate(M.row(i)) if v}
        if over_q:
            den = lcm(*(v.denominator for v in row.values()))
            row = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
        if not p:
            row = _primitive(row)
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                if p:
                    inv = pow(row[c], -1, p)
                    row = {j: v * inv % p for j, v in row.items()}
                pivots[c] = row
                break
            row = _eliminate(row, piv, c, p)
    return len(pivots)


def solve_linear(M: ExactMatrix, b: Sequence) -> Optional[list]:
    """One exact solution of M x = b in the ring, or None.

    Gauss-Jordan elimination of [M | b] over the fraction field; over a
    field, free unknowns are set to zero.  Over Z the solution must be
    unique: it is returned when integral and None when not, and a consistent
    system with a nontrivial kernel raises ValueError, since its integer
    solutions need not include the rational one found.
    """
    if len(b) != M.rows:
        raise ValueError("dimension mismatch")
    field, m = _to_field(M)
    for row, x in zip(m, b):
        row.append(field.normalize(M.ring.normalize(x)))
    pivots = _row_echelon(field, m, M.cols + 1)
    if pivots and pivots[-1] == M.cols:
        return None  # inconsistent
    x = [field.zero] * M.cols
    for r, c in enumerate(pivots):
        x[c] = m[r][M.cols]
    if M.ring != ZZ:
        return x
    if len(pivots) < M.cols:
        raise ValueError("integer solve of a system with a nontrivial kernel")
    return [v.numerator for v in x] if all(v.denominator == 1 for v in x) else None


def homology_summands(d_in: ExactMatrix, d_out: ExactMatrix) -> tuple[int, list]:
    """Free rank and torsion of ker(d_out)/im(d_in).

    ``d_in`` maps into the middle module, ``d_out`` maps out of it; the
    composition must vanish.  Over a field the torsion list is empty.
    """
    if d_in.ring != d_out.ring:
        raise ValueError("ring mismatch")
    if d_out.cols != d_in.rows:
        raise ValueError("middle module dimension mismatch")
    if d_out.rows and d_in.cols and not (d_out @ d_in).is_zero():
        raise ValueError("not a complex at this degree")
    middle = d_out.cols
    r_out = rank(d_out)
    r_in = rank(d_in)
    free = middle - r_out - r_in
    torsion: list = []
    if d_in.ring == ZZ and d_in.rows and d_in.cols:
        torsion = [d for d in smith_normal_form(d_in) if d > 1]
    return free, torsion
