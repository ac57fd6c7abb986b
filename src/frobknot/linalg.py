"""Exact linear algebra over Z, Q, and F_p on sparse matrices.

A matrix stores the nonzeros of each row.  One sparse elimination per
matrix, cached on it, gives both the rank over the fraction field and the
invariant factors of the Smith normal form over Z: unit entries are
cancelled first (Bar-Natan's Gaussian-elimination lemma), starting with rows
whose only entry is a unit, which clear their column with no fill (the
structured Gaussian elimination of LaMacchia and Odlyzko), then entries that
divide their row and column, reached by remainders (Dumas, Saunders and
Villard's sparse Smith form); unit and remainder pivots share one
row-clearing step.  Also provides exact linear solving by one dense
Gauss-Jordan elimination on integer rows, fraction-free over Z and Q (a
cleared row is divided by its content) and on residues mod p, and homology
summands ker/im of a pair of composable differentials, which reduce d_out
without its columns at the rows of d_in's unit pivots.  Arbitrary-precision
integers throughout: over Q the elimination scales each row to a primitive
integer row, and ``complex.build_complex`` stores integers.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .rings import QQ, ZZ, RingSpec, Value


class ExactMatrix(Value):
    """Immutable sparse matrix over an exact ring.

    ``nz[i]`` lists the ``(col, value)`` nonzeros of row i in increasing
    column order; values are ``int`` over Z, ``int`` or ``Fraction`` over
    Q, residues in ``range(p)`` over F_p.  The constructor takes them as
    they are; ``from_rows`` normalizes dense user data.
    """

    _fields = ("ring", "rows", "cols", "nz")

    def __init__(self, ring: RingSpec, rows: int, cols: int, nz: tuple):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(nz) != rows:
            raise ValueError("row count does not match dimensions")
        for row in nz:  # columns increase along a row, so its ends bound every index
            if row and (row[0][0] < 0 or row[-1][0] >= cols):
                raise ValueError("column index out of range")
        super().__init__(ring, rows, cols, nz)

    @classmethod
    def from_rows(cls, ring: RingSpec, rows: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        nz = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            nz.append(tuple((j, x) for j, x in enumerate(map(ring.normalize, row)) if x))
        return cls(ring, r, c, tuple(nz))

    @property
    def entries(self) -> tuple:
        """Dense row-major view, with ring-typed zeros, built on each access
        (for display and tests: the homology path reads ``nz`` only)."""
        return tuple(itertools.chain.from_iterable(map(self.row, range(self.rows))))

    def row(self, i: int) -> tuple:
        out = [self.ring.zero] * self.cols
        for j, v in self.nz[i]:
            out[j] = v
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self.nz)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        p, b = self.ring.p, other.nz
        out = []
        for row in self.nz:
            acc: dict = {}
            for k, x in row:
                for j, v in b[k]:
                    acc[j] = acc.get(j, 0) + x * v
            if not p and not any(acc.values()):  # every sum cancels, as in each d∘d row over Z and Q
                out.append(())
                continue
            row = [(j, r) for j, s in acc.items() if (r := s % p if p else s)]
            out.append(tuple(sorted(row)) if row else ())
        return ExactMatrix(self.ring, self.rows, other.cols, tuple(out))

    @cached_property
    def _reduced(self) -> tuple:
        # (rank, torsion, unit pivot rows), computed on first use: rank,
        # smith_normal_form and homology_summands all read this one
        # reduction, which homology_summands may store first (see there)
        return _reduce(self)


def _clear(rows: dict, cols: dict, i: int, j: int, p) -> None:
    """Subtract from every other row k of column j the multiple of pivot row
    i that leaves the remainder of k's entry at j: mod p, or at a pivot of
    +-1, that clears it; over Z a floor quotient leaves an entry smaller
    than the pivot.  Emptied rows are dropped; ``cols`` follows each entry."""
    prow = rows[i]
    v = prow.pop(j)  # put back below: the loop updates the other columns
    inv = pow(v, -1, p) if p else v if v in (1, -1) else None  # a unit of Z is its own inverse
    left = {i}  # rows with an entry in column j afterwards
    for k in cols[j]:
        if k == i:
            continue
        rk = rows[k]
        f, r = divmod(rk.pop(j), v) if inv is None else (rk.pop(j) * inv, 0)
        if r:
            rk[j] = r
            left.add(k)
        for c, x in prow.items():
            y = rk.get(c, 0) - f * x
            if p:
                y %= p
            if y:
                if c not in rk:
                    cols[c].add(k)
                rk[c] = y
            else:
                del rk[c]
                cols[c].discard(k)
        if not rk:
            del rows[k]
    prow[j] = v
    cols[j] = left


def _reduce(M: ExactMatrix, skip=frozenset()) -> tuple:
    """(rank over the fraction field, invariant factors > 1 over Z, rows of
    the unit pivots) of M without its columns in ``skip``.

    One sparse elimination.  A pivot v at (i, j) that divides every entry
    of its row and column clears them, and row i and column j are dropped:
    the rank grows by 1 and |v| is a diagonal entry of an equivalent
    diagonal matrix.  Units go first.  A row whose only entry is a unit
    pivots with no row arithmetic, since clearing its column changes no
    other entry; rows left with one entry follow.  These pivots form a
    unit-triangular minor, so they change neither the rank nor the
    invariant factors, and their rows cover columns as every unit pivot's
    do (see ``homology_summands``).  The other units come from a column
    with the fewest entries and the shortest row with a unit there, and
    clear their column by row operations (``_clear``).  The units are +-1
    over Z and over Q, whose rows are scaled to primitive integer rows
    first; over F_p every nonzero entry is one, so nothing is left.  Then
    each column in turn pivots on a smallest entry: the same row operations,
    now with floor quotients, and column operations on row i once it is
    alone in column j, leave remainders, and a smallest one becomes the
    next pivot.  The torsion is () unless the ring is Z.
    """
    p, q = M.ring.p, M.ring == QQ
    rows: dict = {}
    for i, row in enumerate(M.nz):
        if skip:
            row = [x for x in row if x[0] not in skip]
        if row:
            if q:  # divided by its content, gcd(numerators) / lcm(denominators)
                g, d = gcd(*(v.numerator for _, v in row)), lcm(*(v.denominator for _, v in row))
                row = [(j, v.numerator // g * (d // v.denominator)) for j, v in row]
            rows[i] = dict(row)
    cols: dict = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    unit_rows = set()
    lone = [i for i, row in rows.items() if len(row) == 1]
    while lone:
        i = lone.pop()
        if i not in rows:
            continue  # emptied after it was queued
        (j, v), = rows[i].items()
        if not (p or v in (1, -1)):
            continue
        unit_rows.add(i)
        del rows[i]
        for k in cols.pop(j):
            if k != i:
                rk = rows[k]
                del rk[j]
                if len(rk) == 1:
                    lone.append(k)
                elif not rk:
                    del rows[k]
    heap = [(len(s), j) for j, s in cols.items()]
    heapq.heapify(heap)
    while heap:
        n, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != n:
            continue  # pivoted already, or queued again with its new count
        units = [i for i in col if p or rows[i][j] in (1, -1)]
        if not units:
            continue  # queued again if an elimination changes this column
        i = units[0] if len(units) == 1 else min(units, key=lambda i: len(rows[i]))
        _clear(rows, cols, i, j, p)
        unit_rows.add(i)
        for c in rows.pop(i):  # column j held only row i now, and is dropped
            cols[c].discard(i)
            if cols[c]:
                heapq.heappush(heap, (len(cols[c]), c))
            else:
                del cols[c]
    pivots = len(unit_rows)
    if not rows:
        return pivots, (), unit_rows
    # no unit is left anywhere: queue every column again
    heap = [(len(s), j) for j, s in cols.items()]
    heapq.heapify(heap)
    factors = []
    while heap:
        n, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != n:
            continue
        touched = set()
        while True:
            i = min(cols[j], key=lambda k: abs(rows[k][j]))
            prow = rows[i]
            v = prow[j]
            touched.update(prow)
            _clear(rows, cols, i, j, p)
            if len(cols[j]) > 1:
                continue  # a remainder is left in column j
            for c in prow.keys() - {j}:
                prow[c] %= v
                if not prow[c]:
                    del prow[c]
                    cols[c].discard(i)
            if len(prow) == 1:
                break
            j = min(prow, key=lambda c: abs(prow[c]))  # a remainder, not j
        del rows[i], cols[j]
        factors.append(abs(v))
        for c in touched:
            if cols.get(c):
                heapq.heappush(heap, (len(cols[c]), c))
            else:
                cols.pop(c, None)
    # diag(a, b) ~ diag(gcd, lcm): replace pairs of factors that do not
    # divide each other, all copies of a pair at once, until each factor
    # divides the next
    d = Counter(factors) if M.ring == ZZ else Counter()
    while pair := next(((a, b) for a in d for b in d if a % b and b % a), None):
        a, b = pair
        n = min(d[a], d[b])
        d = d - Counter({a: n, b: n}) + Counter({gcd(a, b): n, lcm(a, b): n})
    return pivots + len(factors), tuple(x for x in sorted(d.elements()) if x > 1), unit_rows


def smith_normal_form(M: ExactMatrix) -> tuple:
    """Invariant factors of an integer matrix: the min(rows, cols) diagonal
    entries of its Smith normal form, nonnegative, each dividing the next,
    zeros last.  Read off the matrix's cached reduction."""
    if M.ring != ZZ:
        raise ValueError("SNF requires integer matrix")
    r, torsion, _ = M._reduced
    return (1,) * (r - len(torsion)) + torsion + (0,) * (min(M.rows, M.cols) - r)


def rank(M: ExactMatrix) -> int:
    """Rank over the fraction field of the ring, from the matrix's cached
    reduction."""
    return M._reduced[0]


def _echelon(rows: list, cols: int, p: int) -> list:
    """Gauss-Jordan elimination in place on dense integer rows, over their
    first ``cols`` columns; returns the pivot columns, the k-th pivot in row
    k, which is the only row nonzero in that column.

    Mod a prime p the rows hold residues and each pivot row is scaled to
    pivot 1.  Over Z (p = 0) the elimination is fraction-free: a row with f
    in the column of a pivot v becomes v*row - f*pivot_row, then is divided
    by its content, so its entries stay small integers.
    """
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        if p:
            inv = pow(prow[c], -1, p)
            prow[:] = [x * inv % p for x in prow]
        v, nonzero = prow[c], [(j, x) for j, x in enumerate(prow) if x]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if p:
                    for j, x in nonzero:
                        row[j] = (row[j] - f * x) % p
                else:
                    row[:] = [v * y - f * x for y, x in zip(row, prow)]
                    if (g := gcd(*row)) > 1:
                        row[:] = [y // g for y in row]
        pivots.append(c)
    return pivots


def solve_linear(M: ExactMatrix, b: Sequence) -> list | None:
    """One exact solution of M x = b in the ring, or None.

    Gauss-Jordan elimination of [M | b] on integer rows (over Q each row is
    scaled to integers once); over a field, free unknowns are set to zero.
    Over Z the solution must be unique: it is returned when integral and
    None when not, and a consistent system with a nontrivial kernel raises
    ValueError, since its integer solutions need not include the rational
    one found.
    """
    if len(b) != M.rows:
        raise ValueError("dimension mismatch")
    R = M.ring
    return _solve(R, [list(M.row(i)) + [R.normalize(x)] for i, x in enumerate(b)], M.cols)


def _solve(R: RingSpec, m: list, cols: int) -> list | None:
    """``solve_linear`` on the dense augmented rows m = [M | b] of ring
    elements, as ``RingSpec.normalize`` gives them, with ``cols`` unknowns;
    m is eliminated in place."""
    if R == QQ:
        for row in m:
            d = lcm(*(x.denominator for x in row))
            row[:] = [x.numerator * (d // x.denominator) for x in row]
    pivots = _echelon(m, cols + 1, R.p)
    if pivots and pivots[-1] == cols:
        return None  # inconsistent
    if R != ZZ:  # over F_p every pivot is 1
        x = [R.zero] * cols
        for row, c in zip(m, pivots):
            x[c] = Fraction(row[-1], row[c]) if R == QQ else row[-1]
        return x
    if len(pivots) < cols:
        raise ValueError("integer solve of a system with a nontrivial kernel")
    if any(row[-1] % row[c] for row, c in zip(m, pivots)):
        return None
    return [row[-1] // row[c] for row, c in zip(m, pivots)]


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
    if "_reduced" not in vars(d_out):
        vars(d_out)["_reduced"] = _reduce(d_out, d_in._reduced[2])
    middle = d_out.cols
    r_out = rank(d_out)
    r_in = rank(d_in)
    return middle - r_out - r_in, list(d_in._reduced[1])
