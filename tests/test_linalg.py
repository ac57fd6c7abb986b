import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frobknot.linalg import (
    ExactMatrix,
    _reduce,
    homology_summands,
    rank,
    smith_normal_form,
    solve_linear,
)
from frobknot.rings import QQ, ZZ, GF

small_int_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_snf_known_matrix():
    # gcd of entries 2; gcd of 2x2 minors 4; |det| 624 -> diagonal (2,2,156)
    M = ExactMatrix.from_rows(ZZ, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_normal_form(M) == (2, 2, 156)


def test_snf_rejects_field_matrix():
    M = ExactMatrix.from_rows(GF(3), [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        smith_normal_form(M)


@settings(max_examples=150, deadline=None)
@given(small_int_matrices)
def test_snf_diagonal_and_divisibility(rows):
    M = ExactMatrix.from_rows(ZZ, rows)
    d = smith_normal_form(M)
    assert len(d) == min(M.rows, M.cols)
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    # independent oracle
    oracle = sympy_snf(sympy.Matrix(rows))
    odiag = [abs(oracle[i, i]) for i in range(min(M.rows, M.cols))]
    assert sorted(x for x in d if x) == sorted(x for x in odiag if x)


@settings(max_examples=150, deadline=None)
@given(small_int_matrices)
def test_rank_matches_sympy(rows):
    M = ExactMatrix.from_rows(ZZ, rows)
    assert rank(M) == sympy.Matrix(rows).rank()


def _sparse_rows(rnd, R, rows, cols):
    """5-40 % fill, entries up to +-50 (Q: denominators 1-5); with three or
    more rows, the last is a sum of earlier ones (fill-in) and the one
    before it a multiple of the first by a large content."""
    fill = rnd.randint(5, 40)
    out = []
    for _ in range(rows):
        row = [rnd.randint(-50, 50) if rnd.randint(1, 100) <= fill else 0 for _ in range(cols)]
        if R == QQ:
            row = [Fraction(x, rnd.randint(1, 5)) for x in row]
        out.append(row)
    if rows >= 3:
        k = rnd.choice([2**20, 3 * 10**6, 7**9])
        out[-2] = [k * x for x in out[0]]
        out[-1] = [sum(col[:-2]) for col in zip(*out)]
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([ZZ, QQ, GF(2), GF(3), GF(7)]),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(1, 12),
    st.randoms(use_true_random=False),
)
def test_sparse_rank_and_product_match_sympy(R, r, m, c, rnd):
    a_rows, b_rows = _sparse_rows(rnd, R, r, m), _sparse_rows(rnd, R, m, c)
    A, B = ExactMatrix.from_rows(R, a_rows), ExactMatrix.from_rows(R, b_rows)
    product = sympy.Matrix(a_rows) * sympy.Matrix(b_rows)
    if R.kind == "Fp":
        K = sympy.GF(R.p)
        for rows, M in ((a_rows, A), (b_rows, B)):
            assert rank(M) == DomainMatrix.from_list(rows, K).rank()
        expect = [(int, int(x) % R.p) for x in product]
    else:
        for rows, M in ((a_rows, A), (b_rows, B)):
            assert rank(M) == sympy.Matrix(rows).rank()
        expect = [
            (Fraction, Fraction(int(x.p), int(x.q))) if R == QQ else (int, int(x))
            for x in product
        ]
    got = A @ B
    assert (got.rows, got.cols) == (r, c)
    assert [(type(x), x) for x in got.entries] == expect


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["integral", "fractional right", "fractional left", "fractional both"]),
    st.integers(1, 10),
    st.integers(1, 10),
    st.integers(1, 10),
    st.randoms(use_true_random=False),
)
def test_rational_products_and_ranks_match_sympy(case, r, m, c, rnd):
    """Over Q, a product of Fraction matrices multiplies the entries as they
    are, and a reduction scales each row to a primitive integer row, with
    denominators that may differ from row to row.  Products and ranks are
    interleaved, A @ B, rank(A), T @ A, A @ B, so that neither leaves
    anything on a matrix that the next one reads.  Every cell must be a
    Fraction of the right value, and the factors keep their Fractions."""
    integral = lambda rows, cols: [[Fraction(x) for x in row] for row in _sparse_rows(rnd, ZZ, rows, cols)]
    fractional = lambda rows, cols: _sparse_rows(rnd, QQ, rows, cols)
    left, right = {
        "integral": (integral, integral),
        "fractional right": (integral, fractional),
        "fractional left": (fractional, integral),
        "fractional both": (fractional, fractional),  # denominators differ per row
    }[case]
    t_rows, a_rows, b_rows = left(c, r), left(r, m), right(m, c)
    T, A, B = (ExactMatrix.from_rows(QQ, rows) for rows in (t_rows, a_rows, b_rows))

    def check(got, x_rows, y_rows):
        product = sympy.Matrix(x_rows) * sympy.Matrix(y_rows)
        assert [(type(x), x) for x in got.entries] == [
            (Fraction, Fraction(int(x.p), int(x.q))) for x in product
        ]

    check(A @ B, a_rows, b_rows)
    assert rank(A) == sympy.Matrix(a_rows).rank()
    check(T @ A, t_rows, a_rows)
    check(A @ B, a_rows, b_rows)
    for rows, M in ((t_rows, T), (b_rows, B)):
        assert rank(M) == sympy.Matrix(rows).rank()
    assert all(type(x) is Fraction for M in (T, A, B) for row in M.nz for _, x in row)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 25), st.integers(1, 25), st.integers(3, 40), st.randoms(use_true_random=False))
def test_one_reduction_matches_sympy(r, c, fill, rnd):
    """Mostly 0 and +-1 with some +-2 and +-3, so that unit cancellation
    makes fill-in and leaves a residue for the Smith loop.  The Q copy
    divides each row by 1-4, which its reduction must scale back."""
    scalars = (1, -1, 1, -1, 1, -1, 2, -2, 3, -3)
    rows = [[rnd.choice(scalars) if rnd.randint(1, 100) <= fill else 0 for _ in range(c)] for _ in range(r)]
    d = smith_normal_form(ExactMatrix.from_rows(ZZ, rows))
    oracle = sympy_snf(sympy.Matrix(rows))
    odiag = [abs(oracle[i, i]) for i in range(min(r, c))]
    assert sorted(x for x in d if x) == sorted(x for x in odiag if x)
    assert all((a == 0 and b == 0) or (a and b % a == 0) for a, b in zip(d, d[1:]))
    true_rank = sympy.Matrix(rows).rank()
    assert rank(ExactMatrix.from_rows(ZZ, rows)) == true_rank == sum(1 for x in d if x)
    q_rows = [[Fraction(x, k) for x in row] for row, k in zip(rows, (rnd.randint(1, 4) for _ in rows))]
    assert rank(ExactMatrix.from_rows(QQ, q_rows)) == true_rank
    for p in (2, 3):
        assert rank(ExactMatrix.from_rows(GF(p), rows)) == DomainMatrix.from_list(rows, sympy.GF(p)).rank()


def test_reduction_of_a_matrix_with_no_unit_entry():
    # the block [[2, 3], [3, 2]] has invariant factors (1, 5); with 4 beside
    # it the chain is (1, 1, 20).  No entry is a unit over Z, so every pivot
    # is reached by remainders; over Q the row (0, 0, 4) scales to (0, 0, 1).
    rows = [[2, 3, 0], [3, 2, 0], [0, 0, 4]]
    assert smith_normal_form(ExactMatrix.from_rows(ZZ, rows)) == (1, 1, 20)
    assert rank(ExactMatrix.from_rows(QQ, rows)) == 3
    assert [rank(ExactMatrix.from_rows(GF(p), rows)) for p in (2, 3, 5)] == [2, 3, 2]


def test_reduction_of_a_signed_permutation_matrix():
    # units everywhere: cancellation alone
    perm, signs = (3, 0, 4, 1, 5, 2), (1, -1, -1, 1, 1, -1)
    rows = [[signs[i] if j == perm[i] else 0 for j in range(6)] for i in range(6)]
    for R in (ZZ, QQ, GF(2), GF(3)):
        assert rank(ExactMatrix.from_rows(R, rows)) == 6
    assert smith_normal_form(ExactMatrix.from_rows(ZZ, rows)) == (1,) * 6


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14), st.integers(1, 14), st.integers(10, 70), st.randoms(use_true_random=False))
def test_reduction_without_units_matches_sympy(r, c, fill, rnd):
    """No entry is a unit, so every pivot is reached by remainders, in rows
    and in columns; some rows carry a large content on top."""
    scalars = (2, -2, 3, -3, 4, -4, 6, -6, 9, -9)
    rows = [[rnd.choice(scalars) if rnd.randint(1, 100) <= fill else 0 for _ in range(c)] for _ in range(r)]
    rows = [[k * x for x in row] for row, k in zip(rows, (rnd.choice((1, 1, 1, 2**20, 3**13)) for _ in rows))]
    d = smith_normal_form(ExactMatrix.from_rows(ZZ, rows))
    oracle = sympy_snf(sympy.Matrix(rows))
    odiag = [abs(oracle[i, i]) for i in range(min(r, c))]
    assert sorted(x for x in d if x) == sorted(x for x in odiag if x)
    assert all((a == 0 and b == 0) or (a and b % a == 0) for a, b in zip(d, d[1:]))
    assert rank(ExactMatrix.from_rows(QQ, rows)) == sympy.Matrix(rows).rank() == sum(1 for x in d if x)
    for p in (2, 3):
        assert rank(ExactMatrix.from_rows(GF(p), rows)) == DomainMatrix.from_list(rows, sympy.GF(p)).rank()


def _with_lone_rows(rnd, R, r, c):
    """Sparse rows with entries +-1, 2 and -3, and up to r more rows that
    hold one entry: +-1, or the non-units 2 and -3 over Z, many of them in
    one column.  Clearing a column may leave more rows with one entry.  The
    Q copy divides each row by 1-6, so its lone entries are fractions."""
    rows = [[rnd.choice((1, -1, 2, -3)) if rnd.randint(1, 100) <= 25 else 0 for _ in range(c)] for _ in range(r)]
    hot = rnd.randrange(c)
    for _ in range(rnd.randint(1, r)):
        row = [0] * c
        row[hot if rnd.randint(0, 2) else rnd.randrange(c)] = rnd.choice((1, -1, 1, -1, 2, -3))
        rows.insert(rnd.randint(0, len(rows)), row)
    if R == QQ:
        rows = [[Fraction(x, k) for x in row] for row, k in zip(rows, (rnd.randint(1, 6) for _ in rows))]
    return rows


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([ZZ, QQ, GF(2), GF(3), GF(5)]),
    st.integers(1, 12),
    st.integers(1, 12),
    st.randoms(use_true_random=False),
)
def test_rows_with_one_entry_match_sympy(R, r, c, rnd):
    """A row whose only entry is a unit pivots before the Markowitz loop;
    a lone non-unit over Z must wait for the remainder phase, or its
    invariant factor is lost."""
    rows = _with_lone_rows(rnd, R, r, c)
    M = ExactMatrix.from_rows(R, rows)
    if R.p:
        assert rank(M) == DomainMatrix.from_list(rows, sympy.GF(R.p)).rank()
    else:
        assert rank(M) == sympy.Matrix(rows).rank()
    if R == ZZ:
        oracle = sympy_snf(sympy.Matrix(rows))
        odiag = [abs(oracle[i, i]) for i in range(min(M.rows, M.cols))]
        assert smith_normal_form(M) == tuple(sorted(x for x in odiag if x)) + (0,) * odiag.count(0)


def test_lone_non_units_keep_their_factors():
    # rows (2, 0, 0) and (0, -3, 0) hold one entry each, but neither is a
    # unit: the determinant is -6, and clearing columns 0 and 1 with them
    # would leave the lone unit 1 and the diagonal (1, 1, 1)
    rows = [[2, 0, 0], [0, -3, 0], [1, 1, 1]]
    assert smith_normal_form(ExactMatrix.from_rows(ZZ, rows)) == (1, 1, 6)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
)
def test_solve_linear_round_trip_over_z(mat_vec, rows, x):
    assume(sympy.Matrix(rows).det() != 0)
    M = ExactMatrix.from_rows(ZZ, rows)
    b = mat_vec(M, x)
    assert solve_linear(M, b) == x


def test_solve_linear_over_z_rejects_a_kernel():
    # consistent but singular: x = (1, 0) and x = (0, 1) both solve it
    M = ExactMatrix.from_rows(ZZ, [[1, 1], [2, 2]])
    with pytest.raises(ValueError):
        solve_linear(M, [1, 2])
    assert solve_linear(M, [1, 3]) is None  # inconsistent: no kernel question


def test_solve_linear_no_integer_solution():
    M = ExactMatrix.from_rows(ZZ, [[2]])
    assert solve_linear(M, [1]) is None
    assert solve_linear(M, [4]) == [2]


def test_solve_linear_inconsistent_over_field():
    M = ExactMatrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert solve_linear(M, [1, 2]) is None


@st.composite
def _systems(draw):
    """(ring, rows, b) over Z, Q, F_3 or F_5; a dependent last row and a
    right side in the image make kernels and consistent systems common."""
    ring = draw(st.sampled_from((ZZ, QQ, GF(3), GF(5))))
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ent = st.fractions(-4, 4, max_denominator=3) if ring == QQ else st.integers(-4, 4)
    rows = draw(st.lists(st.lists(ent, min_size=c, max_size=c), min_size=r, max_size=r))
    if r > 1 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        rows[-1] = [k * x + y for x, y in zip(rows[0], rows[1])]
    if draw(st.booleans()):
        x = draw(st.lists(ent, min_size=c, max_size=c))
        b = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        b = draw(st.lists(ent, min_size=r, max_size=r))
    return ring, rows, b


def _sympy_solve(ring, rows, b):
    """What solve_linear must return, read off sympy's reduced echelon form
    of [rows | b] over the fraction field: None when inconsistent, free
    unknowns zero over a field; over Z "kernel" for a free unknown and None
    for a non-integral solution."""
    n = ring.normalize
    aug = [[n(v) for v in row] + [n(v)] for row, v in zip(rows, b)]
    dom = sympy.GF(ring.p) if ring.p else sympy.QQ
    ref, piv = DomainMatrix.from_list(aug, dom).rref()
    cols = len(rows[0])
    if cols in piv:
        return None
    x = [ring.zero] * cols
    for row, j in zip(ref.to_list(), piv):
        v = row[cols]
        x[j] = int(v) % ring.p if ring.p else Fraction(int(v.numerator), int(v.denominator))
    if ring != ZZ:
        return x
    if len(piv) < cols:
        return "kernel"
    return [v.numerator for v in x] if all(v.denominator == 1 for v in x) else None


@settings(max_examples=300, deadline=None)
@given(_systems())
@example((ZZ, [[2, 0], [0, 3]], [1, 3]))  # unique but not integral
@example((ZZ, [[1, 1], [2, 2]], [1, 2]))  # a kernel
@example((ZZ, [[1, 1], [2, 2]], [1, 3]))  # inconsistent
@example((QQ, [[Fraction(1, 2), 1], [1, 2]], [Fraction(1, 3), Fraction(2, 3)]))
@example((GF(5), [[1, 2], [2, 4]], [3, 1]))  # a kernel mod 5
@example((GF(3), [[1, 2], [2, 1]], [1, 1]))  # inconsistent mod 3
def test_solve_linear_matches_sympy(system):
    ring, rows, b = system
    M = ExactMatrix.from_rows(ring, rows)
    want = _sympy_solve(ring, rows, b)
    if want == "kernel":
        with pytest.raises(ValueError, match="nontrivial kernel"):
            solve_linear(M, b)
        return
    got = solve_linear(M, b)
    assert got == want
    if got is not None:  # int over Z and F_p, Fraction over Q
        assert all(type(v) is type(ring.zero) for v in got)
        if ring.p:
            assert all(0 <= v < ring.p for v in got)


def test_homology_summands_simple_torsion():
    # Z --2--> Z has cokernel Z/2 in the right slot
    d_in = ExactMatrix.from_rows(ZZ, [[2]])
    d_out = ExactMatrix(ZZ, 0, 1, ())
    free, torsion = homology_summands(d_in, d_out)
    assert free == 0
    assert torsion == [2]


def test_homology_summands_rejects_non_complex():
    d_in = ExactMatrix.from_rows(ZZ, [[1]])
    d_out = ExactMatrix.from_rows(ZZ, [[1]])
    with pytest.raises(ValueError):
        homology_summands(d_in, d_out)


def _known_complex(rnd, length, mixes=3):
    """(dense differentials over Z, module ranks, summands) of a random
    direct sum of elementary complexes, conjugated by a random unimodular
    basis change of ``mixes`` row operations per basis vector in every
    degree.  A summand (i, k) is Z in degree i with k = 0, else Z --k--> Z
    from degree i to i + 1."""
    summands = []
    for _ in range(rnd.randint(0, 8)):
        i = rnd.randrange(length)
        summands.append((i, rnd.choice([0, 1, 1, 2, 3, 4, 6]) if i + 1 < length else 0))
    dims, where = [0] * length, []  # where: basis index of each summand's generators
    for i, k in summands:
        where.append((dims[i], dims[i + 1] if k else None))
        dims[i] += 1
        if k:
            dims[i + 1] += 1
    diffs = [[[0] * dims[i] for _ in range(dims[i + 1])] for i in range(length - 1)]
    for (i, k), (a, b) in zip(summands, where):
        if k:
            diffs[i][b][a] = k
    # g_i and its inverse from elementary row operations: g <- E g and
    # g^-1 <- g^-1 E^-1; then d_i <- g_(i+1) d_i g_i^-1
    basis = []
    for n in dims:
        g = [[int(x == y) for y in range(n)] for x in range(n)]
        ginv = [row[:] for row in g]
        for _ in range(mixes * n if n > 1 else 0):
            a, b = rnd.sample(range(n), 2)
            m = rnd.choice([-3, -2, -1, 1, 2, 3])
            g[a] = [x + m * y for x, y in zip(g[a], g[b])]
            for row in ginv:
                row[b] -= m * row[a]
        basis.append((g, ginv))

    def mul(A, B, inner, cols):
        return [[sum(A[x][t] * B[t][y] for t in range(inner)) for y in range(cols)] for x in range(len(A))]

    for i, d in enumerate(diffs):
        diffs[i] = mul(mul(basis[i + 1][0], d, dims[i + 1], dims[i]), basis[i][1], dims[i], dims[i])
    return diffs, dims, summands


def _sparse(R, dense, cols):
    nz = tuple(tuple((j, x) for j, x in enumerate(map(R.normalize, row)) if x) for row in dense)
    return ExactMatrix(R, len(dense), cols, nz)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([ZZ, QQ, GF(2), GF(3)]), st.integers(2, 5), st.integers(0, 2**32))
def test_homology_without_covered_columns_matches_construction(R, length, seed):
    """homology_summands, in degree order as ``homology`` calls it, reduces
    each differential without the columns its predecessor's unit pivots
    cover; free ranks and torsion must equal the construction's and those of
    a per-matrix reduction."""
    dense, dims, summands = _known_complex(random.Random(seed), length)
    free, torsion = [0] * length, [[] for _ in range(length)]
    for i, k in summands:
        if not k:
            free[i] += 1
        elif R == ZZ and k > 1:
            torsion[i + 1].append(k)
        elif R.p and k % R.p == 0:
            free[i] += 1
            free[i + 1] += 1
    diffs = [_sparse(R, d, dims[i]) for i, d in enumerate(dense)]
    ends = [ExactMatrix(R, dims[0], 0, ((),) * dims[0])] + diffs + [ExactMatrix(R, 0, dims[-1], ())]
    got = [homology_summands(d_in, d_out) for d_in, d_out in zip(ends, ends[1:])]
    # Z/2 + Z/3 is Z/6: the torsion is reported as invariant factors
    factors = lambda t: sorted(x for x in map(abs, sympy_snf(sympy.diag(*t)).diagonal()) if x > 1)
    assert got == [(f, factors(t) if t else []) for f, t in zip(free, torsion)]
    for i, d in enumerate(diffs):
        fresh = _sparse(R, dense[i], dims[i])
        assert d._reduced[:2] == _reduce(fresh)[:2]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([ZZ, QQ, GF(2), GF(3), GF(5)]), st.integers(2, 5), st.integers(0, 2), st.integers(0, 2**32))
def test_columns_of_swept_pivots_are_covered(R, length, mixes, seed):
    """Few basis changes leave many rows with one entry, so many unit pivots
    of d_in are swept before the Markowitz loop; reducing d_out without the
    columns at those rows keeps its rank and torsion."""
    dense, dims, _ = _known_complex(random.Random(seed), length, mixes)
    diffs = [_sparse(R, d, dims[i]) for i, d in enumerate(dense)]
    for d_in, d_out in zip(diffs, diffs[1:]):
        assert (d_out @ d_in).is_zero()
        assert _reduce(d_out, _reduce(d_in)[2])[:2] == _reduce(d_out)[:2]


def test_covered_columns_are_only_those_of_unit_pivots():
    """d_in = (2, 3)^T has no unit entry, so its pivots are remainder pivots;
    dropping d_out's column at either row would leave d_out = (3, -2) with
    image 3Z or 2Z instead of Z."""
    d_in = ExactMatrix.from_rows(ZZ, [[2], [3]])
    d_out = ExactMatrix.from_rows(ZZ, [[3, -2]])
    last = ExactMatrix(ZZ, 0, 1, ())
    assert homology_summands(d_in, d_out) == (0, [])
    assert homology_summands(d_out, last) == (0, [])
    assert smith_normal_form(d_out) == (1,)


def test_matmul():
    A = ExactMatrix.from_rows(ZZ, [[1, 2], [3, 4]])
    B = ExactMatrix.from_rows(ZZ, [[0, 1], [1, 0]])
    assert A @ B == ExactMatrix.from_rows(ZZ, [[2, 1], [4, 3]])
