from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobknot.linalg import (
    ExactMatrix,
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


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
)
def test_solve_linear_round_trip_over_z(rows, x):
    assume(sympy.Matrix(rows).det() != 0)
    M = ExactMatrix.from_rows(ZZ, rows)
    b = M.mul_vector(x)
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


def test_matmul():
    A = ExactMatrix.from_rows(ZZ, [[1, 2], [3, 4]])
    B = ExactMatrix.from_rows(ZZ, [[0, 1], [1, 0]])
    assert (A @ B).to_lists() == [[2, 1], [4, 3]]
