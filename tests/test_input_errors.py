"""Library input errors that no command reaches: each call and its message."""

import tracemalloc

import pytest

from frobknot import diagram as dg
from frobknot import frobenius as fr
from frobknot import linalg, rank2, verifier
from frobknot.linalg import ExactMatrix
from frobknot.rings import GF, QQ, ZZ

_M = ExactMatrix.from_rows(ZZ, [[1, 0], [0, 1]])
_F3_TABLE = rank2.MultTable(GF(3), (1, 0), (0, 1), (0, 0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dg.LinkDiagram(((1, 1, 2),)), "crossing needs exactly four arc labels"),
        (lambda: dg.LinkDiagram(((1, 1, 2, 2),)).writhe, "diagram carries no orientation data"),
        (lambda: dg.rii_pair(dg.BUILDERS["unknot_0"](), 5), "arc 5 not present in diagram"),
        (lambda: fr.generator_map(fr.a5(0, 0), 2, (0, 1), (1, 0)),
         "a generator reads 2 distinct positions into 1 or 1 into 2, each in range"),
        (lambda: ExactMatrix(ZZ, -1, 0, ()), "negative dimensions"),
        (lambda: ExactMatrix(ZZ, 2, 2, ((),)), "row count does not match dimensions"),
        (lambda: ExactMatrix(ZZ, 1, 2, (((2, 1),),)), "column index out of range"),
        (lambda: ExactMatrix(ZZ, 2, 3, ((), ((-1, 1), (1, 2)))), "column index out of range"),
        (lambda: ExactMatrix(ZZ, 2, 3, (((0, 1),), ((1, 1), (4, 2)))), "column index out of range"),
        (lambda: ExactMatrix.from_rows(ZZ, [[1, 0], [1]]), "ragged rows"),
        (lambda: _M @ ExactMatrix.from_rows(QQ, [[1, 0], [0, 1]]), "ring mismatch"),
        (lambda: _M @ ExactMatrix.from_rows(ZZ, [[1, 0]]), "dimension mismatch"),
        (lambda: linalg.solve_linear(_M, [1]), "dimension mismatch"),
        (lambda: linalg.homology_summands(_M, ExactMatrix.from_rows(GF(2), [[1, 0]])), "ring mismatch"),
        (lambda: linalg.homology_summands(_M, ExactMatrix.from_rows(ZZ, [[1]])),
         "middle module dimension mismatch"),
        (lambda: rank2.idempotents(rank2.MultTable(QQ, (1, 0), (0, 1), (0, 0))),
         "idempotent search runs over prime fields"),
        (lambda: rank2.isomorphic(_F3_TABLE, rank2.MultTable(GF(5), (1, 0), (0, 1), (0, 0))),
         "isomorphism search needs matching prime fields"),
        (lambda: ZZ.elements(), "only prime fields are enumerable"),
        (lambda: verifier.verify_theorem_1_2(ring=QQ), "field verification needs a prime field"),
        (lambda: verifier.search_nearly_frobenius(rank2.MultTable(ZZ, (1, 0), (0, 1), (0, 0))),
         "coproduct search runs over prime fields"),
        (lambda: verifier.search_nearly_frobenius(rank2.MultTable(GF(3), (0, 1), (0, 0), (0, 0), (1, 0))),
         "product must be commutative and associative"),
    ],
    ids=["3-label crossing", "unoriented writhe", "rii missing arc", "unknown op",
         "negative dims", "row count", "column range", "negative column",
         "column past the end", "ragged", "matmul ring", "matmul dims",
         "solve dims", "homology ring", "homology dims", "idempotents over Q", "isomorphic rings",
         "Z elements", "thm1.2 over Q", "coproduct search ring", "coproduct search product"],
)
def test_library_input_errors(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message


_BIG_TABLE = rank2.MultTable(GF(2147483647), (1, 0), (0, 1), (0, 0))


@pytest.mark.parametrize(
    "search",
    [
        lambda: rank2.idempotents(_BIG_TABLE),
        lambda: rank2.isomorphic(_BIG_TABLE, _BIG_TABLE),
        lambda: verifier.search_nearly_frobenius(_BIG_TABLE),
    ],
    ids=["idempotents", "isomorphic", "coproduct search"],
)
def test_searches_refuse_a_prime_beyond_the_bound_before_allocating(search):
    # each search holds range(p) in memory, so the bound is checked first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as e:
            search()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == "exhaustive search runs over F_p with p <= 13, got p = 2147483647"
    assert peak < 64 * 1024
