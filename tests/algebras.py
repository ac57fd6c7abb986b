"""Algebra data that several test modules build over many rings:
``from algebras import scaled, truncated``."""

from frobknot import frobenius as fr


def scaled(R):
    """a5(0, 0) with its product times 2 and its coproduct times 3: over Z
    few entries are units, and the torsion has 2, 3, 4 and 6."""
    mult = (((2, 0), (0, 2)), ((0, 2), (0, 0)))
    comult = (((0, 3), (3, 0)), ((0, 0), (0, 3)))
    return fr.FrobeniusData(R, 2, mult, comult)


def truncated(R, r):
    """Z[x]/x^r on the basis 1, x, ..., x^(r-1), with Delta(x^k) the sum of
    x^a (x) x^b over a + b = r - 1 + k (the CI's truncated8.json at r = 8)."""
    mult = [[[int(i + j == k) for k in range(r)] for j in range(r)] for i in range(r)]
    comult = [[[int(a + b == r - 1 + k) for b in range(r)] for a in range(r)] for k in range(r)]
    return fr.FrobeniusData(R, r, mult, comult)
