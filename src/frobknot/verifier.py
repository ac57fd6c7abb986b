"""Exhaustive desk-scale verification over small prime fields and bounded
integer boxes.

Hot loops run the rank2 tuple kernel on plain integer tuples; a tuple
becomes a MultTable (rank2._table) only where a battery classifies it or
records it.  A failure is recorded once, by _record, as the JSON record
the report prints: its kind plus that kind's fields, a "table" field being
the table's MultTable JSON.  Each battery collects its records in a list and
builds its report once, at its end.  Every report carries the closed form
search-space size and per-stage survivor counts so exhaustiveness is
auditable.
"""

from __future__ import annotations

import itertools

from . import rank2
from .rank2 import _associative, _entries, _isomorphism, _member, _searchable, _surjective, _table, _unit
from .rank2 import _associative_comm_tables, _associative_noncomm_tables, _frobenius_comults, _CHAR2, _ODD
from .rings import ZZ, GF, RingSpec, Value

_NOT_A_FIELD = "field verification needs a prime field"  # thm1.1 and noncomm build GF(p): it never shows


class VerifyReport(Value):
    """A battery's report.  Its stages are a dict and its counterexamples a
    list of JSON records, so hashing one raises TypeError."""

    _fields = ("name", "space_size", "stages", "counterexamples")

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return dict(zip(self._fields, self._key(self)))

    def summary(self) -> str:
        stages = ", ".join(f"{k}={v}" for k, v in self.stages.items())
        return (
            f"{self.name}: {self.space_size} candidates ({stages}), "
            f"{len(self.counterexamples)} counterexamples"
        )


def _record(kind: str, **fields) -> dict:
    return {"kind": kind, **fields}


# ---------------------------------------------------------------------------
# Theorem: surjective multiplication implies unital (commutative rank 2)
# ---------------------------------------------------------------------------


def verify_theorem_1_2(ring: RingSpec = None, zbound: int = None) -> VerifyReport:
    """Every commutative associative rank-2 table with surjective
    multiplication must admit a unit.  Runs over F_p exhaustively, or over
    the integer box [-zbound, zbound]^6."""
    if (ring is None) == (zbound is None):
        raise ValueError("give exactly one of ring= or zbound=")
    if zbound is not None:
        if type(zbound) is not int or not 0 <= zbound <= rank2.MAX_ZBOUND:  # not a bool
            raise ValueError(f"the Z box bound must be in 0..{rank2.MAX_ZBOUND}, got {zbound!r}")
        ring, entries = ZZ, range(-zbound, zbound + 1)
        name = f"thm1.2 over Z box [-{zbound},{zbound}]"
    else:
        entries, name = range(_searchable(ring, _NOT_A_FIELD).p), f"thm1.2 over F_{ring.p}"
    m = ring.p
    records, n_assoc, n_surj = [], 0, 0
    for t in _associative_comm_tables(entries, m):
        n_assoc += 1
        if not _surjective(t, m):
            continue
        n_surj += 1
        if _unit(t, m) is None:
            records.append(_record("surjective_without_unit", table=_table(ring, t).to_json()))
    return VerifyReport(name, len(entries) ** 6, {"associative": n_assoc, "surjective": n_surj}, records)


# ---------------------------------------------------------------------------
# Theorem: surjective product + injective coproduct + compatibility
# forces unit and counit (rank 2 over F_p)
# ---------------------------------------------------------------------------


def verify_theorem_1_1(p: int) -> VerifyReport:
    """Pairs (product, coproduct) over F_p with surjective commutative
    associative product, injective cocommutative coassociative coproduct,
    and the compatibility relation, must carry both a unit and a counit.
    The coproducts of each product are solved for, not enumerated."""
    ring = _searchable(GF(p), _NOT_A_FIELD)
    mults = [t for t in _associative_comm_tables(range(p), p) if _surjective(t, p)]
    records, n_pairs = [], 0
    for t in mults:  # surjective, so unital (thm1.2): every kernel member is coassociative
        unit = _unit(t, p)
        for d, dual in _frobenius_comults(t, p):
            if not _surjective(dual, p):
                continue
            n_pairs += 1
            counit = _unit(dual, p)
            if unit is None or counit is None:
                records.append(_record(
                    "frobenius_without_identity",
                    table=_table(ring, t).to_json(),
                    comult=[[list(row) for row in dk] for dk in d],
                    missing="unit" if unit is None else "counit",
                ))
    stages = {
        "mult_survivors": len(mults),
        # transposition is a bijection from the injective cocommutative
        # coassociative coproducts onto the surjective commutative
        # associative tables, so there are as many of each
        "comult_survivors": len(mults),
        "compatible_pairs": n_pairs,
    }
    return VerifyReport(f"thm1.1 over F_{p}", p**6 * p**8, stages, records)


# ---------------------------------------------------------------------------
# Family sweeps: stated associativity/unitality conditions, p not 2
# ---------------------------------------------------------------------------


def verify_prop_3_4(p: int) -> VerifyReport:
    """Sweep the parameter domain of every family of odd characteristic that
    carries the paper's statement (rank2._ODD) over F_p, and compare
    is_associative / find_unit against it.  The domain is every parameter
    tuple that representative accepts."""
    if p not in (3, 5):
        raise ValueError("sweeps run over F_3 and F_5")
    ring = GF(p)
    records, checked = [], 0
    for label, (arity, _, _, stated) in _ODD.items():
        for params in itertools.product(range(p), repeat=arity):
            if stated is None or (t := _member(label, params, ring)) is None:
                continue
            checked += 1
            want_assoc, want_unital = stated(p, *params)
            got_assoc = rank2.is_associative(t)
            got_unital = rank2.find_unit(t) is not None
            if got_assoc != want_assoc or got_unital != want_unital:
                records.append(_record(
                    "sweep_mismatch",
                    family=label,
                    params=list(params),
                    expected={"associative": want_assoc, "unital": want_unital},
                    got={"associative": got_assoc, "unital": got_unital},
                ))
    return VerifyReport(f"prop3.4 sweeps over F_{p}", checked, {"swept": checked}, records)


# ---------------------------------------------------------------------------
# Characteristic-2 classification and unitality pattern
# ---------------------------------------------------------------------------


def verify_char2_classification() -> VerifyReport:
    """Classify every associative commutative F_2 table and compare its
    unitality with the statement of its family (rank2._CHAR2)."""
    ring = GF(2)
    records, n_assoc = [], 0
    for t4 in _associative_comm_tables(range(2), 2):
        n_assoc += 1
        t = _table(ring, t4)
        label, params = rank2.classify(t)
        unital = rank2.find_unit(t) is not None
        if unital != _CHAR2[label][3](2, *params)[1]:
            records.append(
                _record("unitality_pattern_mismatch", table=t.to_json(), label=label, unital=unital)
            )
    return VerifyReport("char-2 classification over F_2", 2**6, {"associative": n_assoc}, records)


# ---------------------------------------------------------------------------
# Noncommutative targets
# ---------------------------------------------------------------------------


def verify_noncommutative(p: int) -> VerifyReport:
    """Associative, surjective, noncommutative rank-2 tables over F_p all
    reduce to one of the two canonical one-sided-identity tables.  Each
    associative noncommutative table is onto: if A^2 != A then A^2 = 0, or
    A^2 = Kx and, with x^2 = ax, xy = bx, yx = cx, y^2 = dx, associativity
    gives a(b - c) = 0 and ad = c^2 = b^2, so b = c; either way A commutes."""
    ring = _searchable(GF(p), _NOT_A_FIELD)
    targets = [_entries(rank2.representative(label, (), ring)) for label in ("nc_left", "nc_right")]
    records, n_survivors = [], 0
    for t4 in _associative_noncomm_tables(p):
        n_survivors += 1
        if all(_isomorphism(t4, tgt, p) is None for tgt in targets):
            records.append(_record("unmatched_noncommutative_table", table=_table(ring, t4).to_json()))
    return VerifyReport(f"noncommutative targets over F_{p}", p**8, {"survivors": n_survivors}, records)


# ---------------------------------------------------------------------------
# Coproduct search for a fixed product
# ---------------------------------------------------------------------------


def search_nearly_frobenius(m: rank2.MultTable) -> list:
    """All coproduct tensors over F_p, p <= MAX_SEARCH_P, compatible with
    the given commutative associative product (cocommutative, coassociative,
    compatibility relation; the zero tensor always qualifies).  The product
    may have no unit, such as the zero product, so each solution of the
    relation is tested for coassociativity."""
    p = _searchable(m.ring, "coproduct search runs over prime fields").p
    if not m.commutative or not rank2.is_associative(m):
        raise ValueError("product must be commutative and associative")
    return [d for d, dual in _frobenius_comults(_entries(m), p) if _associative(dual, p)]
