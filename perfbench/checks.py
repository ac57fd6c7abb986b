"""Output checks for the benchmark's operations.

Each check takes an operation's exit code and stdout (or the outputs of
related operations) and returns None when the output is right, or a short
reason when it is wrong.  The oracles here share no code with the
library: they are plain arithmetic on the printed JSON and on the tables the
benchmark generated itself.
"""

from __future__ import annotations

import itertools
import json

# Stage counts frozen in the repository's verifier tests, plus the --p 7 run
# those tests do not cover (measured once and pinned here).
FROZEN_STAGES = {
    ("thm1.1",): [
        {"mult_survivors": 12, "comult_survivors": 12, "compatible_pairs": 24},
        {"mult_survivors": 72, "comult_survivors": 72, "compatible_pairs": 432},
    ],
    # the four reports of the default thm1.2 battery, one call each
    ("thm1.2", "--p", "2"): [{"associative": 22, "surjective": 12}],
    ("thm1.2", "--p", "3"): [{"associative": 105, "surjective": 72}],
    ("thm1.2", "--p", "5"): [{"associative": 745, "surjective": 600}],
    ("thm1.2", "--zbound", "2"): [{"associative": 481, "surjective": 180}],
    ("prop3.4",): [{"swept": 67}, {"swept": 310}],
    ("char2",): [{"associative": 22}],
    ("noncomm",): [{"survivors": 6}, {"survivors": 16}],
    ("thm1.2", "--p", "7"): [{"associative": 2737, "surjective": 2352}],
    # F_2-only runs, used by the self-check
    ("thm1.1", "--p", "2"): [{"mult_survivors": 12, "comult_survivors": 12, "compatible_pairs": 24}],
    ("noncomm", "--p", "2"): [{"survivors": 6}],
}


def check_battery(args: tuple, rc: int, out: str):
    if rc != 0:
        return f"exit {rc}"
    try:
        reports = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    want = FROZEN_STAGES[args]
    got = [r.get("stages") for r in reports]
    if got != want:
        return f"stages {got} != frozen {want}"
    if any(r.get("counterexamples") for r in reports):
        return "counterexamples reported"
    return None


# ---------------------------------------------------------------------------
# Homology: universal coefficients between Z, F_2 and Q tables
# ---------------------------------------------------------------------------


def parse_table(rc: int, out: str):
    """{degree: (free_rank, torsion list)} from `homology --json`, or None."""
    if rc != 0:
        return None
    try:
        groups = json.loads(out)["groups"]
        return {g["i"]: (g["free_rank"], list(g["torsion"])) for g in groups}
    except (ValueError, KeyError, TypeError):
        return None


def check_z_table(z, euler: int):
    """The Z table's Euler characteristic must equal that of the chain
    complex: the alternating sum of chain-group ranks, from the benchmark's
    own rank profile."""
    if z is None:
        return "no Z table"
    got = sum(-free if i % 2 else free for i, (free, _) in z.items())
    if got != euler:
        return f"Euler characteristic {got} != chain-level value {euler}"
    return None


def check_f2_table(z, f2):
    """rank H^i(C; F_2) = free_i + #even torsion of H^i + #even torsion of H^(i+1)."""
    if z is None or f2 is None:
        return "missing Z or F_2 table"
    if set(z) != set(f2):
        return "degree ranges differ"
    for i, (free, tor) in z.items():
        even = sum(1 for t in tor if t % 2 == 0)
        even_next = sum(1 for t in z.get(i + 1, (0, []))[1] if t % 2 == 0)
        want = free + even + even_next
        if f2[i] != (want, []):
            return f"degree {i}: F_2 {f2[i]} != expected rank {want}"
    return None


def check_q_table(z, q):
    """Q ranks equal the Z free ranks, with no torsion."""
    if z is None or q is None:
        return "missing Z or Q table"
    want = {i: (free, []) for i, (free, _) in z.items()}
    if q != want:
        return f"Q table {q} != Z free ranks {want}"
    return None


# ---------------------------------------------------------------------------
# Classification: exit 1 only for the quadratic field when p = 1 (mod 4)
# ---------------------------------------------------------------------------

_BASIS = ((1, 0), (0, 1))


def table_mul(t, u, v, p):
    """Product of coefficient pairs under the commutative table t =
    (e1e1, e1e2, e2e2), mod p."""
    (a1, b1), (a2, b2), (a4, b4) = t
    x, y, z = u[0] * v[0], u[0] * v[1] + u[1] * v[0], u[1] * v[1]
    return ((x * a1 + y * a2 + z * a4) % p, (x * b1 + y * b2 + z * b4) % p)


def is_associative(t, p) -> bool:
    return all(
        table_mul(t, table_mul(t, x, y, p), z, p) == table_mul(t, x, table_mul(t, y, z, p), p)
        for x, y, z in itertools.product(_BASIS, repeat=3)
    )


def is_field(t, p) -> bool:
    """Unital with no zero divisors: then the table is the field F_(p^2)."""
    elems = list(itertools.product(range(p), repeat=2))
    unital = any(all(table_mul(t, u, e, p) == e for e in _BASIS) for u in elems)
    if not unital:
        return False
    nonzero = elems[1:]
    return all(table_mul(t, u, v, p) != (0, 0) for u in nonzero for v in nonzero)


def associative_tables(p: int) -> list:
    """Every associative commutative table over F_p, lexicographic order."""
    out = []
    for c in itertools.product(range(p), repeat=6):
        t = ((c[0], c[1]), (c[2], c[3]), (c[4], c[5]))
        if is_associative(t, p):
            out.append(t)
    return out


def invariants(t, p) -> tuple:
    """(unital, #idempotents, #nilpotents, #zero-divisor pairs) over the
    nonzero elements: over F_5 these separate the associative commutative
    tables into the isomorphism kinds that classify tells apart."""
    elems = list(itertools.product(range(p), repeat=2))
    nonzero = elems[1:]
    squares = [table_mul(t, v, v, p) for v in nonzero]
    return (
        any(all(table_mul(t, u, e, p) == e for e in _BASIS) for u in elems),
        sum(1 for v, sq in zip(nonzero, squares) if sq == v),
        sum(1 for sq in squares if sq == (0, 0)),
        sum(1 for u in nonzero for v in nonzero if table_mul(t, u, v, p) == (0, 0)),
    )


def may_be_gap(t, p) -> bool:
    """The family list covers F_(p^2) only through a -1-nonresidue form, so
    at this writing the field is a classification gap exactly when
    p = 1 (mod 4).  A family list that covers it may label it instead; no
    other table may be a gap."""
    return p % 4 == 1 and is_field(t, p)


def check_classify(may_gap: bool, rc: int, out: str):
    """Exit 0 with a family label, or exit 1 where the table may be a gap."""
    if rc == 1 and may_gap:
        return None
    if rc != 0:
        return f"exit {rc}, expected 0" + (" or 1 (classification gap)" if may_gap else "")
    try:
        return None if isinstance(json.loads(out)["family"], str) else "no family label"
    except (ValueError, KeyError, TypeError):
        return "stdout is not a family label"


def table_json(t, p: int) -> dict:
    names = ("e1e1", "e1e2", "e2e2")
    return {
        "ring": {"kind": "Fp", "p": p},
        "commutative": True,
        "products": {n: [str(x) for x in pair] for n, pair in zip(names, t)},
    }
