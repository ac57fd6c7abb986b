"""The output corpus: what the CLI prints for a fixed set of inputs.

Each entry maps a command line to its exit code, the sha256 of its stdout
bytes and its stderr text.  Files in a command line are named without their
directory.  The inputs are 64 seeded braid closures (2-4 strands, 1-6
letters) under ``homology --normalize --json`` over Z, Q, F_2 and F_3 with
``a5(0,0)``, ``a5(1,1)`` and the x2/x3-scaled algebra, ``bracket`` and
``bracket --json`` of each closure, and ``check-algebra --json`` and
``relations --json`` of every file in ``ALGEBRAS``.
A larger tier of 4 seeded closures (2-4 strands, 7-8 letters, so cubes of
128 or 256 states) runs ``homology --normalize --json`` over Z and F_2
with ``a5(0,0)`` and over Q with the x2/x3-scaled algebra.  Every built-in
diagram runs text-mode ``homology --a5 0,0`` over Z, and with
``--normalize`` over F_3.  Two pairs must print the same bytes: a trefoil
given by its signs and by its orientation, and ``builder:trefoil_left``
with the scaled algebra over Z and over Q re-ringed by ``--ring Z``.  The
rank-2 commands are ``verify --json`` of every target at its defaults, at
``--p 5`` where it takes a prime and at ``--zbound 1`` where it takes a Z
box, ``classify --json`` of every associative commutative F_3 table and of
8 seeded ones each over F_5 and F_7 (five of the F_5 ones are fields, which
only the Fp2 row matches), and text-mode ``classify`` of two F_13 tables and
one F_7 table.

    PYTHONPATH=src python tests/corpus.py

rewrites ``tests/corpus.json``; ``tests/test_corpus.py`` recomputes it.
Regenerate it only when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

from frobknot import rank2
from frobknot.cli import main
from frobknot.diagram import BUILDERS
from frobknot.rings import GF

from braids import braid

CORPUS = Path(__file__).resolve().parent / "corpus.json"

_A5 = {"ring": {"kind": "Z"}, "rank": 2, "mult": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]],
       "comult": [[[-1, 1], [1, 0]], [[1, 0], [0, 1]]]}
_SCALED = {"ring": {"kind": "Z"}, "rank": 2, "mult": [[[2, 0], [0, 2]], [[0, 2], [0, 0]]],
           "comult": [[[0, 3], [3, 0]], [[0, 0], [0, 3]]]}
_Q, _F3, _F5 = {"kind": "Q"}, {"kind": "Fp", "p": 3}, {"kind": "Fp", "p": 5}

ALGEBRAS = {
    "a5.json": dict(_A5, unit=[1, 0], counit=[0, 1]),
    "a5_bare.json": _A5,
    "a5_bad_unit.json": dict(_A5, unit=[0, 1], counit=[0, 1]),
    "a5_bad_counit.json": dict(_A5, unit=[1, 0], counit=[1, 0]),
    "string_unit.json": dict(_A5, unit="10", counit=[0, 1]),
    "twisted_q.json": {"ring": _Q, "rank": 2, "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                       "comult": [[[0, "1/2"], ["1/2", "-1/4"]], [[0, 0], [0, "1/2"]]],
                       "unit": [1, 0], "counit": [1, 2]},
    "scaled.json": _SCALED,
    "scaled_q.json": dict(_SCALED, ring=_Q),
    "scaled_q_unit.json": dict(_SCALED, ring=_Q, unit=["1/2", 0], counit=[0, "1/3"]),
    "scaled_f3.json": dict(_SCALED, ring=_F3),
    "scaled_f5.json": dict(_SCALED, ring=_F5),
    "scaled_f5_unit.json": dict(_SCALED, ring=_F5, unit=[3, 0], counit=[0, 2]),
    "triangular.json": {
        "ring": _F3, "rank": 3,
        "mult": [[[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
                 [[0, 0, 0], [0, 0, 0], [0, 0, 1]]],
        "comult": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                   [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]},
    "tripled.json": {"ring": {"kind": "Z"}, "rank": 2,
                     "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                     "comult": [[[0, 3], [3, 0]], [[0, 0], [0, 3]]]},
}

RINGS = ("Z", "Q", "Fp:2", "Fp:3")

VERIFY = [[t] for t in ("thm1.1", "thm1.2", "prop3.4", "char2", "noncomm")]
VERIFY += [[t, "--p", "5"] for t in ("thm1.1", "thm1.2", "prop3.4", "noncomm")] + [["thm1.2", "--zbound", "1"]]


def closures(seed=12, count=64, letters=(1, 6)) -> list:
    """count distinct seeded (strands, word) pairs, with a letter count in
    the closed range ``letters``."""
    rng = random.Random(seed)
    seen: dict = {}
    while len(seen) < count:
        strands = rng.randint(2, 4)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                     for _ in range(rng.randint(*letters)))
        seen.setdefault((strands, word), None)
    return list(seen)


def _associative(p: int, e: tuple) -> bool:
    return rank2.is_associative(rank2.MultTable(GF(p), e[:2], e[2:4], e[4:]))


def tables(seed=40, count=8) -> list:
    """(p, the entries of e1e1, e1e2 and e2e2) of every associative
    commutative F_3 table, in lexicographic order, then of count distinct
    seeded draws of such tables over F_5 and over F_7."""
    out = [(3, e) for e in itertools.product(range(3), repeat=6) if _associative(3, e)]
    rng = random.Random(seed)
    for p in (5, 7):
        drawn: dict = {}
        while len(drawn) < count:
            e = tuple(rng.randrange(p) for _ in range(6))
            if _associative(p, e):
                drawn.setdefault(e, None)
        out += [(p, e) for e in drawn]
    return out


def _pd(d: Path, strands: int, word: tuple) -> Path:
    pd = d / f"s{strands}w{','.join(map(str, word))}.pd"
    pd.write_text(braid.closure_pd(word, strands))
    return pd


def _commands(d: Path):
    """Write the input files into d and yield every command line."""
    for name, data in ALGEBRAS.items():
        (d / name).write_text(json.dumps(data))
        for cmd in ("check-algebra", "relations"):
            yield [cmd, str(d / name), "--json"]
    for args in VERIFY:
        yield ["verify", *args, "--json"]
    # in text mode: F_7's m8_2R (1, 3), F_13's m6 (0, 0) and F_13[sqrt 2], Fp2 (2,)
    text = [(7, (1, 0, 0, 1, 6, 0)), (13, (1, 0, 0, 1, 12, 0)), (13, (1, 0, 0, 1, 2, 0))]
    for p, e in tables() + text:
        f = d / f"f{p}_{''.join(map(str, e))}.json"
        f.write_text(json.dumps({"ring": {"kind": "Fp", "p": p},
                                 "products": {"e1e1": e[:2], "e1e2": e[2:4], "e2e2": e[4:]}}))
        yield ["classify", str(f)] if (p, e) in text else ["classify", str(f), "--json"]
    for name, last in (("signs", "SIGNS - - -"), ("orient", "ORIENT 1 2 3 4 5 6")):
        (d / f"trefoil_{name}.pd").write_text(f"X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\n{last}\n")
        yield ["homology", str(d / f"trefoil_{name}.pd"), "--a5", "0,0", "--normalize", "--json"]
    scaled = ["--algebra", str(d / "scaled.json")]
    for algebra in (scaled, ["--algebra", str(d / "scaled_q_unit.json"), "--ring", "Z"]):
        yield ["homology", "builder:trefoil_left", *algebra, "--normalize", "--json"]
    for name in BUILDERS:
        yield ["homology", f"builder:{name}", "--a5", "0,0"]
        yield ["homology", f"builder:{name}", "--a5", "0,0", "--ring", "Fp:3", "--normalize"]
    for strands, word in closures():
        pd = _pd(d, strands, word)
        yield ["bracket", str(pd)]
        yield ["bracket", str(pd), "--json"]
        for ring in RINGS:
            for algebra in (["--a5", "0,0"], ["--a5", "1,1"], scaled):
                yield ["homology", str(pd), *algebra, "--ring", ring, "--normalize", "--json"]
    for strands, word in closures(seed=78, count=4, letters=(7, 8)):
        pd = _pd(d, strands, word)
        for ring, algebra in (("Z", ["--a5", "0,0"]), ("Fp:2", ["--a5", "0,0"]), ("Q", scaled)):
            yield ["homology", str(pd), *algebra, "--ring", ring, "--normalize", "--json"]


def outputs() -> dict:
    """The corpus, recomputed by running every command in-process."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        prefix = f"{d}/"
        for argv in _commands(d):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            out[" ".join(a.removeprefix(prefix) for a in argv)] = {
                "exit": code,
                "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
                "stderr": stderr.getvalue().replace(prefix, ""),
            }
    return out


if __name__ == "__main__":
    # one sorted entry a line, so a changed output is a one-line diff
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(outputs().items()))
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
