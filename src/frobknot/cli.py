"""Command-line entry point.

Exit codes: 0 success, 1 verification counterexample / failed relation,
2 input error.  A reader that closes the pipe early ends the run quietly
with exit 0.  The cyclic collector is paused for the run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import complex as cx
from . import diagram as dg
from . import frobenius as fb
from . import rank2, verifier
from .rings import QQ, ZZ, GF, RingSpec


def _load_diagram(spec: str) -> dg.LinkDiagram:
    if spec.startswith("builder:"):
        name = spec[len("builder:") :]
        try:
            return dg.BUILDERS[name]()
        except KeyError:
            known = ", ".join(sorted(dg.BUILDERS))
            raise ValueError(f"unknown builder {name!r}; known: {known}") from None
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {spec}: {e}") from None
    try:
        return dg.parse_pd(text)
    except dg.PDError as e:
        raise ValueError(f"{spec}: {e}") from None


def _parse_ring(spec: str) -> RingSpec:
    if spec == "Z":
        return ZZ
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:"):
        try:
            return GF(int(spec[3:]))
        except ValueError as e:
            raise ValueError(f"bad ring {spec!r}: {e}") from None
    raise ValueError(f"bad ring {spec!r}; expected Z, Q, or Fp:P")


def _from_json(cls, path: str):
    """cls.from_json of the JSON file at path; every error names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read {path}: {e}") from None
    try:
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        return cls.from_json(data)
    except KeyError as e:
        raise ValueError(f"{path}: missing key {e}") from None
    except (ValueError, TypeError) as e:
        raise ValueError(f"{path}: {e}") from None


def _algebra_from_args(args) -> fb.FrobeniusData:
    if args.algebra and args.a5:
        raise ValueError("--algebra and --a5 are mutually exclusive")
    ring = _parse_ring(args.ring) if args.ring else None
    if args.a5:
        try:
            h, t = (int(x) for x in args.a5.split(","))
        except ValueError:
            raise ValueError("--a5 expects two integers: H,T") from None
        return fb.a5(h, t, ring or ZZ)
    if args.algebra:
        F = _from_json(fb.FrobeniusData, args.algebra)
        if ring is not None and ring != F.ring:
            return fb.FrobeniusData(ring, F.rank, F.mult, F.comult)
        return F
    raise ValueError(
        "homology over the generic two-parameter coefficient ring is not "
        "supported; specialize with --a5 H,T or supply --algebra FILE"
    )


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _cmd_homology(args) -> int:
    d = _load_diagram(args.diagram)
    F = _algebra_from_args(args)
    try:
        C = cx.chain_complex(d, F, normalize=args.normalize)
    except ValueError as e:  # a code with no cube (non-planar) or no signs to normalize by
        raise ValueError(f"{args.diagram}: {e}") from None
    table = cx.homology(C)
    if args.json:
        _emit_json(table.to_json())
    else:
        print(f"ring {F.ring}  normalized={table.normalized}")
        for i, free, tor in table.rows:
            tors = " + ".join(f"Z/{t}" for t in tor)
            desc = f"free rank {free}" + (f" + {tors}" if tors else "")
            print(f"  H^{i}: {desc}")
    return 0


def _render(poly: dict) -> str:
    """An exponent -> coefficient dict as text in A, in its order:
    ``-A^-5 - A^3 + A^7``, ``3 - 2*A^4``; ``0`` when it is empty."""
    text = ""
    for e, c in poly.items():
        term = str(abs(c)) if e == 0 else ("" if abs(c) == 1 else f"{abs(c)}*") + f"A^{e}"
        if text:
            text += f" - {term}" if c < 0 else f" + {term}"
        else:
            text = f"-{term}" if c < 0 else term
    return text or "0"


def _cmd_bracket(args) -> int:
    d = _load_diagram(args.diagram)
    b = dg.kauffman_bracket(d)
    if args.json:
        _emit_json({"bracket": {str(e): c for e, c in b.items()}})
    else:
        print(_render(b))
    return 0


def _print_flags(args, flags: dict, yes: str, no: str) -> bool:
    """Print the flags, as JSON or one per line; True when all of them hold."""
    if args.json:
        _emit_json(flags)
    else:
        for k, v in flags.items():
            print(f"{k}: {yes if v else no}")
    return all(flags.values())


def _cmd_check_algebra(args) -> int:
    _print_flags(args, fb.check_axioms(_from_json(fb.FrobeniusData, args.file)), "yes", "no")
    return 0


def _cmd_relations(args) -> int:
    report = fb.verify_n2cob_relations(_from_json(fb.FrobeniusData, args.file))
    return 0 if _print_flags(args, report, "holds", "FAILS") else 1


def _cmd_classify(args) -> int:
    t = _from_json(rank2.MultTable, args.file)
    if args.p is not None:
        t = rank2.MultTable(GF(args.p), t.e11, t.e12, t.e22, t.e21)
    label, params = rank2.classify(t)
    if args.json:
        _emit_json({"family": label, "params": list(params)})
    else:
        print(f"{label} {tuple(params)}")
    return 0


# verify target: (battery over F_p, primes run by default, battery over the Z
# box [-B, B], run made by default after the primes); a target without a
# battery for --p or --zbound refuses it.  Each lambda looks its battery up in
# `verifier` as it runs, so a tracer that rebinds those names sees every call.
_BATTERIES = {
    "thm1.1": (lambda p: verifier.verify_theorem_1_1(p), (2, 3), None, None),
    "thm1.2": (
        lambda p: verifier.verify_theorem_1_2(ring=GF(p)),
        (2, 3, 5),
        lambda b: verifier.verify_theorem_1_2(zbound=b),
        lambda: verifier.verify_theorem_1_2(zbound=2),
    ),
    "prop3.4": (lambda p: verifier.verify_prop_3_4(p), (3, 5), None, None),
    "char2": (None, (), None, lambda: verifier.verify_char2_classification()),
    "noncomm": (lambda p: verifier.verify_noncommutative(p), (2, 3), None, None),
}


def _cmd_verify(args) -> int:
    which, p, zbound = args.target, args.p, args.zbound
    over_p, primes, over_z, then = _BATTERIES[which]
    if zbound is not None and over_z is None:
        raise ValueError(f"verify {which} takes no --zbound; only thm1.2 runs over a Z box")
    if p is not None and over_p is None:
        raise ValueError(f"verify {which} runs over F_2 only and takes no --p")
    if p is not None and zbound is not None:
        raise ValueError(f"verify {which} takes --p or --zbound, not both")
    if zbound is not None:
        reports = [over_z(zbound)]
    elif p is not None:
        reports = [over_p(p)]
    else:
        reports = [over_p(q) for q in primes] + ([then()] if then else [])
    if args.json:
        _emit_json([r.to_json() for r in reports])
    else:
        for r in reports:
            print(r.summary())
    return 0 if all(r.ok for r in reports) else 1


@functools.cache  # built on the first call, then shared by every in-process call
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser; its ``commands`` map each command name to the
    parser of that command's arguments."""
    ap = argparse.ArgumentParser(
        prog="frobknot",
        description="Exact link homology and rank-2 algebra verification.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    ap.commands = {}

    def command(name, fn, help):
        p = ap.commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p

    p = command("homology", _cmd_homology, "homology of a diagram under an algebra")
    p.add_argument("diagram", help="PD file path or builder:NAME")
    p.add_argument("--algebra", help="FrobeniusData JSON file")
    p.add_argument("--a5", help="two-parameter algebra at H,T (integers)")
    p.add_argument("--ring", help="Z, Q, or Fp:P")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--json", action="store_true")

    p = command("bracket", _cmd_bracket, "state-sum bracket polynomial")
    p.add_argument("diagram", help="PD file path or builder:NAME")
    p.add_argument("--json", action="store_true")

    p = command("check-algebra", _cmd_check_algebra, "axiom report for algebra data")
    p.add_argument("file", help="FrobeniusData JSON file")
    p.add_argument("--json", action="store_true")

    p = command("relations", _cmd_relations, "cobordism-relation report for algebra data")
    p.add_argument("file", help="FrobeniusData JSON file")
    p.add_argument("--json", action="store_true")

    p = command("classify", _cmd_classify, "match a product table to a representative family")
    p.add_argument("file", help="MultTable JSON file")
    p.add_argument("--p", type=int, help="reinterpret the table over F_p")
    p.add_argument("--json", action="store_true")

    p = command("verify", _cmd_verify, "run an exhaustive verification battery")
    p.add_argument("target", choices=list(_BATTERIES))
    p.add_argument("--p", type=int)
    p.add_argument("--zbound", type=int)
    p.add_argument("--json", action="store_true")

    return ap


@cx._paused()
def main(argv=None) -> int:
    ap = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # the named command's parser reads the rest, the call that the
        # top-level parser's subcommand action makes; the top-level parser
        # runs only where argv names no command or arguments are left over,
        # and reports the error
        command = ap.commands.get(argv[0]) if argv else None
        if command is not None:
            args, rest = command.parse_known_args(argv[1:])
        if command is None or rest:
            args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here rather than at exit
        return code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone; what is left goes to devnull, so the flush
        # at exit stays silent
        sys.stdout = open(os.devnull, "w")
        return 0


if __name__ == "__main__":
    sys.exit(main())
