import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobknot import complex as cx
from frobknot import diagram as dg
from frobknot import frobenius as fr
from frobknot import rank2
from frobknot import cli
from frobknot.cli import main
from frobknot.rings import GF, QQ, ZZ

from corpus import ALGEBRAS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_homology_builder_json(capsys):
    code, out = run(
        capsys, "homology", "builder:trefoil_left", "--a5", "0,0", "--normalize", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["normalized"] is True
    groups = {g["i"]: g for g in data["groups"]}
    assert groups[-2]["torsion"] == [2]


def test_homology_runs_leave_no_garbage_cycles(tmp_path, capsys):
    # the collector is paused for a run because the engine makes no cycles:
    # after the first call, which builds the cached parser, nothing is left
    # for it to collect, over Z, Q (fractional data too) and F_2
    twisted_q = tmp_path / "twisted_q.json"
    twisted_q.write_text(json.dumps(ALGEBRAS["twisted_q.json"]))
    main(["homology", "builder:hopf_pos", "--a5", "0,0"])
    gc.collect()
    for algebra in (["--a5", "0,0"], ["--a5", "1,1", "--ring", "Q"], ["--algebra", str(twisted_q)],
                    ["--a5", "0,0", "--ring", "Fp:2"]):
        assert main(["homology", "builder:trefoil_left", "--normalize", "--json", *algebra]) == 0
        assert gc.collect() == 0, algebra
    capsys.readouterr()


def test_the_collector_is_paused_for_a_run_and_restored(monkeypatch, capsys):
    during = []

    def escape(C):
        during.append(gc.isenabled())
        raise RuntimeError("escapes")

    argv = ["homology", "builder:hopf_pos", "--a5", "0,0"]
    collecting = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert main(argv) == 0
            assert gc.isenabled() is enabled
            assert main(["homology", "builder:nope", "--a5", "0,0"]) == 2
            assert gc.isenabled() is enabled
            with monkeypatch.context() as m:
                m.setattr(cx, "homology", escape)
                with pytest.raises(RuntimeError, match="escapes"):
                    main(argv)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if collecting else gc.disable)()
    assert during == [False, False]
    capsys.readouterr()


def test_homology_json_is_byte_stable(capsys):
    args = ("homology", "builder:hopf_pos", "--a5", "0,1", "--ring", "Q", "--json")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_homology_requires_specialization(capsys):
    code, out = run(capsys, "homology", "builder:unknot_0")
    assert code == 2


def test_bracket(capsys):
    code, out = run(capsys, "bracket", "builder:unknot_1kink_neg", "--json")
    assert code == 0
    assert json.loads(out)["bracket"] == {"-3": -1}


def test_bracket_text_renderer():
    # in the dict's order, a bare constant, 1 and -1 left out before a power;
    # the corpus pins it on the bracket of every closure
    assert cli._render({-1: 1, 0: 1, 2: -3}) == "A^-1 + 1 - 3*A^2"
    assert cli._render({0: -2, 3: 1, 5: -1}) == "-2 + A^3 - A^5"
    assert cli._render({}) == "0"


def test_bracket_of_the_empty_diagram_exits_2(tmp_path, capsys):
    # its bracket would be delta^-1, which is not a Laurent polynomial
    f = tmp_path / "empty.pd"
    f.write_text("# no crossings, no loops\n")
    assert main(["bracket", str(f), "--json"]) == 2
    assert capsys.readouterr() == (
        "", "error: empty diagram (no crossings, no loops): its bracket would be delta^-1\n"
    )
    code, out = run(capsys, "homology", str(f), "--a5", "0,0", "--json")
    assert (code, json.loads(out)["groups"]) == (0, [{"i": 0, "free_rank": 1, "torsion": []}])


def test_pd_file_input(tmp_path, capsys):
    f = tmp_path / "hopf.pd"
    f.write_text("X 1 3 2 4\nX 2 4 1 3\nSIGNS + +\n")
    code, out = run(capsys, "homology", str(f), "--a5", "0,0", "--normalize", "--json")
    assert code == 0
    total = sum(g["free_rank"] for g in json.loads(out)["groups"])
    assert total == 4


def test_a_crossing_free_pd_file_normalizes_like_its_builder(tmp_path, capsys):
    # with no crossings there is no sign to give, so no SIGNS line is needed
    f = tmp_path / "loops.pd"
    f.write_text("O\nO\n")
    assert dg.parse_pd(f.read_text()) == dg.BUILDERS["figure10_d2"]()
    argv = ("--a5", "0,0", "--normalize", "--json")
    code, out = run(capsys, "homology", str(f), *argv)
    assert (code, out) == run(capsys, "homology", "builder:figure10_d2", *argv)
    assert (code, json.loads(out)["groups"]) == (0, [{"i": 0, "free_rank": 4, "torsion": []}])


def test_signs_tokens_are_whole_signs(tmp_path, capsys):
    # "+-" was taken as a sign by a substring test and counted as neither
    text = "X 3 2 4 1\nX 4 1 3 2\nSIGNS - +-\n"
    with pytest.raises(dg.PDError, match="SIGNS"):
        dg.parse_pd(text)
    f = tmp_path / "bad.pd"
    f.write_text(text)
    code, out = run(capsys, "homology", str(f), "--a5", "0,0", "--normalize", "--json")
    assert (code, out) == (2, "")
    # a negative loop count read as free rank 1 over Z; a sign record gives
    # one +1 or -1 per crossing, and bools are no more signs than labels; a
    # field that is not iterable was a TypeError
    hopf = ((3, 2, 4, 1), (4, 1, 3, 2))
    for crossings, loops, signs, message in (
        (hopf, 0, (1,), "signs must give"),
        (hopf, 0, (1, 1, -1), "signs must give"),
        (hopf, 0, (True, True), "signs must give"),
        (hopf, 0, (1.0, -1), "signs must give"),
        (hopf, 0, (0, 1), "signs must give"),
        (hopf, 0, (2, -1), "signs must give"),
        (hopf, 0, ("+", "-"), "signs must give"),
        (hopf, -2, None, "free_loops"),
        (hopf, True, None, "free_loops"),
        (5, 0, None, "^crossings must be iterable, got 5$"),
        ((5,), 0, None, "^each crossing must be iterable, got 5$"),
        (((1, 1, 2, 2),), 0, 3, "^signs must be iterable, got 3$"),
    ):
        with pytest.raises(dg.PDError, match=message):
            dg.LinkDiagram(crossings, loops, signs)
    # list input is kept as a tuple, so the diagram stays hashable
    listed = dg.LinkDiagram(((3, 2, 4, 1), (4, 1, 3, 2)), 0, [-1, -1])
    assert listed.signs == (-1, -1) and hash(listed) == hash(dg.BUILDERS["hopf_neg"]())


def test_check_algebra_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(fr.a5(1, 1).to_json()))
    code, out = run(capsys, "check-algebra", str(good), "--json")
    assert code == 0
    assert all(json.loads(out).values())

    code, _ = run(capsys, "relations", str(good))
    assert code == 0

    # bad input exits 2 with an error line, never 1 or a traceback
    no_mult = {k: v for k, v in fr.a5(1, 1).to_json().items() if k != "mult"}
    third = fr.a5(1, 1, GF(3)).to_json()
    third["mult"][0][0][0] = "1/3"  # 3 is not a unit mod 3
    floaty = fr.a5(1, 1).to_json()
    floaty["mult"][1][1][0] = 1.5  # was truncated to 1 over Z
    booly = fr.a5(1, 1, QQ).to_json()
    booly["comult"][0][0][1] = True  # was read as 1
    float_p = fr.a5(1, 1, GF(5)).to_json()
    float_p["ring"]["p"] = 5.0  # was a pow() traceback
    float_rank = dict(fr.a5(1, 1).to_json(), rank=2.0)  # was a range() traceback
    zero_den = fr.a5(1, 1, QQ).to_json()
    zero_den["mult"][0][0][0] = "1/0"  # was a ZeroDivisionError traceback
    for name, data in (
        ("no_mult.json", no_mult),
        ("third.json", third),
        ("floaty.json", floaty),
        ("booly.json", booly),
        ("float_p.json", float_p),
        ("float_rank.json", float_rank),
        ("zero_den.json", zero_den),
    ):
        bad = tmp_path / name
        bad.write_text(json.dumps(data))
        for argv in (
            ("check-algebra", str(bad)),
            ("relations", str(bad)),
            ("homology", "builder:hopf_pos", "--algebra", str(bad)),
        ):
            assert main(list(argv)) == 2, argv
            assert capsys.readouterr().err.startswith("error: ")


def test_tripled_coproduct_is_injective_but_not_split(tmp_path, capsys):
    # Z[x]/x^2 with a5(0, 0)'s coproduct tripled and no counit: the coproduct
    # has full rank, but its invariant factors are 3, and the counit would
    # send x to 1/3
    A = fr.a5(0, 0)
    F = fr.FrobeniusData(ZZ, 2, A.mult, [[[3 * x for x in row] for row in d] for d in A.comult])
    f = tmp_path / "tripled.json"
    f.write_text(json.dumps(F.to_json()))
    code, out = run(capsys, "check-algebra", str(f), "--json")
    flags = json.loads(out)
    assert code == 0
    assert flags["mult_surjective"] and flags["comult_injective"] and flags["frobenius_relation"]
    assert not flags["comult_split_injective"] and not flags["counit_ok"]
    assert run(capsys, "relations", str(f))[0] == 0


def test_string_vectors_are_rejected(tmp_path, capsys):
    # a string's characters read as scalars: each of these exited 0, with
    # "unit": "10" read as the unit (1, 0)
    a5 = fr.a5(1, 1).to_json()
    one = {"ring": {"kind": "Z"}, "rank": 1, "mult": [[[1]]], "comult": [[[1]]]}
    cases = {
        "unit": (dict(a5, unit="10"), "unit must be a list, got '10'"),
        "counit": (dict(a5, counit="01"), "counit must be a list, got '01'"),
        "tensor": (dict(one, mult="1"), "structure tensor must be a list, got '1'"),
        "slice": (dict(one, comult=["1"]), "structure tensor must be a list, got '1'"),
        "row": (dict(a5, mult=[["10", "01"], ["01", "11"]]), "structure tensor must be a list, got '10'"),
    }
    for name, (data, message) in cases.items():
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(data))
        for argv in (("check-algebra", str(f)), ("relations", str(f), "--json")):
            assert main(list(argv)) == 2, argv
            assert capsys.readouterr().err == f"error: {f}: {message}\n"
    # scalars may still be strings
    halves = {"ring": {"kind": "Q"}, "rank": 1, "mult": [[["1/2"]]], "comult": [[["2"]]],
              "unit": ["2"], "counit": ["1/2"]}
    f = tmp_path / "halves.json"
    f.write_text(json.dumps(halves))
    code, out = run(capsys, "check-algebra", str(f), "--json")
    assert code == 0 and all(json.loads(out).values())


def test_classify_and_gap_exit_code(tmp_path, capsys):
    t = rank2.representative("m2_7", (), GF(2))
    f = tmp_path / "t.json"
    f.write_text(json.dumps(t.to_json()))
    code, out = run(capsys, "classify", str(f), "--json")
    assert code == 0
    assert json.loads(out)["family"] == "m2_7"

    # F_25 = F_5[x]/(x^2 - 2): -1 is a square mod 5, so no paper family has
    # it, and the Fp2 row does
    field = rank2.MultTable(GF(5), (1, 0), (0, 1), (2, 0))
    f2 = tmp_path / "field.json"
    f2.write_text(json.dumps(field.to_json()))
    code, out = run(capsys, "classify", str(f2))
    assert (code, out) == (0, "Fp2 (2,)\n")

    for bad in ("1/3", "1/0"):  # 3 is not a unit mod 3; "1/0" was a ZeroDivisionError traceback
        third = rank2.MultTable(GF(3), (1, 0), (0, 1), (0, 0)).to_json()
        third["products"]["e1e1"][0] = bad
        f3 = tmp_path / "third.json"
        f3.write_text(json.dumps(third))
        assert main(["classify", str(f3)]) == 2, bad
        assert capsys.readouterr().err.startswith("error: ")

    # the commutative flag must agree with the presence of "e2e1"
    comm = rank2.MultTable(GF(3), (1, 0), (0, 1), (0, 0)).to_json()
    noncomm = rank2.MultTable(GF(3), (1, 0), (0, 1), (0, 0), (0, 2)).to_json()
    comm["commutative"], noncomm["commutative"] = False, True
    for name, data in (("flag_false.json", comm), ("flag_true.json", noncomm)):
        f4 = tmp_path / name
        f4.write_text(json.dumps(data))
        assert main(["classify", str(f4)]) == 2, name
        assert capsys.readouterr().err.startswith("error: ")

    # a table that writes out e2e1 equal to e1e2 is commutative, and classified
    explicit = rank2.MultTable(GF(3), (1, 0), (0, 1), (0, 0), (0, 1)).to_json()
    f5 = tmp_path / "explicit.json"
    f5.write_text(json.dumps(explicit))
    assert run(capsys, "classify", str(f5), "--json") == (0, '{"family":"m9","params":[1]}\n')


def test_algebra_file_takes_the_ring_option(tmp_path, capsys):
    # --ring re-rings the data read by --algebra, as it does --a5's
    f = tmp_path / "a5.json"
    f.write_text(json.dumps(fr.a5(0, 0).to_json()))
    diagram = "builder:trefoil_left"
    code, out = run(capsys, "homology", diagram, "--algebra", str(f), "--ring", "Fp:2", "--json")
    assert code == 0
    assert out == run(capsys, "homology", diagram, "--a5", "0,0", "--ring", "Fp:2", "--json")[1]
    assert out != run(capsys, "homology", diagram, "--algebra", str(f), "--json")[1]


def test_a_declared_rational_unit_does_not_block_the_ring_option(tmp_path, capsys):
    # --ring Z re-rings the tensors and solves their identities.  The
    # declared (1/2, 0) and (0, 1/3), true over Q, exited 2 with "1/2 is
    # not an integer", and F_5's (3, 0) and (0, 2) with "declared unit is
    # not a two-sided identity", while the same files without them ran
    outputs = []
    for name in ("scaled_q.json", "scaled_q_unit.json", "scaled_f5_unit.json"):
        f = tmp_path / name
        f.write_text(json.dumps(ALGEBRAS[name]))
        argv = ("homology", "builder:trefoil_left", "--algebra", str(f), "--ring", "Z", "--normalize", "--json")
        outputs.append((main(list(argv)), capsys.readouterr()))
    assert outputs[0][0] == 0 and not outputs[0][1].err
    assert outputs[1] == outputs[0] == outputs[2]


def test_text_mode_classify_and_verify(tmp_path, capsys):
    f = tmp_path / "dual.json"
    f.write_text(json.dumps(rank2.MultTable(GF(3), (1, 0), (0, 1), (0, 0)).to_json()))
    assert run(capsys, "classify", str(f)) == (0, "m9 (1,)\n")
    want = "thm1.2 over F_3: 729 candidates (associative=105, surjective=72), 0 counterexamples\n"
    assert run(capsys, "verify", "thm1.2", "--p", "3") == (0, want)


def test_classify_rejects_malformed_products(tmp_path, capsys):
    # each was a traceback (IndexError, AttributeError) or, for the triple
    # and the numbers standing for booleans, silently read and classified
    good = rank2.MultTable(GF(3), (1, 0), (0, 1), (0, 0)).to_json()
    noncomm = rank2.MultTable(GF(3), (1, 0), (0, 1), (0, 0), (0, 0)).to_json()
    short, flat, long = (dict(good) for _ in range(3))
    short["products"] = dict(good["products"], e1e1=[1])
    flat["products"] = [1, 2]
    long["products"] = dict(good["products"], e1e1=[1, 0, 7])
    for name, data, why in (
        ("short.json", short, "a product must be a pair"),
        ("flat.json", flat, '"products" must be an object'),
        ("long.json", long, "a product must be a pair"),
        ("one.json", dict(good, commutative=1), '"commutative" must be true'),
        ("zero.json", dict(noncomm, commutative=0), '"commutative" must be true'),
    ):
        f = tmp_path / name
        f.write_text(json.dumps(data))
        assert main(["classify", str(f)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and why in err and "Traceback" not in err, name


def test_parser_survives_a_usage_error(capsys):
    # the parser is built once per process; a failed parse must not leak
    # into the next call
    assert main(["homology", "builder:unknot_0", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, out = run(capsys, "homology", "builder:unknot_0", "--a5", "0,0", "--json")
    assert code == 0
    assert [g["free_rank"] for g in json.loads(out)["groups"]] == [2]


ONE_CALL = "import sys; from frobknot.cli import main; sys.exit(main())"
# three in-process calls: after the first meets the closed pipe, the rest
# must not fail on it either
THREE_CALLS = "import sys; from frobknot.cli import main; sys.exit(max([main() for _ in range(3)]))"


@pytest.mark.parametrize(
    "code, argv",
    [
        (ONE_CALL, ["bracket", "builder:trefoil_left", "--json"]),
        (THREE_CALLS, ["verify", "thm1.1", "--p", "5", "--json"]),
    ],
    ids=["one call", "three calls"],
)
def test_closed_stdout_exits_quietly(code, argv):
    # the reader has closed the pipe before the CLI writes a byte
    src = str(Path(cli.__file__).resolve().parents[1])
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            stdout=w,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (0, b"")


def test_a_reader_that_stops_early_ends_the_run_quietly():
    # frobknot verify thm1.2 --p 13 | head -c 1
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", ONE_CALL, "verify", "thm1.2", "--p", "13"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.read(1) == b"t"
    proc.stdout.close()
    assert (proc.wait(timeout=120), proc.stderr.read()) == (0, b"")
    proc.stderr.close()


# verify target -> the report names of its default run, and the error line of
# each option set it refuses, over the options none, --p 3, --zbound 1 and both
_ZBOUND_ERR = "verify {} takes no --zbound; only thm1.2 runs over a Z box"
VERIFY_MATRIX = {
    "thm1.1": (["thm1.1 over F_2", "thm1.1 over F_3"], {"z": _ZBOUND_ERR, "pz": _ZBOUND_ERR}),
    "thm1.2": (
        ["thm1.2 over F_2", "thm1.2 over F_3", "thm1.2 over F_5", "thm1.2 over Z box [-2,2]"],
        {"pz": "verify {} takes --p or --zbound, not both"},
    ),
    "prop3.4": (
        ["prop3.4 sweeps over F_3", "prop3.4 sweeps over F_5"],
        {"z": _ZBOUND_ERR, "pz": _ZBOUND_ERR},
    ),
    "char2": (
        ["char-2 classification over F_2"],
        {"p": "verify {} runs over F_2 only and takes no --p", "z": _ZBOUND_ERR, "pz": _ZBOUND_ERR},
    ),
    "noncomm": (
        ["noncommutative targets over F_2", "noncommutative targets over F_3"],
        {"z": _ZBOUND_ERR, "pz": _ZBOUND_ERR},
    ),
}


@pytest.mark.parametrize("target", VERIFY_MATRIX)
def test_verify_option_matrix(capsys, target):
    names, refused = VERIFY_MATRIX[target]
    options = {"": [], "p": ["--p", "3"], "z": ["--zbound", "1"], "pz": ["--p", "3", "--zbound", "1"]}
    for key, opts in options.items():
        code = main(["verify", target, *opts, "--json"])
        out, err = capsys.readouterr()
        if key in refused:
            assert (code, out, err) == (2, "", f"error: {refused[key].format(target)}\n"), key
            continue
        assert (code, err) == (0, ""), key
        reports = json.loads(out)
        if key == "":
            assert [r["name"] for r in reports] == names
        else:
            assert len(reports) == 1 and reports[0]["name"].endswith("F_3" if key == "p" else "[-1,1]")


def test_a_prime_beyond_the_search_bound_exits_2_at_once(tmp_path, capsys):
    # each held range(p) in memory and ran out of it; the bound is checked
    # before any search
    big = "2147483647"
    table, big_table = tmp_path / "f3.json", tmp_path / "big.json"
    table.write_text(json.dumps(_F3_TABLE))
    big_table.write_text(json.dumps(dict(_F3_TABLE, ring={"kind": "Fp", "p": int(big)})))
    for argv in (
        ["verify", "thm1.2", "--p", big],
        ["verify", "thm1.1", "--p", big],
        ["verify", "noncomm", "--p", big],
        ["classify", str(big_table)],
        ["classify", str(table), "--p", big],
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: exhaustive search runs over F_p with p <= 13, got p = {big}\n")
    assert rank2.MAX_SEARCH_P == 13


def test_a_z_box_beyond_the_search_bound_exits_2_at_once():
    # the box one past the bound would search for over a minute; the refusal
    # comes before any search, in about the interpreter's start-up time
    src = str(Path(cli.__file__).resolve().parents[1])
    bound = rank2.MAX_ZBOUND + 1
    done = subprocess.run(
        [sys.executable, "-c", ONE_CALL, "verify", "thm1.2", "--zbound", str(bound)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=5,
    )
    want = f"error: the Z box bound must be in 0..{rank2.MAX_ZBOUND}, got {bound}\n"
    assert (done.returncode, done.stdout, done.stderr.decode()) == (2, b"", want)
    assert rank2.MAX_ZBOUND == 40


def test_usage_errors_exit_2(capsys):
    assert main(["homology"]) == 2  # missing diagram
    assert main(["homology", "builder:nope", "--a5", "0,0"]) == 2
    assert main(["homology", "builder:unknot_0", "--a5", "0,0", "--algebra", "x"]) == 2
    assert main(["verify", "bogus"]) == 2
    assert main(["verify", "thm1.2", "--zbound", "-1"]) == 2
    assert main(["verify", "thm1.1", "--p", "0"]) == 2  # not the default battery
    for target in ("thm1.1", "noncomm"):
        assert main(["verify", target, "--p", "4"]) == 2
    # a composite above 2**31 is refused by the bound, before any trial division
    ring = "Fp:1000000016000000063"
    assert main(["homology", "builder:hopf_pos", "--a5", "0,0", "--ring", ring]) == 2
    capsys.readouterr()


def test_nonplanar_and_phantom_orient_inputs_exit_2(tmp_path, capsys):
    nonplanar = tmp_path / "nonplanar.pd"
    nonplanar.write_text("X 1 2 1 2\n")
    assert run(capsys, "bracket", str(nonplanar), "--json") == (0, '{"bracket":{"-1":1,"1":1}}\n')
    code = main(["homology", str(nonplanar), "--a5", "0,0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {nonplanar}: crossing 1 (X 1 2 1 2)")
    for text in ("X 1 1 2 2\nORIENT 1 2 7\n", "O\nORIENT 1 2\n", "X 1 1 2 2\nSIGNS +\nORIENT 1 2 7\n"):
        phantom = tmp_path / "phantom.pd"
        phantom.write_text(text)
        code = main(["homology", str(phantom), "--a5", "0,0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "which no crossing has" in captured.err


_F3_TABLE = rank2.MultTable(GF(3), (1, 0), (0, 1), (0, 0)).to_json()


@pytest.mark.parametrize(
    "argv, text, message",
    [
        # each printed a Python-internal message, or no path
        (["classify"], json.dumps(fr.a5(0, 0).to_json()), "missing key 'products'"),
        (["classify"], "[1, 2]", "expected a JSON object, got list"),
        (["check-algebra"], "[1, 2]", "expected a JSON object, got list"),
        (["classify"], json.dumps(dict(_F3_TABLE, ring="Z")), "\"ring\" must be an object, got 'Z'"),
        (["classify"], json.dumps(dict(_F3_TABLE, ring={"kind": "Fp", "p": "3"})),
         "F_p requires a prime p <= 2**31, got '3'"),
        (["homology", "--a5", "0,0", "--normalize"], "X 1 1 2 2\n",
         "normalization needs an oriented diagram (sign counts)"),
        (["bracket"], "X 1 2 a 4\n", "malformed crossing line: 'X 1 2 a 4'"),
    ],
    ids=["missing key", "classify a list", "check a list", "ring string", "p string", "unsigned", "label"],
)
def test_input_errors_name_what_is_wrong(tmp_path, capsys, argv, text, message):
    f = tmp_path / "input"
    f.write_text(text)
    assert main([argv[0], str(f), *argv[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {f}: {message}\n")


_A5 = fr.a5(0, 0).to_json()
_HOPF = dg.BUILDERS["hopf_pos"]()
_SHAPE = "a generator reads 2 distinct positions into 1 or 1 into 2, each in range"


@pytest.mark.parametrize(
    "call, message, via_cli",
    [
        (lambda: dg.parse_pd("O 3\n"), "malformed loop line: 'O 3'", ("O 3\n", ["bracket", "{f}"])),
        (lambda: dg.parse_pd("X 1 1 2 2\nORIENT 1 b\n"), "malformed ORIENT line: 'ORIENT 1 b'",
         ("X 1 1 2 2\nORIENT 1 b\n", ["bracket", "{f}"])),
        (lambda: dg.parse_pd("X 1 1 2 2\nSIGNS + -\n"), "SIGNS must list one sign per crossing",
         ("X 1 1 2 2\nSIGNS + -\n", ["bracket", "{f}"])),
        (lambda: dg.parse_pd("X 1 1 2 2\nORIENT 1\nORIENT 2\n"), "ORIENT data does not connect arcs 1 and 2",
         ("X 1 1 2 2\nORIENT 1\nORIENT 2\n", ["homology", "{f}", "--a5", "0,0"])),
        (lambda: cli._algebra_from_args(cli._build_parser().parse_args(["homology", "x", "--a5", "x,0"])),
         "--a5 expects two integers: H,T", (None, ["homology", "builder:unknot_0", "--a5", "x,0"])),
        (lambda: fr.FrobeniusData.from_json(dict(_A5, unit=[1, 0, 0])), "unit has wrong length",
         (json.dumps(dict(_A5, unit=[1, 0, 0])), ["check-algebra", "{f}"])),
        (lambda: dg.resolve(_HOPF, (0,)), "state length does not match crossing count", None),
        (lambda: dg.resolve(_HOPF, (0, 2)), "state bits must be 0 or 1", None),
        (lambda: fr.generator_map(fr.a5(0, 0), 2, (0, 2), (0,)), _SHAPE, None),
        (lambda: fr.generator_map(fr.a5(0, 0), 1, (0,), (0, 1, 2)), _SHAPE, None),
        (lambda: fr.generator_map(fr.a5(0, 0), 2, (0, 0), (0,)), _SHAPE, None),
        (lambda: fr.FrobeniusData.from_json(dict(_A5, ring={"kind": "R"})), "unknown ring kind 'R'",
         (json.dumps(dict(_A5, ring={"kind": "R"})), ["relations", "{f}"])),
        (lambda: fr.FrobeniusData.from_json(dict(_A5, ring={"kind": "Z", "p": 3})), "Z takes no modulus",
         (json.dumps(dict(_A5, ring={"kind": "Z", "p": 3})), ["check-algebra", "{f}", "--json"])),
    ],
    ids=["O 3", "ORIENT 1 b", "SIGNS count", "ORIENT gap", "--a5 x,0", "unit length", "state length",
         "state bit", "merge", "split", "repeated position", "ring kind", "Z modulus"],
)
def test_input_error_branches(tmp_path, capsys, call, message, via_cli):
    # branches no other test reaches: the library's message, and the CLI's
    # exit 2 with that message (after the input's path) where it gets there
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message
    if via_cli is not None:
        text, argv = via_cli
        f = tmp_path / "input"
        f.write_text(text or "")
        assert main([str(f) if a == "{f}" else a for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {f}: {message}\n" if text else f"error: {message}\n")


def _parse_error(text) -> str:
    """The JSON parser's message on text, whose wording varies with the Python version."""
    try:
        json.loads(text)
    except ValueError as e:
        return str(e)
    raise AssertionError(f"{text[:20]}... parses")


@pytest.mark.parametrize(
    "argv, text, code, out, err",
    [
        (["bracket", "builder:trefoil_left"], None, 0, "-A^-5 - A^3 + A^7\n", ""),
        (["homology", "builder:unknot_0", "--a5", "0,0", "--ring", "W"], None, 2, "",
         "error: bad ring 'W'; expected Z, Q, or Fp:P\n"),
        (["homology", "{d}", "--a5", "0,0"], None, 2, "",
         "error: cannot read {d}: [Errno 21] Is a directory: '{d}'\n"),
        (["check-algebra", "{d}"], None, 2, "", "error: cannot read {d}: [Errno 21] Is a directory: '{d}'\n"),
        (["homology", "builder:unknot_0", "--a5", "0,0", "--ring", "Fp:9"], None, 2, "",
         "error: bad ring 'Fp:9': F_p requires a prime p <= 2**31, got 9\n"),
        (["bracket", "{f}"], "X 1 1 2 2\nSIGNS +\nSIGNS +\n", 2, "", "error: {f}: duplicate SIGNS header\n"),
        (["verify", "prop3.4", "--p", "7"], None, 2, "", "error: sweeps run over F_3 and F_5\n"),
        (["classify", "{f}"], json.dumps(dict(_F3_TABLE, ring={"kind": "Z"})), 2, "",
         "error: classification runs over prime fields\n"),
        # each printed a bare "'utf-8' codec can't decode" line, with no path
        (["bracket", "{f}"], b"X 1 1 2 2\xff\n", 2, "",
         "error: cannot read {f}: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte\n"),
        (["check-algebra", "{f}"], b"\xff{}", 2, "",
         "error: cannot read {f}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
        # each printed the parser's error with no path
        (["classify", "{f}"], "9" * 5000, 2, "", f"error: cannot read {{f}}: {_parse_error('9' * 5000)}\n"),
        (["check-algebra", "{f}"], "9" * 5000, 2, "", f"error: cannot read {{f}}: {_parse_error('9' * 5000)}\n"),
    ],
    ids=["bracket text", "ring W", "diagram dir", "json dir", "Fp:9", "SIGNS twice", "prop3.4 F_7", "classify Z",
         "pd not UTF-8", "json not UTF-8", "classify long number", "check-algebra long number"],
)
def test_cli_branches(tmp_path, capsys, argv, text, code, out, err):
    # branches no other test reached, with their whole output; {f} is a file
    # holding text (or these bytes), {d} a directory
    f = tmp_path / "input"
    if text is not None:
        f.write_bytes(text if isinstance(text, bytes) else text.encode())
    fill = lambda a: a.replace("{f}", str(f)).replace("{d}", str(tmp_path))
    assert main(list(map(fill, argv))) == code
    assert capsys.readouterr() == (out, fill(err))


# homology --a5 0,0 --normalize --json over Z as (i, free rank, torsion) rows,
# and bracket --json, of every built-in diagram, as first written down
FROZEN_BUILDERS = {
    "unknot_0": ([(0, 2, [])], {"0": 1}),
    "unknot_1kink_pos": ([(0, 2, []), (1, 0, [])], {"3": -1}),
    "unknot_1kink_neg": ([(-1, 0, []), (0, 2, [])], {"-3": -1}),
    "hopf_pos": ([(0, 2, []), (1, 0, []), (2, 2, [])], {"-4": -1, "4": -1}),
    "hopf_neg": ([(-2, 2, []), (-1, 0, []), (0, 2, [])], {"-4": -1, "4": -1}),
    "trefoil_left": ([(-3, 1, []), (-2, 1, [2]), (-1, 0, []), (0, 2, [])], {"-5": -1, "3": -1, "7": 1}),
    "trefoil_right": ([(0, 2, []), (1, 0, []), (2, 1, []), (3, 1, [2])], {"-3": -1, "-7": 1, "5": -1}),
    "figure10_d1": ([(-1, 0, []), (0, 4, []), (1, 0, [])], {"-2": -1, "2": -1}),
    "figure10_d2": ([(0, 4, [])], {"-2": -1, "2": -1}),
}


@pytest.mark.parametrize("name", list(dg.BUILDERS))
def test_builders_are_frozen(capsys, name):
    assert list(dg.BUILDERS) == list(FROZEN_BUILDERS)
    rows, bracket = FROZEN_BUILDERS[name]
    code, out = run(capsys, "homology", f"builder:{name}", "--a5", "0,0", "--normalize", "--json")
    assert code == 0
    assert json.loads(out) == {
        "groups": [{"i": i, "free_rank": f, "torsion": t} for i, f, t in rows],
        "normalized": True,
        "ring": {"kind": "Z"},
    }
    code, out = run(capsys, "bracket", f"builder:{name}", "--json")
    assert (code, json.loads(out)) == (0, {"bracket": bracket})


# --- fuzzing the input contract: 0 ok, 1 only for a failed relation, 2 for
# bad input, and never a traceback --------------------------------------------

_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "4", "5", "7", "-1", "+", "-", "X", "O", "SIGNS", "ORIENT", "#", "a", "1.5", ""]
)
_LEAVES = st.one_of(
    st.integers(-3, 7),
    st.sampled_from(["1/2", "1/0", "-2", "x", "", 1.5, True, None, [], {}, [0], 2**40, "Z", "Fp"]),
)
_RINGS = st.one_of(
    st.sampled_from(["Z", "Q", "Fp:2", "Fp:3", "Fp:5", "Fp:4", "Fp:0", "Fp:-3", "Fp:", "Fp:x", "R"]),
    st.text(alphabet="ZQFp:0123456789-", max_size=6),
)


def _pd_text(d) -> list:
    lines = [f"X {a} {b} {c} {e}" for a, b, c, e in d.crossings] + ["O"] * d.free_loops
    return lines + ["SIGNS " + " ".join("+" if s > 0 else "-" for s in d.signs)]


def _slots(x) -> list:
    """Every (container, key) pair in a JSON tree."""
    items = list(x.items()) if isinstance(x, dict) else list(enumerate(x)) if isinstance(x, list) else []
    return [(x, k) for k, _ in items] + [s for _, v in items for s in _slots(v)]


def _mutated_json(draw, data):
    data = json.loads(json.dumps(data))
    for _ in range(draw(st.integers(0, 2))):
        slots = _slots(data)
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            parent[key] = draw(_LEAVES)
        else:
            del parent[key]
    return data


def _sizes(below, top):
    """A size up to top, as often below the limit as past it."""
    return st.one_of(st.integers(1, below), st.integers(below + 1, top))


# up to and past the parser's limits: a nest of up to 2000 lists (the
# recursion limit is 1000 frames, which hypothesis raises by 2000 while a test
# runs), a number of up to 5000 digits (int reads 4300)
_HUGE = st.one_of(_sizes(999, 2000).map(lambda n: "[" * n + "]" * n), _sizes(4300, 5000).map(lambda n: "9" * n))


def _json_text(draw, data) -> str:
    """The JSON text of data; at random one of its slots, or the whole text, is a _HUGE value."""
    if draw(st.booleans()):
        return json.dumps(data)
    slots = _slots(data)
    if not slots or draw(st.booleans()):
        return draw(_HUGE)
    parent, key = draw(st.sampled_from(slots))
    parent[key] = "\0"
    return json.dumps(data).replace(json.dumps("\0"), draw(_HUGE))


@st.composite
def _cli_calls(draw):
    """(argv, files): a command line and the files it names, by placeholder."""
    kind = draw(st.sampled_from(["pd", "algebra", "table"]))
    ring = draw(st.one_of(st.none(), _RINGS))
    ring_opt = ["--ring", ring] if ring is not None else []
    if kind == "pd":
        lines = _pd_text(dg.BUILDERS[draw(st.sampled_from(list(dg.BUILDERS)))]())
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(lines)))
            tokens = draw(st.lists(_TOKENS, max_size=5))
            if i < len(lines) and draw(st.booleans()):
                parts = lines[i].split() or [""]
                parts[draw(st.integers(0, len(parts) - 1))] = tokens[0] if tokens else ""
                lines[i] = " ".join(parts)
            else:
                lines.insert(i, " ".join(tokens))
        a5 = draw(st.sampled_from(["0,0", "1,1", "2,-1", "x", "1"]))
        flags = draw(st.lists(st.sampled_from(["--normalize", "--json"]), unique=True))
        argv = draw(st.sampled_from([["homology", "{f}", "--a5", a5, *ring_opt, *flags], ["bracket", "{f}"]]))
        return argv, "\n".join(lines) + "\n"
    if kind == "algebra":
        R = draw(st.sampled_from([ZZ, QQ, GF(2), GF(3)]))
        base = fr.a5(draw(st.integers(-2, 2)), draw(st.integers(-2, 2)), R).to_json()
        for key in ("unit", "counit"):  # declared, they reject most changed tensors
            if draw(st.booleans()):
                del base[key]
        argv = draw(
            st.sampled_from(
                [
                    ["check-algebra", "{f}", "--json"],
                    ["relations", "{f}"],
                    ["homology", "builder:hopf_pos", "--algebra", "{f}", *ring_opt],
                ]
            )
        )
        return argv, _json_text(draw, _mutated_json(draw, base))
    R = draw(st.sampled_from([GF(2), GF(3), GF(5)]))
    pair = st.tuples(*[st.sampled_from(range(R.p))] * 2)
    table = rank2.MultTable(R, draw(pair), draw(pair), draw(pair), draw(st.one_of(st.none(), pair)))
    p = draw(st.one_of(st.none(), st.sampled_from([2, 3, 5]), st.integers(-1, 7)))
    argv = ["classify", "{f}", "--json"] + (["--p", str(p)] if p is not None else [])
    return argv, _json_text(draw, _mutated_json(draw, table.to_json()))


@settings(max_examples=150, deadline=None)
@given(_cli_calls())
@example((["classify", "{f}", "--json"], "[" * 2000 + "]" * 2000))
@example((["check-algebra", "{f}", "--json"], "9" * 5000))
def test_cli_fuzz_keeps_the_exit_code_contract(call):
    argv, text = call
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path if a == "{f}" else a for a in argv])
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith(("error: ", "usage: ")), err
    elif code == 1:
        assert argv[0] == "relations", (argv, err)
    else:
        assert code == 0 and err == "", (code, err)


def _echo(args) -> int:
    """A command that prints what it was given instead of running."""
    print(sorted((k, v) for k, v in vars(args).items() if k not in ("cmd", "fn")))
    return 0


def _echoing_parser(commands: bool):
    """A new parser as ``cli._build_parser`` makes it, every command running
    ``_echo``; with ``commands`` false it names no command parsers, so that
    ``main`` parses every argv with the top-level parser."""
    ap = cli._build_parser.__wrapped__()
    for p in ap.commands.values():
        p.set_defaults(fn=_echo)
    if not commands:
        ap.commands = {}
    return ap


_DIRECT, _TOP_LEVEL = _echoing_parser(True), _echoing_parser(False)
_COMMANDS = ["homology", "bracket", "check-algebra", "relations", "classify", "verify"]
_ARGV_TOKENS = st.sampled_from(
    _COMMANDS
    + ["--algebra", "--a5", "--ring", "--normalize", "--json", "--p", "--zbound"]  # their options
    + ["builder:hopf_pos", "0,0", "Z", "Fp:3", "5", "-1", "thm1.2", "char2", "x.json"]  # values
    + ["--bogus", "-x", "--", "-", "--jso", "--p=3", "--json=1", "nope", "", "-h", "--help"]  # junk, help
)


def _parsed_by(ap, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setattr(cli, "_build_parser", lambda: ap)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_ARGV_TOKENS, max_size=6),
                 st.builds(lambda c, rest: [c, *rest], st.sampled_from(_COMMANDS), st.lists(_ARGV_TOKENS, max_size=5))))
def test_the_command_parser_reads_argv_as_the_top_level_parser_does(argv):
    # main hands the arguments to the named command's parser; every exit
    # code, help text, usage error and parsed value is the one that the
    # top-level parser gives on the same argv
    assert _parsed_by(_DIRECT, argv) == _parsed_by(_TOP_LEVEL, argv)


def test_homology_never_solves_the_quantum_grading(monkeypatch, capsys):
    # the grading is read only by the graded Euler characteristic, which
    # solves it once, on its first read
    solved, grading = [], fr._grading
    monkeypatch.setattr(fr, "_grading", lambda F: solved.append(F) or grading(F))
    argv = ["homology", "builder:trefoil_left", "--a5", "0,0", "--normalize", "--json"]
    assert main(argv) == 0 and json.loads(capsys.readouterr().out)["normalized"] is True
    d = dg.BUILDERS["trefoil_left"]()
    C = cx.chain_complex(d, fr.a5(0, 0), normalize=True)
    cx.homology(C)
    assert solved == []
    assert cx.graded_euler_characteristic(C) == cx.graded_euler_characteristic(C) == cx.jones_from_bracket(d)
    assert len(solved) == 1


def test_the_cli_imports_no_typing_dataclasses_or_inspect():
    # -S: no site, whose .pth files may load typing first, so every module
    # listed is one that importing frobknot.cli loads
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import frobknot.cli; "
        "print(sorted({'typing', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
