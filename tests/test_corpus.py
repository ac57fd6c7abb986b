"""The CLI's outputs on the corpus inputs (see tests/corpus.py) are the
ones stored in tests/corpus.json."""

import json

import corpus

# pairs of command lines that print the same bytes (see tests/corpus.py)
SAME_OUTPUT = [
    ("homology trefoil_signs.pd --a5 0,0 --normalize --json",
     "homology trefoil_orient.pd --a5 0,0 --normalize --json"),
    ("homology builder:trefoil_left --algebra scaled.json --normalize --json",
     "homology builder:trefoil_left --algebra scaled_q_unit.json --ring Z --normalize --json"),
]


def test_outputs_match_the_corpus():
    want = json.loads(corpus.CORPUS.read_text())
    got = corpus.outputs()
    for key in sorted(want.keys() | got.keys()):
        assert got.get(key) == want.get(key), f"first differing entry: {key}"


def test_paired_commands_print_the_same_bytes():
    want = json.loads(corpus.CORPUS.read_text())
    for a, b in SAME_OUTPUT:
        assert a in want and b in want, (a, b)
        assert (want[a]["exit"], want[a]["stdout"]) == (want[b]["exit"], want[b]["stdout"]), (a, b)
