"""The CLI's outputs on the corpus inputs (see tests/corpus.py) are the
ones stored in tests/corpus.json."""

import json

import corpus


def test_outputs_match_the_corpus():
    want = json.loads(corpus.CORPUS.read_text())
    got = corpus.outputs()
    for key in sorted(want.keys() | got.keys()):
        assert got.get(key) == want.get(key), f"first differing entry: {key}"
