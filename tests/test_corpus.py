"""The CLI's outputs on the corpus inputs (see tests/corpus.py) are the
ones stored in tests/corpus.json."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location("corpus", Path(__file__).resolve().parent / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def test_outputs_match_the_corpus():
    want = json.loads(corpus.CORPUS.read_text())
    got = corpus.outputs()
    for key in sorted(want.keys() | got.keys()):
        assert got.get(key) == want.get(key), f"first differing entry: {key}"
