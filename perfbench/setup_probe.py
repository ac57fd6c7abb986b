"""Loading of the benchmark's inputs, and one set-up measurement.

``load_inputs`` loads every input once through the library; run.py and the
self-check use it in-process.  Run as a script, this file measures set-up in
a fresh process: import frobknot, then ``load_inputs``.  It prints the
reference seconds taken (see refclock.py).

    python3 setup_probe.py SRC_DIR MANIFEST_JSON
"""

import json
import sys

from refclock import RefClock


def load_inputs(pd_files, table_files) -> list:
    """Parse every PD file and every table file; returns the diagrams."""
    from frobknot import diagram, rank2

    diagrams = []
    for path in pd_files:
        with open(path, encoding="utf-8") as fh:
            diagrams.append(diagram.parse_pd(fh.read()))
    for path in table_files:
        with open(path, encoding="utf-8") as fh:
            rank2.MultTable.from_json(json.load(fh))
    return diagrams


if __name__ == "__main__":
    with open(sys.argv[2], encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, sys.argv[1])
    with RefClock() as clock:
        from frobknot import cli  # noqa: F401  (imports every library module)

        load_inputs(manifest["pd"], manifest["tables"])
    print(clock.ref)
