"""The README lists every public name that the library itself never calls.

A public module-level function or method of ``src/frobknot`` whose name
appears nowhere else in ``src/`` (as a name or an attribute) is either API
or waits for a caller; the README's section "Public names without a
library caller" says which, one bullet per reason.  So each such name must
be listed there, and each listed name must still exist.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEADING = "### Public names without a library caller"


def _mention(n):
    """The name an ast node mentions, as a name or an attribute, or None."""
    return n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None


def public_defs() -> dict:
    """Each public module-level function and method, by its qualified
    name, module.function or module.Class.method."""
    defs = {}
    for path in sorted((ROOT / "src" / "frobknot").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                members = [(f"{path.stem}.{node.name}", sub) for sub in node.body]
            else:
                members = [(path.stem, node)]
            for owner, sub in members:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    defs[f"{owner}.{sub.name}"] = sub
    return defs


def uncalled() -> set:
    """The public defs whose name no other src/ code mentions."""
    mentions = Counter()
    for path in (ROOT / "src" / "frobknot").glob("*.py"):
        mentions.update(map(_mention, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    return {
        qualified for qualified, node in public_defs().items()
        if mentions[node.name] == sum(_mention(n) == node.name for n in ast.walk(node))
    }


def listed():
    """The backquoted names before the colon of each bullet in the README section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(HEADING + "\n", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.M)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("- "):
            names.update(re.findall(r"`([\w.]+)`", line.split(": ", 1)[0]))
    return names


def test_every_uncalled_public_name_is_listed_in_the_readme():
    assert uncalled() - listed() == set()


def test_every_listed_name_exists():
    assert listed() and listed() - public_defs().keys() == set()
