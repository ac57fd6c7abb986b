"""The README lists every public name that the library itself never calls.

A public module-level function or method of ``src/frobknot`` that no other
``src/`` code mentions is either API or waits for a caller; the README's
section "Public names without a library caller" says which, one bullet per
reason.  So each such name must be listed there, and each listed name must
still exist.  A method counts as mentioned only through an attribute,
``x.name``, and a module-level function through its bare name or through
``module.name`` (under the alias the module is imported as), so a local
variable that shares a method's name hides nothing.  What remains is that
any attribute of that name counts for a method: ``RingSpec.elements`` is
counted as called through ``Counter.elements()`` in ``linalg._reduce``, and
``FrobeniusData.to_json`` through the other classes' ``to_json``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEADING = "### Public names without a library caller"


def _mentions(tree) -> Counter:
    """What tree mentions: (".", name) for each attribute x.name, ("", name)
    for each bare name, and (module, name) for each attribute alias.name
    where alias is how the package's module ``module`` is imported."""
    aliases = {a.asname or a.name: a.name for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) and n.module is None for a in n.names}
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out["", n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[".", n.attr] += 1
            if isinstance(n.value, ast.Name) and n.value.id in aliases:
                out[aliases[n.value.id], n.attr] += 1
    return out


def _count(mentions: Counter, name: str, module: str | None) -> int:
    """The mentions of a method (module None) or of a function of module."""
    return mentions[".", name] if module is None else mentions["", name] + mentions[module, name]


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "frobknot").glob("*.py"))}


def public_defs() -> dict:
    """Each public module-level function and method, by its qualified
    name, module.function or module.Class.method, as (def node, its module
    for a function or None for a method)."""
    defs = {}
    for stem, tree in _trees().items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = [(f"{stem}.{node.name}", sub, None) for sub in node.body]
            else:
                members = [(stem, node, stem)]
            for owner, sub, module in members:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    defs[f"{owner}.{sub.name}"] = (sub, module)
    return defs


def uncalled() -> set:
    """The public defs that no other src/ code mentions."""
    mentions = sum(map(_mentions, _trees().values()), Counter())
    return {
        qualified for qualified, (node, module) in public_defs().items()
        if _count(mentions, node.name, module) == _count(_mentions(node), node.name, module)
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
