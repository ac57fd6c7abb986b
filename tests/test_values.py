"""The value-class contract: the nine classes compare and hash by their
fields, are immutable, and keep cached values out of both; and the CLI
starts without ``dataclasses`` or ``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from frobknot import complex as cx
from frobknot import diagram as dg
from frobknot import frobenius as fr
from frobknot import linalg
from frobknot.rank2 import MultTable
from frobknot.rings import GF, QQ, ZZ, Value
from frobknot.verifier import VerifyReport


def hopf():
    return dg.LinkDiagram(((3, 2, 4, 1), (4, 1, 3, 2)), 0, (-1, -1))


def matrix():
    return linalg.ExactMatrix(ZZ, 2, 3, (((0, 2), (2, -1)), ((1, 3),)))


# each builds a fresh instance with the same fields on every call
FRESH = {
    "RingSpec": lambda: GF(5),
    "LinkDiagram": hopf,
    "ResolutionCube": lambda: dg.build_cube(hopf()),
    "ExactMatrix": matrix,
    "FrobeniusData": lambda: fr.a5(1, 1, QQ),
    "ChainComplex": lambda: cx.chain_complex(hopf(), fr.a5(0, 0), normalize=True),
    "HomologyTable": lambda: cx.homology(cx.chain_complex(hopf(), fr.a5(0, 0))),
    "MultTable": lambda: MultTable(GF(3), (1, 0), (0, 1), (2, 1), (0, 2)),
    "VerifyReport": lambda: VerifyReport("thm", 9, {"associative": 3}, [{"kind": "x"}]),
}


def test_the_nine_classes_are_the_value_classes():
    assert sorted(FRESH) == sorted(c.__name__ for c in Value.__subclasses__())
    assert all(type(make()).__name__ == name for name, make in FRESH.items())


@pytest.mark.parametrize("name", sorted(FRESH))
def test_equality_reads_every_field_and_the_class(name):
    a, b = FRESH[name](), FRESH[name]()
    assert a is not b and a == b and not a != b
    if name != "VerifyReport":
        assert hash(a) == hash(b)
    else:  # its stages are a dict and its counterexamples a list
        with pytest.raises(TypeError):
            hash(a)
    fields = type(a)._fields
    assert fields and set(fields) <= set(vars(a))
    for f in fields:  # each field on its own breaks equality
        c = FRESH[name]()
        vars(c)[f] = object()
        assert a != c and c != a
    # an instance of another class with the same fields and values
    twin = object.__new__(type(name, (type(a),), {}))
    vars(twin).update(vars(a))
    assert a != twin and twin != a
    assert a != tuple(getattr(a, f) for f in fields)
    shown = repr(a)
    assert shown.startswith(f"{name}(") and all(f"{f}=" in shown for f in fields)


@pytest.mark.parametrize("name", sorted(FRESH))
def test_the_constructor_takes_the_fields_in_order(name):
    # the five classes that check their input keep their own constructors;
    # the four plain ones take exactly their fields, positionally
    a = FRESH[name]()
    values = [getattr(a, f) for f in type(a)._fields]
    assert type(a)(*values) == a
    plain = {"ChainComplex", "HomologyTable", "ResolutionCube", "VerifyReport"}
    assert (type(a).__init__ is Value.__init__) == (name in plain)
    if name in plain:
        for wrong in (values[:-1], values + [None]):
            with pytest.raises(TypeError, match=f"{name} takes {len(values)} values, got {len(wrong)}"):
                type(a)(*wrong)
        with pytest.raises(TypeError):
            type(a)(**dict(zip(type(a)._fields, values)))


@pytest.mark.parametrize("name", sorted(FRESH))
def test_fields_cannot_be_assigned_or_deleted(name):
    a = FRESH[name]()
    for f in (*type(a)._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(a, f, 0)
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert a == FRESH[name]()


def test_cached_values_take_no_part_in_equality():
    m = matrix()
    h = hash(m)
    assert linalg.rank(m) == 2 and "_reduced" in vars(m)
    assert m == matrix() and hash(m) == h
    F = fr.a5(0, 0, QQ)
    assert (F.unit, F.counit, F.grading) == ((1, 0), (0, 1), (1, -1))
    assert {"unit", "counit", "grading"} <= set(vars(F))
    assert F == fr.a5(0, 0, QQ) and hash(F) == hash(fr.a5(0, 0, QQ))
    cube = dg.build_cube(hopf())
    assert len(cube.circles) == 4 and "circles" in vars(cube)
    assert cube == dg.build_cube(hopf()) and hash(cube) == hash(dg.build_cube(hopf()))
    d = hopf()
    assert d.arc_count == 4


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    src = str(Path(cx.__file__).resolve().parents[1])
    code = "import sys, frobknot.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
