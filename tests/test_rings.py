from fractions import Fraction

import pytest

from frobknot.rings import QQ, ZZ, GF, RingSpec


def test_fp_elements():
    assert sorted(GF(5).elements()) == [0, 1, 2, 3, 4]


def test_fp_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(5.0)  # a JSON float modulus would make float residues
    with pytest.raises(ValueError, match="p <= 2"):
        GF(1000000016000000063)  # (10**9 + 7)(10**9 + 9), past the bound


def test_q_normalize_accepts_strings():
    assert QQ.normalize("3/4") == Fraction(3, 4)
    assert QQ.normalize("7") == Fraction(7)
    assert QQ.normalize(Fraction(1, 2)) == Fraction(1, 2)


def test_fp_normalize_residues():
    F3 = GF(3)
    assert F3.normalize(-1) == 2
    assert F3.normalize(7) == 1
    assert F3.normalize("5") == 2
    assert F3.normalize("1/2") == 2
    with pytest.raises(ValueError):
        F3.normalize("1/3")  # 3 is not a unit mod 3


def test_normalize_rejects_floats_and_bools():
    # JSON numbers like 1.5 or true are not exact scalars; 1.0 is refused too
    for ring in (ZZ, QQ, GF(3)):
        for x in (1.5, 0.1, 1.0, -3.0, 2.0**70, True, False, "1/0"):
            with pytest.raises(ValueError):
                ring.normalize(x)
    assert ZZ.normalize(1) == 1 and type(QQ.normalize(1)) is Fraction


def test_normalize_result_types_per_ring():
    # an int over Z, a Fraction over Q and a residue in range(p) over F_p,
    # from plain ints (negative ones and ones past 2**64 too) and from the
    # Fraction and string paths alike
    big = 2**64 + 3
    for x in (0, 1, -1, -7, big, -big, Fraction(-6, 2), "-7", str(big)):
        value = int(x)
        assert type(ZZ.normalize(x)) is int and ZZ.normalize(x) == value
        assert type(QQ.normalize(x)) is Fraction and QQ.normalize(x) == value
        for p in (2, 3, 2**31 - 1):
            r = GF(p).normalize(x)
            assert type(r) is int and r in range(p) and (r - value) % p == 0


def test_json_round_trip():
    for ring in (ZZ, QQ, GF(2), GF(5)):
        assert RingSpec.from_json(ring.to_json()) == ring


def test_modulus_is_zero_over_z_and_q():
    # p is what the kernels reduce by, so 0 over Z and Q; only F_p writes it
    assert (ZZ.p, QQ.p, GF(7).p) == (0, 0, 7)
    assert (ZZ.to_json(), QQ.to_json(), GF(7).to_json()) == ({"kind": "Z"}, {"kind": "Q"}, {"kind": "Fp", "p": 7})
    for kind in ("Z", "Q"):
        for p in (0, 3):
            with pytest.raises(ValueError, match=f"{kind} takes no modulus"):
                RingSpec(kind, p)
            with pytest.raises(ValueError, match=f"{kind} takes no modulus"):
                RingSpec.from_json({"kind": kind, "p": p})
