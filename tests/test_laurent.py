import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobknot.laurent import Laurent

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-9, max_value=9), max_size=5
).map(Laurent.from_dict)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + Laurent.zero() == a
    assert a * Laurent.one() == a
    assert a - a == Laurent.zero()


def test_monomial_and_pow():
    v = Laurent.monomial(1)
    assert v**3 == Laurent.monomial(3)
    assert Laurent.monomial(-2, -1) ** 2 == Laurent.monomial(-4)
    assert Laurent.monomial(2) ** -1 == Laurent.monomial(-2)
    with pytest.raises(ValueError):
        (v + Laurent.one()) ** -1


def test_even_exponent_map():
    # A^(2k) -> (-1)^k q^(-k), the bracket-to-q change of variable
    p = Laurent.from_dict({2: 1, -4: 3, 0: -1})
    q = p.map_even_exponents(lambda k: (-k, (-1) ** (k % 2)))
    assert q == Laurent.from_dict({-1: -1, 2: 3, 0: -1})
    with pytest.raises(ValueError):
        Laurent.monomial(3).map_even_exponents(lambda k: (k, 1))


def test_str_deterministic():
    p = Laurent.from_dict({0: 1, 2: -3, -1: 1})
    assert str(p) == "v^-1 + 1 - 3*v^2"
    assert p.render("A") == "A^-1 + 1 - 3*A^2"
    assert str(Laurent.zero()) == "0"
