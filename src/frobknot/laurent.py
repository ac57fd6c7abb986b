"""Minimal integer Laurent polynomials in one variable.

Used for the Kauffman bracket (variable A) and graded Euler characteristics
(variable q).  Exact integer coefficients; deterministic text form.
"""

from __future__ import annotations

from .rings import Value


class Laurent(Value):
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple = ()):  # of (exponent, coeff), sorted, coeff != 0
        self.__dict__["coeffs"] = coeffs

    @classmethod
    def from_dict(cls, d: dict) -> "Laurent":
        return cls(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @classmethod
    def monomial(cls, exp: int = 0, coeff: int = 1) -> "Laurent":
        return cls(((exp, coeff),) if coeff else ())

    @classmethod
    def zero(cls) -> "Laurent":
        return cls(())

    @classmethod
    def one(cls) -> "Laurent":
        return cls.monomial(0, 1)

    def as_dict(self) -> dict:
        return dict((e, c) for e, c in self.coeffs)

    def __add__(self, other: "Laurent") -> "Laurent":
        d = self.as_dict()
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return Laurent.from_dict(d)

    def __neg__(self) -> "Laurent":
        return Laurent(tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        d: dict = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return Laurent.from_dict(d)

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            if len(self.coeffs) != 1:
                raise ValueError("can only invert monomials")
            e, c = self.coeffs[0]
            if abs(c) != 1:
                raise ValueError("can only invert unit monomials")
            return Laurent.monomial(-e, c) ** (-n)
        out = Laurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def map_even_exponents(self, func) -> "Laurent":
        """For polynomials in v**2: send v**(2k) to func(k) = (exp, sign)."""
        d: dict = {}
        for e, c in self.coeffs:
            if e % 2:
                raise ValueError("odd exponent present")
            ne, sign = func(e // 2)
            d[ne] = d.get(ne, 0) + sign * c
        return Laurent.from_dict(d)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sign = "-" if c < 0 else ""
                term = f"{sign}{mag}v^{e}"
            parts.append(term)
        s = parts[0]
        for t in parts[1:]:
            s += f" + {t}" if not t.startswith("-") else f" - {t[1:]}"
        return s

    def render(self, var: str) -> str:
        return str(self).replace("v", var)
