"""Exact coefficient rings: the integers, the rationals, and prime fields.

Scalars are plain Python objects: ``int`` for Z and F_p (residues kept in
``range(0, p)``), ``fractions.Fraction`` for Q.  Arithmetic on them is plain
``+ - *``, reduced ``% p`` over F_p; a :class:`RingSpec` names the ring and
normalizes and enumerates its scalars; ``str`` writes one.  :class:`Value`
is the base of the library's immutable value classes.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Union

Scalar = Union[int, Fraction]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Value:
    """An immutable value: equal to an instance of its own class with equal
    fields, hashed and shown by them.  Each subclass names its fields once,
    in ``_fields``; ``Value.__init__`` takes their values positionally, in
    that order (a subclass that checks its input calls it after its checks),
    and stores them in the instance ``__dict__``, which may also hold values
    cached from them.  Equality and the hash read the fields only, so a
    value whose fields hold a dict or a list, as ``verifier.VerifyReport``'s
    do, cannot be hashed."""

    _fields: tuple

    def __init_subclass__(cls):
        cls._key = staticmethod(attrgetter(*cls._fields))  # the field values; a lone one bare

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} values, got {len(values)}")
        # merged as one dict, not set key by key: CPython 3.11 reads the
        # attributes of a __dict__ filled key by key about twice as slowly
        self.__dict__.update(dict(zip(self._fields, values)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RingSpec(Value):
    """One of Z, Q, or F_p (p prime, p <= 2**31)."""

    _fields = ("kind", "p")  # kind is "Z", "Q" or "Fp"; p is the modulus over F_p, 0 over Z and Q

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Fp":
            if type(p) is not int or p > 2**31 or not _is_prime(p):
                raise ValueError(f"F_p requires a prime p <= 2**31, got {p!r}")
        elif p is not None:
            raise ValueError(f"{kind} takes no modulus")
        super().__init__(kind, p if kind == "Fp" else 0)

    # -- elements ----------------------------------------------------------

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.kind == "Q" else 1

    def normalize(self, x) -> Scalar:
        """Coerce an int/Fraction/decimal-or-'n/d' string into this ring:
        an int over Z, a Fraction over Q, a residue in range(p) over F_p.
        Floats and bools are not exact scalars and raise ValueError.  A
        plain int returns at once: isinstance(x, Fraction) would answer it
        through the numbers ABCs."""
        if type(x) is int:
            return x % self.p if self.p else Fraction(x) if self.kind == "Q" else x
        if isinstance(x, str):
            try:
                x = Fraction(x) if "/" in x else int(x)
            except ZeroDivisionError:
                raise ValueError(f"{x!r} has a zero denominator") from None
        elif isinstance(x, (float, bool)):
            raise ValueError(f"{x!r} is not an exact scalar")
        if self.kind == "Z":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                x = x.numerator
            return int(x)
        if self.kind == "Q":
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValueError(f"{x} has a denominator divisible by {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def elements(self):
        """All elements (prime fields only)."""
        if self.kind != "Fp":
            raise ValueError("only prime fields are enumerable")
        return range(self.p)

    # -- text forms --------------------------------------------------------

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        if self.p:
            d["p"] = self.p
        return d

    @classmethod
    def from_json(cls, d: dict) -> "RingSpec":
        if not isinstance(d, dict):
            raise ValueError(f'"ring" must be an object, got {d!r}')
        return cls(d["kind"], d.get("p"))

    def __str__(self):
        return {"Z": "Z", "Q": "Q"}.get(self.kind, f"F_{self.p}")


ZZ = RingSpec("Z")
QQ = RingSpec("Q")


def GF(p: int) -> RingSpec:
    return RingSpec("Fp", p)
