"""Exact coefficient rings: the integers, the rationals, and prime fields.

Scalars are plain Python objects: ``int`` for Z and F_p (residues kept in
``range(0, p)``), ``fractions.Fraction`` for Q.  Arithmetic on them is plain
``+ - *``, reduced ``% p`` over F_p; a :class:`RingSpec` names the ring and
normalizes and enumerates its scalars; ``str`` writes one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class RingSpec:
    """One of Z, Q, or F_p (p prime, p <= 2**31)."""

    kind: str  # "Z" | "Q" | "Fp"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp":
            if type(self.p) is not int or self.p > 2**31 or not _is_prime(self.p):
                raise ValueError(f"F_p requires a prime p <= 2**31, got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"{self.kind} takes no modulus")

    # -- elements ----------------------------------------------------------

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.kind == "Q" else 1

    def normalize(self, x) -> Scalar:
        """Coerce an int/Fraction/decimal-or-'n/d' string into this ring.
        Floats and bools are not exact scalars and raise ValueError."""
        if type(x) is not int:  # keeps the common int case to one test
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
        if self.p is not None:
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
