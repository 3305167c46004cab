"""Exact coefficient fields: the rationals and prime fields."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import QuiverError

__all__ = ["RationalField", "PrimeField", "PrimeFieldElement", "QQ", "parse_field"]


class RationalField:
    """Exact rational scalars, represented as Fraction."""

    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def element(self, value) -> Fraction:
        return Fraction(value)

    def nonzero(self, value) -> Fraction:
        out = Fraction(value)
        if out == 0:
            raise QuiverError("scalar must be nonzero")
        return out

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")


QQ = RationalField()


@dataclass(frozen=True)
class PrimeFieldElement:
    modulus: int
    value: int

    def _lift(self, other) -> "PrimeFieldElement":
        if isinstance(other, PrimeFieldElement):
            if other.modulus != self.modulus:
                raise QuiverError("mixed prime field moduli")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(self.modulus, other % self.modulus)
        if isinstance(other, Fraction):
            return _fraction_mod(other, self.modulus)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.modulus, (self.value + other.value) % self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.modulus, (self.value - other.value) % self.modulus)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.modulus, (self.value * other.value) % self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero in prime field")
        inv = pow(other.value, self.modulus - 2, self.modulus)
        return PrimeFieldElement(self.modulus, (self.value * inv) % self.modulus)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return PrimeFieldElement(self.modulus, (-self.value) % self.modulus)

    def __eq__(self, other) -> bool:
        if isinstance(other, PrimeFieldElement):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.modulus, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


# Miller-Rabin with the first 13 primes as witnesses is exact below the bound
# (the least strong pseudoprime to all of them; Sorenson and Webster 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p >= _WITNESS_BOUND:
        raise QuiverError(f"{p} is too large to test for primality exactly")
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # 2**s exactly divides p - 1
    for a in _WITNESSES:
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and all(pow(x, 1 << r, p) != p - 1 for r in range(s)):
            return False
    return True


def _fraction_mod(value: Fraction, p: int) -> PrimeFieldElement:
    if value.denominator % p == 0:
        raise QuiverError(f"denominator of {value} is divisible by {p}")
    inv = pow(value.denominator % p, p - 2, p)
    return PrimeFieldElement(p, (value.numerator * inv) % p)


class PrimeField:
    """Integers modulo a prime p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise QuiverError(f"{p} is not prime")
        self.p = p
        self.zero = PrimeFieldElement(p, 0)
        self.one = PrimeFieldElement(p, 1)

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def element(self, value) -> PrimeFieldElement:
        if isinstance(value, PrimeFieldElement):
            if value.modulus != self.p:
                raise QuiverError("mixed prime field moduli")
            return value
        if isinstance(value, int):
            return PrimeFieldElement(self.p, value % self.p)
        return _fraction_mod(Fraction(value), self.p)

    def nonzero(self, value) -> PrimeFieldElement:
        out = self.element(value)
        if out.value == 0:
            raise QuiverError("scalar must be nonzero")
        return out

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))


def parse_field(spec: str):
    """Parse a CLI field spec: "rat" or "fp:<p>"."""
    if spec == "rat":
        return QQ
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise QuiverError(f"bad prime in field spec {spec!r}") from None
        return PrimeField(p)
    raise QuiverError(f"unknown field spec {spec!r} (expected 'rat' or 'fp:<p>')")
