"""Exact coefficient fields: the rationals and prime fields.

An outside scalar enters a field once, through ``field.element``, and every
division of field scalars goes through ``field.div``. A rational is a plain
``int`` or ``Fraction``; a prime-field element meets only its own field.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import QuiverError, _Record

__all__ = ["RationalField", "PrimeField", "PrimeFieldElement", "QQ", "parse_field"]


class RationalField(_Record):
    """Exact rational scalars: an ``int`` when integral, else a ``Fraction``.

    Sums and products are left as Python computes them (``int * Fraction``
    may be a ``Fraction`` with denominator 1; ``==`` and ``hash`` agree).
    ``div`` is the one division, so no ``int / int`` makes a float.
    """

    name = "QQ"
    zero = 0
    one = 1

    def element(self, value):
        if type(value) is int:
            return value
        if isinstance(value, float):
            raise QuiverError(f"float scalar {value!r} is not exact")
        out = Fraction(value)
        return out.numerator if out.denominator == 1 else out

    def nonzero(self, value):
        out = self.element(value)
        if out == 0:
            raise QuiverError("scalar must be nonzero")
        return out

    def div(self, a, b):
        """The exact quotient a / b, an ``int`` when it is integral."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return self.element(a / b)

    def __eq__(self, other):  # the oracle's memo keys hold the field: hashed often
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(())

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


class PrimeFieldElement(_Record):
    """An integer mod a prime, with ``value`` in [0, modulus).

    It meets only elements of its own field: another modulus raises
    ``QuiverError``, any other operand ``TypeError`` in either order, and
    ``==`` holds only for the same modulus and value. An outside scalar
    enters through ``PrimeField.element``.
    """

    modulus: int
    value: int

    def __init__(self, modulus, value):
        self.__dict__.update(modulus=modulus, value=value)

    def __eq__(self, other):
        return (self.value == other.value and self.modulus == other.modulus
                if other.__class__ is self.__class__ else NotImplemented)

    __hash__ = _Record.__hash__

    def _check_field(self, other) -> None:
        if not isinstance(other, PrimeFieldElement):
            raise TypeError(f"an element of F{self.modulus} meets a {type(other).__name__}")
        if other.modulus != self.modulus:
            raise QuiverError("mixed prime field moduli")

    def __add__(self, other):
        self._check_field(other)
        return PrimeFieldElement(self.modulus, (self.value + other.value) % self.modulus)

    def __sub__(self, other):
        self._check_field(other)
        return PrimeFieldElement(self.modulus, (self.value - other.value) % self.modulus)

    def __mul__(self, other):
        self._check_field(other)
        return PrimeFieldElement(self.modulus, (self.value * other.value) % self.modulus)

    def __truediv__(self, other):
        self._check_field(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero in prime field")
        inv = pow(other.value, self.modulus - 2, self.modulus)
        return PrimeFieldElement(self.modulus, (self.value * inv) % self.modulus)

    def __neg__(self):
        return PrimeFieldElement(self.modulus, (-self.value) % self.modulus)

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


class PrimeField(_Record):
    """Integers modulo a prime p."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise QuiverError(f"{self.p} is not prime")
        self.__dict__.update(zero=PrimeFieldElement(self.p, 0), one=PrimeFieldElement(self.p, 1))

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def element(self, value) -> PrimeFieldElement:
        if isinstance(value, PrimeFieldElement):
            self.zero._check_field(value)
            return value
        if isinstance(value, int):
            return PrimeFieldElement(self.p, value % self.p)
        value = QQ.element(value)
        if value.denominator % self.p == 0:
            raise QuiverError(f"denominator of {value} is divisible by {self.p}")
        inv = pow(value.denominator % self.p, self.p - 2, self.p)
        return PrimeFieldElement(self.p, (value.numerator * inv) % self.p)

    def nonzero(self, value) -> PrimeFieldElement:
        out = self.element(value)
        if out.value == 0:
            raise QuiverError("scalar must be nonzero")
        return out

    def div(self, a, b) -> PrimeFieldElement:
        """The quotient a / b in the field."""
        return self.element(a) / b

    def __repr__(self) -> str:
        return self.name


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
