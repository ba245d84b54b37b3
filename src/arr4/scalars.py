"""Exact scalar arithmetic for the two supported coordinate fields.

Rational coordinates are plain ``fractions.Fraction`` values (or ints, which
are accepted everywhere and lifted as needed).  Coordinates that require the
golden ratio live in Q(sqrt(5)), represented in the basis (1, tau) with
tau = (1 + sqrt(5))/2, so that tau*tau = tau + 1.  Signs of quadratic scalars
are decided by exact integer case analysis: a + b*tau equals
(2a + b + b*sqrt(5)) / 2, and when the two summands have opposite signs the
comparison is settled by squaring.  No floating point anywhere.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import total_ordering


class Field(enum.Enum):
    """Coordinate field tag carried by an arrangement."""

    RATIONAL = "rational"
    QUADRATIC_TAU = "quadratic-tau"


#: Rational scalars are ordinary exact fractions.
Rational = Fraction


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


@total_ordering
class QuadScalar:
    """An element a + b*tau of Q(sqrt(5)), with exact rational components.

    The package computes on integer pairs (`linalg.KERNELS`); the full field
    arithmetic stays public, as the input scalar of files, demos and tests."""

    __slots__ = ("_a", "_b")

    def __init__(self, a=0, b=0):
        self._a = _frac(a)
        self._b = _frac(b)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    def __repr__(self) -> str:
        return f"QuadScalar({self._a}, {self._b})"

    def __str__(self) -> str:
        if not self._b:
            return str(self._a)
        if self._b > 0:
            return f"{self._a}+{self._b}*t"
        return f"{self._a}-{-self._b}*t"

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, QuadScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self):
        # Agrees with hash(Fraction) on rational values so that mixed keys
        # cannot violate the hash/eq contract.
        if not self._b:
            return hash(self._a)
        return hash((self._a, self._b))

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    def __neg__(self) -> "QuadScalar":
        return QuadScalar(-self._a, -self._b)

    def __pos__(self) -> "QuadScalar":
        return self

    def __abs__(self) -> "QuadScalar":
        return -self if self.sign() < 0 else self

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadScalar(self._a + o._a, self._b + o._b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadScalar(self._a - o._a, self._b - o._b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadScalar(o._a - self._a, o._b - self._b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self._a, self._b, o._a, o._b
        # (a + b*tau)(c + d*tau) = ac + bd + (ad + bc + bd)*tau
        bd = b * d
        return QuadScalar(a * c + bd, a * d + b * c + bd)

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        nrm = self.norm()
        if not nrm:
            raise ZeroDivisionError("inverse of zero quadratic scalar")
        return QuadScalar((self._a + self._b) / nrm, -self._b / nrm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "QuadScalar":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = QuadScalar(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "QuadScalar":
        """Galois conjugate: sends tau to 1 - tau = -1/tau."""
        return QuadScalar(self._a + self._b, -self._b)

    def norm(self) -> Fraction:
        """Field norm self * conj(self) = a^2 + a*b - b^2, a rational."""
        return self._a * self._a + self._a * self._b - self._b * self._b

    def sign(self) -> int:
        return pair_sign((self._a, self._b))


#: The golden ratio tau = (1 + sqrt(5)) / 2 as a quadratic scalar.
TAU = QuadScalar(0, 1)


def pair_sign(x) -> int:
    """Exact sign of a + b*tau for a pair (a, b) of ints or Fractions."""
    a, b = x
    if not b:
        return -1 if a < 0 else (1 if a > 0 else 0)
    if not a:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # a + b*tau = (u + w*sqrt(5)) / 2 with u = 2a + b, w = b.
    u = 2 * a + b
    w = b
    if not u:
        return 1 if w > 0 else -1
    su = 1 if u > 0 else -1
    if su == (1 if w > 0 else -1):
        return su
    # Opposite sides: u*u == 5*w*w would make sqrt(5) rational.
    return su if u * u > 5 * w * w else (1 if w > 0 else -1)


def sign(x) -> int:
    """Exact sign in {-1, 0, +1} of a scalar from either field."""
    if isinstance(x, QuadScalar):
        return x.sign()
    return -1 if x < 0 else (1 if x > 0 else 0)


def lift(value, field: Field):
    """Coerce a scalar into the given field, or raise ValueError."""
    if field is Field.QUADRATIC_TAU:
        out = QuadScalar._coerce(value)
        if out is None:
            raise ValueError(f"cannot lift {value!r} into {field.value}")
        return out
    if isinstance(value, QuadScalar):
        if value.b:
            raise ValueError(f"{value} is irrational, not a {field.value} scalar")
        return value.a
    if isinstance(value, (int, Fraction)):
        return _frac(value)
    raise ValueError(f"cannot lift {value!r} into {field.value}")


def infer_field(values) -> Field:
    """Guess the field from scalar types: any QuadScalar means quadratic-tau."""
    for v in values:
        if isinstance(v, QuadScalar):
            return Field.QUADRATIC_TAU
    return Field.RATIONAL
