"""Exact scalars of the form (a + bi) + (c + di)*sqrt(3) with rational a,b,c,d.

All coefficient tables in this package live in the ring Q(i, sqrt3), which is
closed under the arithmetic the series manipulations need (values of
sin(n*pi/6), sin(n*pi/3), e(n/4) and their products).  Transcendental factors
(powers of pi) are kept out of the scalars and tracked symbolically by
:class:`Prefactor`; sqrt(3) lives only in the scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import pi, sqrt
from numbers import Rational

_SQRT3 = sqrt(3.0)


@dataclass(frozen=True)
class ExactScalar:
    """(a + b*i) + (c + d*i)*sqrt(3), all components exact rationals."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)
    d: Fraction = Fraction(0)

    @staticmethod
    def of(x: Rational) -> "ExactScalar":
        return ExactScalar(Fraction(x))

    @staticmethod
    def imag(x: Rational) -> "ExactScalar":
        return ExactScalar(b=Fraction(x))

    @staticmethod
    def sqrt3(x: Rational) -> "ExactScalar":
        return ExactScalar(c=Fraction(x))

    def __add__(self, o: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o: "ExactScalar") -> "ExactScalar":
        # (z1 + w1*s)(z2 + w2*s) = (z1 z2 + 3 w1 w2) + (z1 w2 + w1 z2) s,
        # with complex parts z = a + bi, w = c + di and s = sqrt(3).
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        ra = a1 * a2 - b1 * b2 + 3 * (c1 * c2 - d1 * d2)
        rb = a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2)
        rc = a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2
        rd = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
        return ExactScalar(ra, rb, rc, rd)

    def scale(self, r: Rational) -> "ExactScalar":
        r = Fraction(r)
        return ExactScalar(self.a * r, self.b * r, self.c * r, self.d * r)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def to_complex(self) -> complex:
        return complex(
            float(self.a) + _SQRT3 * float(self.c),
            float(self.b) + _SQRT3 * float(self.d),
        )

    def abs_upper(self) -> float:
        """Cheap upper bound on |value|, used for defect reporting."""
        return abs(self.to_complex()) + 1e-15

    def __str__(self) -> str:
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            parts.append(f"{self.b}i")
        if self.c:
            parts.append(f"{self.c}*sqrt3")
        if self.d:
            parts.append(f"{self.d}i*sqrt3")
        return " + ".join(parts) if parts else "0"


ZERO = ExactScalar()
ONE = ExactScalar.of(1)

# sin(n*pi/6) as an ExactScalar, indexed by n mod 12.
_SIN_PI6 = [
    ZERO,
    ExactScalar.of(Fraction(1, 2)),
    ExactScalar.sqrt3(Fraction(1, 2)),
    ONE,
    ExactScalar.sqrt3(Fraction(1, 2)),
    ExactScalar.of(Fraction(1, 2)),
    ZERO,
    ExactScalar.of(Fraction(-1, 2)),
    ExactScalar.sqrt3(Fraction(-1, 2)),
    -ONE,
    ExactScalar.sqrt3(Fraction(-1, 2)),
    ExactScalar.of(Fraction(-1, 2)),
]


def sin_pi6(n: int) -> ExactScalar:
    """Exact sin(n*pi/6)."""
    return _SIN_PI6[n % 12]


def sin_pi3(n: int) -> ExactScalar:
    """Exact sin(n*pi/3)."""
    return _SIN_PI6[(2 * n) % 12]


def e_quarter(n: int) -> ExactScalar:
    """Exact e(n/4) = exp(2*pi*i*n/4) = i**n."""
    return (ONE, ExactScalar.imag(1), -ONE, ExactScalar.imag(-1))[n % 4]


@dataclass(frozen=True)
class Prefactor:
    """The symbolic constant pi**pi_exp."""

    pi_exp: int = 0

    def to_float(self) -> float:
        return pi**self.pi_exp


PF_ONE = Prefactor()
PF_PI_INV = Prefactor(-1)
