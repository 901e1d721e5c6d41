"""Exact scalars: rationals with an optional Gaussian (imaginary) part.

All symbolic computation in this package runs over QQi = Q(i).  Real values
are the common case and print as plain fractions; the imaginary part exists
so that complex-coefficient operators (Cauchy-Riemann and friends) go through
the same symbol / characteristic-ideal machinery without special casing.

Invariants: components are python Fractions, so denominators are positive
and gcd-reduced after every operation by construction.
"""

from __future__ import annotations

from fractions import Fraction


class QQi:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, QQi):
            self.re, self.im = re.re, re.im
            return
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value) -> "QQi":
        if isinstance(value, QQi):
            return value
        return QQi(value)

    # -- predicates --------------------------------------------------------

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = QQi.of(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        other = QQi.of(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QQi.of(other) - self

    def __mul__(self, other):
        other = QQi.of(other)
        if self.im == 0 and other.im == 0:
            return QQi(self.re * other.re)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QQi.of(other)
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        if self.im == 0 and other.im == 0:
            return QQi(self.re / other.re)
        n = other.re * other.re + other.im * other.im
        return QQi(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return QQi.of(other) / self

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __lt__(self, other):
        # ordering is only meaningful for real scalars (sign tests, Sturm)
        other = QQi.of(other)
        if self.im != 0 or other.im != 0:
            raise TypeError("no order on non-real scalars")
        return self.re < other.re

    def __le__(self, other):
        other = QQi.of(other)
        if self.im != 0 or other.im != 0:
            raise TypeError("no order on non-real scalars")
        return self.re <= other.re

    def __gt__(self, other):
        return QQi.of(other) < self

    def __ge__(self, other):
        return QQi.of(other) <= self

    # -- conversion / display ------------------------------------------------

    def __float__(self):
        if self.im != 0:
            raise ValueError("not real")
        return float(self.re)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def serialize(self) -> str:
        """Canonical string: 'p/q' for reals, 'p/q+r/si' otherwise."""
        if self.im == 0:
            return f"{self.re.numerator}/{self.re.denominator}"
        sign = "+" if self.im >= 0 else "-"
        im = abs(self.im)
        return (
            f"{self.re.numerator}/{self.re.denominator}"
            f"{sign}{im.numerator}/{im.denominator}i"
        )

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


ZERO = QQi(0)
ONE = QQi(1)
I = QQi(0, 1)


def rational(text) -> Fraction:
    """Parse 'p/q' or integer or decimal strings into an exact Fraction."""
    return Fraction(str(text))
