"""Exact scalars: rationals, and Gaussian rationals for complex operators.

All symbolic computation in this package runs over Q(i), and one rule says
which type holds a coefficient: a real value is a ``Fraction``, and a
``QQi`` holds only a value whose imaginary part is nonzero.  ``scalar``
applies the rule to any incoming value, ``gaussian`` builds a value from
its parts, and ``QQi`` arithmetic returns through ``gaussian``, so i*i is
``Fraction(-1)``.  Complex-coefficient operators (Cauchy-Riemann and
friends) thus go through the same symbol / characteristic-ideal machinery
as real ones, while real computations stay in plain fractions.

``QQi`` carries ``real`` and ``imag`` like ``int`` and ``Fraction`` do, so
callers read the parts of any scalar without a type test.  Components are
Fractions, so denominators are positive and gcd-reduced by construction.
"""

from __future__ import annotations

from fractions import Fraction


class QQi:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        self.real = real if isinstance(real, Fraction) else Fraction(real)
        self.imag = imag if isinstance(imag, Fraction) else Fraction(imag)

    def __bool__(self):
        return bool(self.real) or bool(self.imag)

    # -- arithmetic: int, Fraction or QQi operands, read by real and imag ------

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, QQi)):
            return NotImplemented
        return gaussian(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return gaussian(-self.real, -self.imag)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, QQi)):
            return NotImplemented
        return gaussian(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return gaussian(other.real - self.real, other.imag - self.imag)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, QQi)):
            return NotImplemented
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction, QQi)):
            return NotImplemented
        return _divide(self.real, self.imag, other.real, other.imag)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _divide(other.real, other.imag, self.real, self.imag)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, QQi)):
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        # equal to a Fraction only when imag is 0, and then hashed like it
        if self.imag == 0:
            return hash(self.real)
        return hash((self.real, self.imag))

    # -- display ---------------------------------------------------------------

    def serialize(self) -> str:
        """Canonical string 'p/q+r/si'."""
        sign = "+" if self.imag >= 0 else "-"
        im = abs(self.imag)
        return (
            f"{self.real.numerator}/{self.real.denominator}"
            f"{sign}{im.numerator}/{im.denominator}i"
        )

    def __repr__(self):
        if self.real == 0:
            return f"{self.imag}*i"
        return f"({self.real}{'+' if self.imag > 0 else '-'}{abs(self.imag)}*i)"


def gaussian(real, imag=0):
    """real + imag*i by the rule: a Fraction when imag is 0, else a QQi."""
    if imag:
        return QQi(real, imag)
    return real if isinstance(real, Fraction) else Fraction(real)


def scalar(x):
    """Any int, Fraction or QQi as the type the rule gives its value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, QQi):
        return x if x.imag else x.real
    return Fraction(x)


def _divide(a, b, c, d):
    """(a + b*i) / (c + d*i)."""
    n = c * c + d * d
    if not n:
        raise ZeroDivisionError("division by zero scalar")
    return gaussian((a * c + b * d) / n, (b * c - a * d) / n)
