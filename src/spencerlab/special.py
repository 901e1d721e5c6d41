"""Real special functions at one fixed decimal working precision.

The spectral layer (spectra, zeta, torsion) computes in decimal.Decimal
under CONTEXT: 38 significant digits (two 19-digit libmpdec words), an
exponent range that no finite double leaves, and a trap on every signal
that would otherwise produce a silently wrong number.  Public entry points
run under working_precision, which installs CONTEXT for the call, restores
the caller's context afterwards and turns a result outside the exponent
range into a NumericError.  Inputs are read with to_decimal, which uses
CONTEXT explicitly, so code that only reads and compares needs neither.

Only what zeta'(0) needs is here: pi and Euler's gamma for the
theta/Mellin sum, the even Bernoulli numbers (exact) for Euler-Maclaurin
and the Todd class, and the scaled upper incomplete gamma function, whose
sum at the lattice points is the theta/Mellin zeta'(0).  That sum reads it
at three orders only: a = 0 for every primal term, and a = d/2, that is
1/2 or 1, for the dual terms of a d-dimensional form.  It works at the
precision of the current context and adds its own guard digits where its
formula cancels.
"""

from __future__ import annotations

from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
    Underflow,
    getcontext,
    localcontext,
)
from fractions import Fraction
from functools import lru_cache, wraps

from .errors import NumericError, PreconditionError

CONTEXT = Context(prec=38, Emax=MAX_EMAX, Emin=MIN_EMIN,
                  traps=[InvalidOperation, DivisionByZero, Overflow, Underflow])

# 82 digits: more than gammainc_scaled's guard digits add to 38
PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592307816406286208999")
EULER_GAMMA = Decimal(
    "0.5772156649015328606065120900824024310421593359399235988057672348848677267776646709")

# gammainc_scaled sums its series below x = SERIES_LIMIT and evaluates the
# continued fraction from it on
SERIES_LIMIT = 4


def working_precision(fn):
    """Run fn under CONTEXT; the caller's decimal context is restored after."""

    @wraps(fn)
    def run(*args, **kwargs):
        with localcontext(CONTEXT):
            try:
                return fn(*args, **kwargs)
            except (Overflow, Underflow):
                raise NumericError(
                    f"{fn.__name__}: a result leaves the decimal exponent range") from None

    return run


def to_decimal(x):
    """x as a finite Decimal of CONTEXT: a Fraction divided out, anything
    else read from its decimal string, so that a float reads as it prints."""
    try:
        if isinstance(x, Fraction):
            return CONTEXT.divide(Decimal(x.numerator), x.denominator)
        value = CONTEXT.create_decimal(str(x))
    except (Overflow, Underflow):
        raise PreconditionError(f"{x!r} leaves the decimal exponent range") from None
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():
        raise PreconditionError(f"{x!r} is not a finite real number")
    return value


def _epsilon():
    """One unit in the last digit of 1 at the current precision."""
    return Decimal(1).scaleb(-getcontext().prec)


@lru_cache(maxsize=None)
def bernoulli_numbers(k_max):
    """(B_2, B_4, ..., B_{2 k_max}) as Fractions, from the tangent numbers
    T_k by B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) (Brent and Harvey,
    "Fast computation of Bernoulli, tangent and secant numbers", 2011)."""
    t = [0, 1] + [0] * (k_max - 1)
    for k in range(2, k_max + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, k_max + 1):
        for j in range(k, k_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
                 for k in range(1, k_max + 1))


def gammainc_scaled(a, x):
    """x^-a Gamma(a, x), the scaled upper incomplete gamma function, for
    x > 0 at the orders a = 0, 1/2 and 1 only.

    Gamma(1, x) = e^-x is taken in closed form.  From x = SERIES_LIMIT on, a
    modified Lentz evaluation of the continued fraction (DLMF 8.9.2)
    converges fast.  Below it the series of E_1 (DLMF 6.6.2) is summed at
    a = 0, and that of gamma(1/2, x) (DLMF 8.7.1) at a = 1/2, subtracted
    from Gamma(1/2) = sqrt(pi).  Guard digits cover the series'
    cancellation at x, and one more that of sqrt(pi) against it."""
    if a == 1:
        return (-x).exp() / x
    if x >= SERIES_LIMIT:
        return _gammainc_fraction(a, x)
    with localcontext() as ctx:
        ctx.prec += 4 + int(x) + (1 if a else 0)
        eps = _epsilon()
        term = total = Decimal(1) if a else x
        n = 1
        while abs(term) > eps * abs(total):
            if a:  # x^n / ((a+1) (a+2) ... (a+n))
                term = term * x / (a + n)
            else:  # (-1)^(n+1) x^n / (n n!)
                term = -term * x * n / ((n + 1) * (n + 1))
            total += term
            n += 1
        if a:
            s = PI.sqrt() * (-a * x.ln()).exp() - (-x).exp() * total / a
        else:
            s = total - EULER_GAMMA - x.ln()
    return +s


def _gammainc_fraction(a, x):
    """e^-x / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / (x + 5 - a - ...)))."""
    with localcontext() as ctx:
        ctx.prec += 3
        eps = _epsilon()
        tiny = eps * eps
        b = x + 1 - a
        c, d = 1 / tiny, 1 / b
        h = d
        i = 1
        while True:
            an = -i * (i - a)
            b += 2
            d = an * d + b or tiny
            c = b + an / c or tiny
            d = 1 / d
            delta = d * c
            h *= delta
            if abs(delta - 1) < eps:
                break
            i += 1
        result = (-x).exp() * h
    return +result
