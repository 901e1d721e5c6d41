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
and Stirling, the real gamma function, and the scaled upper incomplete
gamma function, whose sum at the lattice points is the theta/Mellin
zeta'(0).  The gamma functions take real orders, not only those that
s = 0 reaches.  Each works at the precision of the current context and
adds its own guard digits where its formula cancels.
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
from math import floor

from .errors import NumericError, PreconditionError

CONTEXT = Context(prec=38, Emax=MAX_EMAX, Emin=MIN_EMIN,
                  traps=[InvalidOperation, DivisionByZero, Overflow, Underflow])

# 82 digits: more than the guard digits below add to 38 for orders |a| up to about 18
PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592307816406286208999")
EULER_GAMMA = Decimal(
    "0.5772156649015328606065120900824024310421593359399235988057672348848677267776646709")
LOG_SQRT_2PI = Decimal(
    "0.9189385332046727417803297364056176398613974736377834128171515404827656959272603977")

HALF = Decimal("0.5")
# Stirling terms rgamma may take: enough for 80 digits, since it sums at z >= precision
STIRLING_TERMS = 30
# gammainc_scaled sums its series below x = SERIES_LIMIT (or a + 1) and
# evaluates the continued fraction above it
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


def rgamma(x):
    """1/Gamma(x) for real x, 0 at the poles x = 0, -1, -2, ...  The
    recurrence Gamma(z + 1) = z Gamma(z) moves z past the precision in
    digits, where Stirling's series converges to that precision."""
    if x <= 0 and x == x.to_integral_value():
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec += 5
        eps = _epsilon()
        z, shift = x, Decimal(1)
        while z < ctx.prec:
            shift *= z
            z += 1
        log_gamma = (z - HALF) * z.ln() - z + LOG_SQRT_2PI
        power, z2 = z, z * z
        for k, b in enumerate(bernoulli_numbers(STIRLING_TERMS), 1):
            term = Decimal(b.numerator) / (b.denominator * 2 * k * (2 * k - 1)) / power
            log_gamma += term
            if abs(term) < eps:
                break
            power *= z2
        result = shift / log_gamma.exp()
    return +result


def gamma(x):
    """Gamma(x) for real x that is not a pole."""
    return 1 / rgamma(x)


def gammainc_scaled(a, x):
    """x^-a Gamma(a, x), the scaled upper incomplete gamma function, for
    real a and x > 0.

    From x = max(SERIES_LIMIT, a + 1) on, a modified Lentz evaluation of
    the continued fraction (DLMF 8.9.2) converges fast.  Below it the
    series of gamma(b, x) (DLMF 8.7.1), or for b = 0 that of E_1 (DLMF
    6.6.2), is summed at b = a + m in [0, 1) for a <= 0 and b = a otherwise,
    then run down to a by x^-(b-1) Gamma(b - 1, x) = (x S_b - e^-x) / (b - 1).
    Guard digits cover the series' cancellation at x and that of Gamma(b)
    against it for b near 0.  Gamma(1, x) = e^-x, the 2-torus's dual terms
    at s = 0, is taken in closed form."""
    if a == 1:
        return (-x).exp() / x
    if x >= SERIES_LIMIT and x >= a + 1:
        return _gammainc_fraction(a, x)
    steps = max(0, -floor(a))
    b = a + steps
    with localcontext() as ctx:
        ctx.prec += 4 + int(x) + steps + (max(0, -b.adjusted()) if b else 0)
        eps = _epsilon()
        term = total = Decimal(1) if b else x
        n = 1
        while abs(term) > eps * abs(total):
            if b:  # x^n / (b (b+1) ... (b+n)) times b
                term = term * x / (b + n)
            else:  # (-1)^(n+1) x^n / (n n!)
                term = -term * x * n / ((n + 1) * (n + 1))
            total += term
            n += 1
        e = (-x).exp()
        s = gamma(b) * (-b * x.ln()).exp() - e * total / b if b else total - EULER_GAMMA - x.ln()
        for _ in range(steps):
            s = (x * s - e) / (b - 1)
            b -= 1
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
