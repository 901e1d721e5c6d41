"""Spectral zeta functions: analytic continuation and regularized
determinants.

For lattice-backed spectra {Q(v) = v^T M v, v in Z^d \\ 0} the continuation
splits the Mellin integral at t = 1 and applies the modular transform of
the theta function on (0, 1):

  zeta(s) Gamma(s) = -1/s + g(s),
  g(s) = pi^{d/2} det(M)^{-1/2} / (s - d/2)
      + sum'_v Gamma(s, Q(v)) Q(v)^{-s}
      + pi^{d/2} det(M)^{-1/2} sum'_w Gamma(d/2 - s, Q*(w)) Q*(w)^{s - d/2},

with Q*(w) = pi^2 w^T M^{-1} w.  One function, _regular_part, computes g:
zeta(s) = (g(s) - 1/s) / Gamma(s), and at s = 0 the -1/s pole cancels
against 1/Gamma(s), so zeta(0) = -(number of lattice zero modes) = -1 and
zeta'(0) = g(0) - euler_gamma, memoised per form.  Both tails converge
like exp(-Q), so a cutoff of Q <= 80 puts the truncation error far below
every tolerance used here; each form reports a conservative multiple of
exp(-cutoff/2).

A spectrum is continued this way when it is a signed combination of
lattice forms (SpectrumModel.lattice_terms): the circle and the torus are
one form, and the Dirichlet rectangle is 4 Z_rect = Z_2d - Z_a - Z_b, the
full lattice less its two axis circles.  The combination is summed in
order and divided once, and its bound is one tail bound per form.

An Euler-Maclaurin continuation is provided for circle-type spectra as an
independent cross-check, with zeta'(0) the closed-form derivative of its
finite formula, and closed forms (Riemann zeta) where they exist.

Every value is a decimal.Decimal computed at the one working precision of
special.CONTEXT, 38 significant digits, which each public function here
installs for its call and restores after it.  s is real: a complex s is a
PreconditionError.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal, getcontext
from fractions import Fraction
from math import factorial

from .errors import NumericError, PoleError
from .spectra import SpectrumModel, lattice_points
from .special import (
    CONTEXT,
    EULER_GAMMA,
    HALF,
    PI,
    bernoulli_numbers,
    gammainc_scaled,
    rgamma,
    riemann_zeta,
    to_decimal,
    working_precision,
)

LATTICE_CUTOFF = Decimal(80)
TAIL_BOUND = CONTEXT.multiply(10, CONTEXT.exp(-LATTICE_CUTOFF / 2))
# s this close to a continuation pole, or to the zero mode's s = 0, is at it
POLE_TOLERANCE = Decimal("1e-12")
# Euler-Maclaurin: N terms summed directly, then K Bernoulli corrections
EM_TERMS, EM_ORDER = 60, 8


ZetaValue = namedtuple("ZetaValue", "s value method error_bound")


def _inverse(M, d):
    if d == 1:
        return [[1 / M[0][0]]], M[0][0]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    inv = [[M[1][1] / det, -M[0][1] / det], [-M[1][0] / det, M[0][0] / det]]
    return inv, det


def _regular_part(s, M, d):
    """g(s) = zeta(s) Gamma(s) + 1/s: the theta/Mellin sum without the zero-mode
    pole.  Gamma(a, q) q^-a is gammainc_scaled(a, q)."""
    primal = lattice_points(M, d, LATTICE_CUTOFF)  # refuses a degenerate form before _inverse
    Minv, detM = _inverse(M, d)
    half_d = Decimal(d) / 2
    dual = PI**half_d / detM.sqrt()
    g = dual / (s - half_d)
    for q, k in primal:
        g += k * gammainc_scaled(s, q)
    Mstar = [[PI**2 * Minv[i][j] for j in range(d)] for i in range(d)]
    for qs, k in lattice_points(Mstar, d, LATTICE_CUTOFF):
        g += k * dual * gammainc_scaled(half_d - s, qs)
    return g


def _theta_mellin_zeta(s, M, d):
    half_d = Decimal(d) / 2
    if abs(s - half_d) < POLE_TOLERANCE:
        residue = PI**half_d / _inverse(M, d)[1].sqrt() * rgamma(half_d)
        raise PoleError(f"zeta has a simple pole at s = {half_d}", residue=float(residue))
    if abs(s) < POLE_TOLERANCE:
        return Decimal(-1)
    return (_regular_part(s, M, d) - 1 / s) * rgamma(s)


# zeta'(0) = g(0) - euler_gamma per exact form (entries, d, decimal precision):
# torsion and BCOV reports combine det' of the same Laplacian several times per job
_ZETA_PRIME0 = {}


def _em_zeta(s, c):
    """Euler-Maclaurin continuation of sum_n 2 (c n^2)^-s, the circle's modes
    in +-n pairs: 2 c^-s G(s) with
    G(s) = sum_{n<=N} n^-2s + N^(1-2s)/(2s-1) - N^-2s/2
           - sum_{k<=K} B_2k/(2k)! (-2s)(-2s-1)...(-2s-2k+2) N^(-2s-2k+1)."""
    n_max = EM_TERMS
    total = sum(Decimal(n) ** (-2 * s) for n in range(1, n_max + 1))
    power = Decimal(n_max) ** (-2 * s)
    total += n_max * power / (2 * s - 1) - power / 2
    rising = -2 * s  # (-2s)(-2s-1)...(-2s-j+1) for j = 2k - 1
    for k, b in enumerate(bernoulli_numbers(EM_ORDER), 1):
        j = 2 * k - 1
        coeff = Decimal(b.numerator) / (b.denominator * factorial(2 * k) * n_max**j)
        total -= coeff * rising * power
        rising *= (-2 * s - j) * (-2 * s - j - 1)
    return 2 * c ** -s * total


def _em_zeta_prime0(c):
    """d/ds _em_zeta(s, c) at s = 0, in closed form.  G(0) = -1/2 and
    G'(0) = (2N + 1) log N - 2N - 2 log N! + 2 sum_{k<=K} B_2k / (2k (2k-1) N^(2k-1)),
    so the derivative is log c + 2 G'(0)."""
    n_max = EM_TERMS
    tail = sum(b / (2 * k * (2 * k - 1) * n_max ** (2 * k - 1))
               for k, b in enumerate(bernoulli_numbers(EM_ORDER), 1))
    g1 = ((2 * n_max + 1) * Decimal(n_max).ln() - 2 * n_max - 2 * Decimal(factorial(n_max)).ln()
          + 2 * Decimal(tail.numerator) / tail.denominator)
    return c.ln() + 2 * g1


def _em_error():
    # standard EM remainder scale near s = 0
    b = bernoulli_numbers(EM_ORDER + 1)[-1]
    return float(4 * abs(b) / factorial(2 * EM_ORDER + 2)
                 / Fraction(EM_TERMS) ** (2 * EM_ORDER + 1))


@working_precision
def zeta_at(spec: SpectrumModel, s, method="auto") -> ZetaValue:
    """Continued spectral zeta value at a real s (a float is read exactly);
    raises PoleError at continuation poles."""
    s = Decimal(s) if isinstance(s, float) else to_decimal(s)
    if spec.kind == "sum":
        parts = [zeta_at(c, s, method) for c in spec.children]
        return ZetaValue(
            s,
            sum((p.value for p in parts), Decimal(0)),
            parts[0].method if parts else "closed_form",
            sum(p.error_bound for p in parts),
        )
    if spec.kind == "scaled":
        inner = zeta_at(spec.children[0], s, method)
        val = spec.params["factor"] ** -s * inner.value
        return ZetaValue(s, val, inner.method, inner.error_bound * 2)
    if spec.kind == "explicit" and method in ("auto", "closed_form"):
        total = Decimal(0)
        for v, m in zip(spec.params["values"], spec.params["multiplicities"]):
            total += m * v ** -s
        return ZetaValue(s, total, "closed_form", 0.0)
    if spec.kind == "circle" and method in ("auto", "closed_form"):
        L = spec.params["length"]
        if abs(s - HALF) < POLE_TOLERANCE:
            raise PoleError("circle zeta has a pole at s = 1/2", residue=float(L / (2 * PI)))
        val = 2 * (L / (2 * PI)) ** (2 * s) * riemann_zeta(2 * s)
        return ZetaValue(s, val, "closed_form", 1e-25)
    if spec.kind == "circle" and method == "euler_maclaurin":
        c = (2 * PI / spec.params["length"]) ** 2
        return ZetaValue(s, _em_zeta(s, c), "euler_maclaurin", _em_error())
    terms = spec.lattice_terms()
    if terms is not None and method in ("auto", "mellin_theta"):
        forms, divisor = terms
        val, pole, residue = Decimal(0), None, 0
        for sign, M, d in forms:
            try:
                val += sign * _theta_mellin_zeta(s, M, d)
            except PoleError as exc:  # the combination's residue sums every term's
                pole, residue = pole or exc, residue + sign * exc.residue
        if pole is not None:
            raise PoleError(str(pole), residue=residue / divisor)
        return ZetaValue(s, val / divisor, "mellin_theta", float(len(forms) * TAIL_BOUND))
    raise NumericError(
        f"no continuation available for spectrum kind {spec.kind!r} with method {method!r}"
    )


@working_precision
def zeta_prime_at_zero(spec: SpectrumModel, method="auto"):
    """zeta'(0) with the method actually used; building block for torsion."""
    if spec.kind == "sum":
        parts = [zeta_prime_at_zero(c, method) for c in spec.children]
        return sum((p[0] for p in parts), Decimal(0)), sum(p[1] for p in parts), parts[0][2]
    if spec.kind == "scaled":
        v, err, meth = zeta_prime_at_zero(spec.children[0], method)
        z0 = zeta_at(spec.children[0], 0).value
        # zeta_c(s) = factor^{-s} zeta(s):  zeta_c'(0) = zeta'(0) - log(factor) zeta(0)
        return v - spec.params["factor"].ln() * z0, err * 2, meth
    if spec.kind == "explicit" and method in ("auto", "closed_form"):
        total = Decimal(0)
        for v, m in zip(spec.params["values"], spec.params["multiplicities"]):
            total -= m * v.ln()
        return total, 0.0, "closed_form"
    if spec.kind == "circle" and method in ("auto", "closed_form"):
        return -2 * spec.params["length"].ln(), 1e-25, "closed_form"
    if spec.kind == "circle" and method == "euler_maclaurin":
        c = (2 * PI / spec.params["length"]) ** 2
        return _em_zeta_prime0(c), max(_em_error() * 10, 1e-12), "euler_maclaurin"
    terms = spec.lattice_terms()
    if terms is not None and method in ("auto", "mellin_theta"):
        forms, divisor = terms
        val = Decimal(0)
        for sign, M, d in forms:
            key = (tuple(x for row in M for x in row), d, getcontext().prec)
            if key not in _ZETA_PRIME0:
                _ZETA_PRIME0[key] = _regular_part(Decimal(0), M, d) - EULER_GAMMA
            val += sign * _ZETA_PRIME0[key]
        return val / divisor, float(len(forms) * TAIL_BOUND), "mellin_theta"
    raise NumericError(
        f"no zeta'(0) continuation for spectrum kind {spec.kind!r} with method {method!r}"
    )


@working_precision
def regularized_det(spec: SpectrumModel, method="auto"):
    """(det', error bound, method): exp(-zeta'(0)) with zero modes excluded."""
    zp0, err, meth = zeta_prime_at_zero(spec, method)
    value = (-zp0).exp()
    return value, float(Decimal(err) * abs(value) * 2 + Decimal(err)), meth
