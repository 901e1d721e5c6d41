"""Spectral zeta functions at s = 0: zeta'(0), the regularized determinant
det' = exp(-zeta'(0)), and zeta(0) exactly.

For lattice-backed spectra {Q(v) = v^T M v, v in Z^d \\ 0} splitting the
Mellin integral at t = 1 and applying the modular transform of the theta
function on (0, 1) gives

  zeta(s) Gamma(s) = -1/s + g(s),
  g(s) = pi^{d/2} det(M)^{-1/2} / (s - d/2)
      + sum'_v Gamma(s, Q(v)) Q(v)^{-s}
      + pi^{d/2} det(M)^{-1/2} sum'_w Gamma(d/2 - s, Q*(w)) Q*(w)^{s - d/2},

with Q*(w) = pi^2 w^T M^{-1} w and g analytic at 0.  At s = 0 the sums
read the incomplete gamma function at three orders only: 0 in the primal
sum, and d/2 = 1/2 or 1 in the dual sum of a 1- or 2-dimensional form.
Since 1/Gamma(s) = s + euler_gamma s^2 + O(s^3), zeta(0) = -1 (the one
zero mode) and zeta'(0) = g(0) - euler_gamma.  One function,
_regular_part, computes g(0), memoised per form.  Both tails converge like
exp(-Q), so a cutoff of Q <= 80 puts the truncation error far below every
tolerance used here; each form reports a conservative multiple of
exp(-cutoff/2).

A spectrum is continued this way when it is a signed combination of
lattice forms (SpectrumModel.lattice_terms): the circle and the torus are
one form, and the Dirichlet rectangle is 4 Z_rect = Z_2d - Z_a - Z_b, the
full lattice less its two axis circles.  The combination is summed in
order and divided once, and its bound is one tail bound per form.

zeta(0) follows from the spectrum's structure alone and is an exact
Fraction (zeta_at_zero): -1 per lattice form in the signed combination,
the number of eigenvalues of an explicit list, the child's value under a
scaling (c^-s = 1 at s = 0), and the sum of a direct sum's parts.  The
circle also has zeta'(0) = -2 log L in closed form, and an Euler-Maclaurin
zeta'(0) as an independent cross-check.

Every other value is a decimal.Decimal computed at the one working
precision of special.CONTEXT, 38 significant digits, which each public
function here installs for its call and restores after it.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction
from math import factorial

from .errors import PreconditionError
from .spectra import SpectrumModel, lattice_points
from .special import (
    CONTEXT,
    EULER_GAMMA,
    PI,
    bernoulli_numbers,
    gammainc_scaled,
    to_decimal,
    working_precision,
)

LATTICE_CUTOFF = Decimal(80)
TAIL_BOUND = CONTEXT.multiply(10, CONTEXT.exp(-LATTICE_CUTOFF / 2))
# Euler-Maclaurin: N terms summed directly, then K Bernoulli corrections
EM_TERMS, EM_ORDER = 60, 8


def _inverse(M, d):
    if d == 1:
        return [[1 / M[0][0]]], M[0][0]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    inv = [[M[1][1] / det, -M[0][1] / det], [-M[1][0] / det, M[0][0] / det]]
    return inv, det


def _regular_part(M, d):
    """g(0) = lim_{s -> 0} (zeta(s) Gamma(s) + 1/s): the theta/Mellin sum
    without the zero-mode pole.  Gamma(a, q) q^-a is gammainc_scaled(a, q),
    at a = 0 for the primal terms and a = d/2 for the dual ones."""
    primal = lattice_points(M, d, LATTICE_CUTOFF)  # refuses a degenerate form before _inverse
    Minv, detM = _inverse(M, d)
    half_d = Decimal(d) / 2
    dual = PI**half_d / detM.sqrt()
    g = -dual / half_d
    for q, k in primal:
        g += k * gammainc_scaled(Decimal(0), q)
    Mstar = [[PI**2 * Minv[i][j] for j in range(d)] for i in range(d)]
    for qs, k in lattice_points(Mstar, d, LATTICE_CUTOFF):
        g += k * dual * gammainc_scaled(half_d, qs)
    return g


# zeta'(0) = g(0) - euler_gamma per exact form (entries, d, decimal precision):
# torsion and BCOV reports combine det' of the same Laplacian several times per job
_ZETA_PRIME0 = {}


def _em_zeta_prime0(c):
    """zeta'(0) of the circle's modes in +-n pairs, sum_n 2 (c n^2)^-s, by
    Euler-Maclaurin: zeta(s) = 2 c^-s G(s) with
    G(s) = sum_{n<=N} n^-2s + N^(1-2s)/(2s-1) - N^-2s/2
           - sum_{k<=K} B_2k/(2k)! (-2s)(-2s-1)...(-2s-2k+2) N^(-2s-2k+1),
    N = EM_TERMS and K = EM_ORDER.  In closed form G(0) = -1/2 and
    G'(0) = (2N + 1) log N - 2N - 2 log N! + 2 sum_{k<=K} B_2k / (2k (2k-1) N^(2k-1)),
    so zeta'(0) = log c + 2 G'(0)."""
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


def zeta_at_zero(spec: SpectrumModel) -> Fraction:
    """zeta(0) as an exact Fraction: the signed count of lattice forms,
    negated, over the combination's divisor; the eigenvalue count of an
    explicit list; a scaled spectrum's child's value, since c^-s = 1 at
    s = 0; and the total of a direct sum's parts."""
    if spec.kind == "sum":
        return sum((zeta_at_zero(c) for c in spec.children), Fraction(0))
    if spec.kind == "scaled":
        return zeta_at_zero(spec.children[0])
    if spec.kind == "explicit":
        return Fraction(sum(spec.params["multiplicities"]))
    forms, divisor = spec.lattice_terms()
    return Fraction(-sum(sign for sign, _, _ in forms), divisor)


@working_precision
def zeta_prime_at_zero(spec: SpectrumModel, method="auto"):
    """zeta'(0) with the method actually used; building block for torsion."""
    if spec.kind == "sum":
        parts = [zeta_prime_at_zero(c, method) for c in spec.children]
        return sum((p[0] for p in parts), Decimal(0)), sum(p[1] for p in parts), parts[0][2]
    if spec.kind == "scaled":
        v, err, meth = zeta_prime_at_zero(spec.children[0], method)
        z0 = to_decimal(zeta_at_zero(spec.children[0]))
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
                _ZETA_PRIME0[key] = _regular_part(M, d) - EULER_GAMMA
            val += sign * _ZETA_PRIME0[key]
        return val / divisor, float(len(forms) * TAIL_BOUND), "mellin_theta"
    raise PreconditionError(
        f"no zeta'(0) continuation for spectrum kind {spec.kind!r} with method {method!r}"
    )


@working_precision
def regularized_det(spec: SpectrumModel, method="auto"):
    """(det', error bound, method): exp(-zeta'(0)) with zero modes excluded."""
    zp0, err, meth = zeta_prime_at_zero(spec, method)
    value = (-zp0).exp()
    return value, float(Decimal(err) * abs(value) * 2 + Decimal(err)), meth
