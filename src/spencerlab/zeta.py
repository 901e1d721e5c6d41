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
independent cross-check, and closed forms (Riemann zeta) where they exist.
"""

from __future__ import annotations

from collections import namedtuple

from mpmath import (
    bernoulli,
    diff,
    euler as euler_gamma,
    exp,
    factorial,
    gamma,
    gammainc,
    log,
    mp,
    mpf,
    mpc,
    pi,
    sqrt,
    zeta as riemann_zeta,
)

from .errors import NumericError, PoleError
from .spectra import SpectrumModel, lattice_points

mp.dps = 30

LATTICE_CUTOFF = mpf(80)
TAIL_BOUND = mpf(10) * exp(-LATTICE_CUTOFF / 2)


ZetaValue = namedtuple("ZetaValue", "s value method error_bound")


def _realify(v):
    """Collapse numerically-real mpc results to mpf."""
    if hasattr(v, "imag") and abs(v.imag) < mpf("1e-22"):
        return v.real if hasattr(v, "real") else v
    return v


def _inverse(M, d):
    if d == 1:
        return [[1 / M[0][0]]], M[0][0]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    inv = [[M[1][1] / det, -M[0][1] / det], [-M[1][0] / det, M[0][0] / det]]
    return inv, det


def _regular_part(s, M, d):
    """g(s) = zeta(s) Gamma(s) + 1/s: the theta/Mellin sum without the zero-mode pole."""
    primal = lattice_points(M, d, LATTICE_CUTOFF)  # refuses a degenerate form before _inverse
    Minv, detM = _inverse(M, d)
    half_d = mpf(d) / 2
    dual = pi**half_d / sqrt(detM)
    g = dual / (s - half_d)
    for q, k in primal:
        g += k * gammainc(s, q) * q ** (-s)
    Mstar = [[pi**2 * Minv[i][j] for j in range(d)] for i in range(d)]
    for qs, k in lattice_points(Mstar, d, LATTICE_CUTOFF):
        g += k * dual * gammainc(half_d - s, qs) * qs ** (s - half_d)
    return g


def _theta_mellin_zeta(s, M, d):
    s = mpc(s)
    half_d = mpf(d) / 2
    if abs(s - half_d) < mpf("1e-12"):
        residue = pi**half_d / sqrt(_inverse(M, d)[1]) / gamma(half_d)
        raise PoleError(f"zeta has a simple pole at s = {half_d}", residue=float(residue))
    if abs(s) < mpf("1e-12"):
        return mpf(-1)
    return (_regular_part(s, M, d) - 1 / s) / gamma(s)


# zeta'(0) = g(0) - euler_gamma per exact form (entries, d, mp.prec): torsion
# and BCOV reports combine det' of the same Laplacian several times per job
_ZETA_PRIME0 = {}


def _em_zeta(s, c, mult=2, N=60, K=8):
    """Euler-Maclaurin continuation of sum_n mult*(c n^2)^{-s}."""
    s = mpc(s)
    f = lambda x: mult * (c * x**2) ** (-s)
    total = sum(f(n) for n in range(1, N + 1))
    total += mult * c ** (-s) * mpf(N) ** (1 - 2 * s) / (2 * s - 1)
    total -= f(N) / 2
    for k in range(1, K + 1):
        j = 2 * k - 1
        coeff = mpf(1)
        for i in range(j):
            coeff *= -2 * s - i
        total -= bernoulli(2 * k) / factorial(2 * k) * mult * c ** (-s) * coeff * mpf(
            N
        ) ** (-2 * s - j)
    return total


def _em_error(N=60, K=8):
    # standard EM remainder scale near s = 0
    return float(mpf(4) * abs(bernoulli(2 * K + 2)) / factorial(2 * K + 2) * mpf(N) ** (-(2 * K + 1)))


def zeta_at(spec: SpectrumModel, s, method="auto") -> ZetaValue:
    """Continued spectral zeta value; raises PoleError at continuation poles."""
    if spec.kind == "sum":
        parts = [zeta_at(c, s, method) for c in spec.children]
        return ZetaValue(
            complex(s),
            sum(p.value for p in parts),
            parts[0].method if parts else "closed_form",
            sum(p.error_bound for p in parts),
        )
    if spec.kind == "scaled":
        inner = zeta_at(spec.children[0], s, method)
        factor = spec.params["factor"]
        val = factor ** (-mpc(s)) * inner.value
        return ZetaValue(complex(s), _realify(val), inner.method, inner.error_bound * 2)
    if spec.kind == "explicit" and method in ("auto", "closed_form"):
        total = mpf(0)
        for v, m in zip(spec.params["values"], spec.params["multiplicities"]):
            total += m * v ** (-mpc(s))
        return ZetaValue(complex(s), total, "closed_form", 0.0)
    if spec.kind == "circle" and method in ("auto", "closed_form"):
        L = spec.params["length"]
        if abs(mpc(s) - mpf("0.5")) < mpf("1e-12"):
            raise PoleError("circle zeta has a pole at s = 1/2", residue=float(L / (2 * pi)))
        val = 2 * (L / (2 * pi)) ** (2 * mpc(s)) * riemann_zeta(2 * mpc(s))
        return ZetaValue(complex(s), _realify(val), "closed_form", 1e-25)
    if spec.kind == "circle" and method == "euler_maclaurin":
        L = spec.params["length"]
        c = (2 * pi / L) ** 2
        return ZetaValue(complex(s), _realify(_em_zeta(s, c)), "euler_maclaurin", _em_error())
    terms = spec.lattice_terms()
    if terms is not None and method in ("auto", "mellin_theta"):
        forms, divisor = terms
        val, pole, residue = 0, None, 0
        for sign, M, d in forms:
            try:
                val += sign * _theta_mellin_zeta(s, M, d)
            except PoleError as exc:  # the combination's residue sums every term's
                pole, residue = pole or exc, residue + sign * exc.residue
        if pole is not None:
            raise PoleError(str(pole), residue=residue / divisor)
        val /= divisor
        return ZetaValue(
            complex(s), _realify(val), "mellin_theta", float(len(forms) * TAIL_BOUND)
        )
    raise NumericError(
        f"no continuation available for spectrum kind {spec.kind!r} with method {method!r}"
    )


def zeta_prime_at_zero(spec: SpectrumModel, method="auto"):
    """zeta'(0) with the method actually used; building block for torsion."""
    if spec.kind == "sum":
        parts = [zeta_prime_at_zero(c, method) for c in spec.children]
        return sum(p[0] for p in parts), sum(p[1] for p in parts), parts[0][2]
    if spec.kind == "scaled":
        v, err, meth = zeta_prime_at_zero(spec.children[0], method)
        factor = spec.params["factor"]
        z0 = zeta_at(spec.children[0], 0).value
        # zeta_c(s) = factor^{-s} zeta(s):  zeta_c'(0) = zeta'(0) - log(factor) zeta(0)
        return _realify(v - log(factor) * z0), err * 2, meth
    if spec.kind == "explicit" and method in ("auto", "closed_form"):
        total = mpf(0)
        for v, m in zip(spec.params["values"], spec.params["multiplicities"]):
            total -= m * log(v)
        return total, 0.0, "closed_form"
    if spec.kind == "circle" and method in ("auto", "closed_form"):
        L = spec.params["length"]
        return -2 * log(L), 1e-25, "closed_form"
    if spec.kind == "circle" and method == "euler_maclaurin":
        c = (2 * pi / spec.params["length"]) ** 2
        val = _realify(diff(lambda t: _em_zeta(t, c), 0))
        return val, max(_em_error() * 10, 1e-12), "euler_maclaurin"
    terms = spec.lattice_terms()
    if terms is not None and method in ("auto", "mellin_theta"):
        forms, divisor = terms
        val = 0
        for sign, M, d in forms:
            key = (tuple(x for row in M for x in row), d, mp.prec)
            if key not in _ZETA_PRIME0:
                _ZETA_PRIME0[key] = _regular_part(0, M, d) - euler_gamma
            val += sign * _ZETA_PRIME0[key]
        return val / divisor, float(len(forms) * TAIL_BOUND), "mellin_theta"
    raise NumericError(
        f"no zeta'(0) continuation for spectrum kind {spec.kind!r} with method {method!r}"
    )


def regularized_det(spec: SpectrumModel, method="auto"):
    """(det', error bound, method): exp(-zeta'(0)) with zero modes excluded."""
    zp0, err, meth = zeta_prime_at_zero(spec, method)
    value = exp(-zp0)
    return value, float(err * abs(value) * 2 + mpf(err)), meth
