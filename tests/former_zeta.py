"""The mpmath continuation of spectral zeta functions, kept as a reference.

This is the engine spencerlab.zeta ran on mpmath at 30 digits before it
moved to decimal: the theta/Mellin sum with mpmath's gammainc, the
Euler-Maclaurin sum differentiated numerically by mpmath.diff, and
mpmath's Riemann zeta for the circle's closed form.  It shares no special
function with spencerlab and enumerates lattice points by brute force over
a box, so agreement with it checks the decimal engine independently.  It
reads only a SpectrumModel's kind, parameters and children.

It runs at 40 digits here: at 30, the theta sum of zeta(2) on the thin
torus tau = 0.3 + 0.05i and the differentiated Euler-Maclaurin sum keep
only about 1e-26 relative.
"""

from functools import wraps

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
    mpc,
    mpf,
    pi,
    sqrt,
    zeta as riemann_zeta,
)

from spencerlab.errors import NumericError

DPS = 40
LATTICE_CUTOFF = 80


def _at_dps(fn):
    @wraps(fn)
    def run(*args, **kwargs):
        with mp.workdps(DPS):
            return fn(*args, **kwargs)

    return run


def _mp(x):
    return mpf(str(x))


def _lattice_terms(spec):
    """(sign, M, d) terms and divisor, as SpectrumModel.lattice_terms, in mpf."""
    if spec.kind == "circle":
        return [(1, [[(2 * pi / _mp(spec.params["length"])) ** 2]], 1)], 1
    if spec.kind == "flat_torus":
        tau, c = spec.params["tau"], _mp(spec.params["lattice_scale"])
        re, im = mpf(tau.real) - round(tau.real), mpf(tau.imag)
        base = pi**2 / (im * c) ** 2
        return [(1, [[base, base * re], [base * re, base * (re**2 + im**2)]], 2)], 1
    if spec.kind == "rectangle":
        ma, mb = (pi / _mp(spec.params["a"])) ** 2, (pi / _mp(spec.params["b"])) ** 2
        return [(1, [[ma, mpf(0)], [mpf(0), mb]], 2), (-1, [[ma]], 1), (-1, [[mb]], 1)], 4
    return None


_POINTS = {}


def _lattice_points(M, d, cutoff):
    """_box_points, memoised per form entries, d, cutoff and working
    precision: every s of one spectrum scans the same two boxes."""
    key = (tuple(map(tuple, M)), d, cutoff, mp.dps)
    if key not in _POINTS:
        _POINTS[key] = _box_points(M, d, cutoff)
    return _POINTS[key]


def _box_points(M, d, cutoff):
    """(q, 2) per pair +-v of nonzero v in Z^d with q = v^T M v <= cutoff,
    over the box |v_i| <= sqrt(cutoff / least eigenvalue of M)."""
    if d == 1:
        radius = int(sqrt(cutoff / M[0][0])) + 1
        return [(M[0][0] * a * a, 2) for a in range(1, radius + 1)
                if M[0][0] * a * a <= cutoff]
    (m00, m01), (_, m11) = M
    trace, det = m00 + m11, m00 * m11 - m01 * m01
    least = (trace - sqrt(trace**2 - 4 * det)) / 2
    radius = int(sqrt(cutoff / least)) + 1
    points = []
    for a in range(0, radius + 1):
        for b in range(-radius, radius + 1):
            if a == 0 and b <= 0:
                continue
            q = m00 * a * a + 2 * m01 * a * b + m11 * b * b
            if q <= cutoff:
                points.append((q, 2))
    return points


def _realify(v):
    if hasattr(v, "imag") and abs(v.imag) < mpf("1e-22"):
        return v.real if hasattr(v, "real") else v
    return v


def _inverse(M, d):
    if d == 1:
        return [[1 / M[0][0]]], M[0][0]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    return [[M[1][1] / det, -M[0][1] / det], [-M[1][0] / det, M[0][0] / det]], det


def _regular_part(s, M, d):
    Minv, detM = _inverse(M, d)
    half_d = mpf(d) / 2
    dual = pi**half_d / sqrt(detM)
    g = dual / (s - half_d)
    for q, k in _lattice_points(M, d, LATTICE_CUTOFF):
        g += k * gammainc(s, q) * q ** (-s)
    Mstar = [[pi**2 * Minv[i][j] for j in range(d)] for i in range(d)]
    for qs, k in _lattice_points(Mstar, d, LATTICE_CUTOFF):
        g += k * dual * gammainc(half_d - s, qs) * qs ** (s - half_d)
    return g


def _theta_mellin_zeta(s, M, d):
    s = mpc(s)
    half_d = mpf(d) / 2
    if abs(s - half_d) < mpf("1e-12"):
        residue = pi**half_d / sqrt(_inverse(M, d)[1]) / gamma(half_d)
        raise NumericError(f"zeta has a simple pole at s = {half_d}, residue {float(residue)}")
    if abs(s) < mpf("1e-12"):
        return mpf(-1)
    return (_regular_part(s, M, d) - 1 / s) / gamma(s)


def _em_zeta(s, c, mult=2, N=60, K=8):
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


@_at_dps
def zeta_at(spec, s, method="auto"):
    """The continued spectral zeta value at s, an mpf (or mpc)."""
    if spec.kind == "sum":
        return sum(zeta_at(c, s, method) for c in spec.children)
    if spec.kind == "scaled":
        return _realify(_mp(spec.params["factor"]) ** (-mpc(s))
                        * zeta_at(spec.children[0], s, method))
    if spec.kind == "explicit" and method in ("auto", "closed_form"):
        return sum(m * _mp(v) ** (-mpc(s))
                   for v, m in zip(spec.params["values"], spec.params["multiplicities"]))
    if spec.kind == "circle" and method in ("auto", "closed_form"):
        L = _mp(spec.params["length"])
        return _realify(2 * (L / (2 * pi)) ** (2 * mpc(s)) * riemann_zeta(2 * mpc(s)))
    if spec.kind == "circle" and method == "euler_maclaurin":
        c = (2 * pi / _mp(spec.params["length"])) ** 2
        return _realify(_em_zeta(s, c))
    forms, divisor = _lattice_terms(spec)
    return _realify(sum(sign * _theta_mellin_zeta(s, M, d) for sign, M, d in forms) / divisor)


@_at_dps
def zeta_prime_at_zero(spec, method="auto"):
    """zeta'(0) as an mpf."""
    if spec.kind == "sum":
        return sum(zeta_prime_at_zero(c, method) for c in spec.children)
    if spec.kind == "scaled":
        child = spec.children[0]
        return (zeta_prime_at_zero(child, method)
                - log(_mp(spec.params["factor"])) * zeta_at(child, 0))
    if spec.kind == "explicit" and method in ("auto", "closed_form"):
        return -sum(m * log(_mp(v))
                    for v, m in zip(spec.params["values"], spec.params["multiplicities"]))
    if spec.kind == "circle" and method in ("auto", "closed_form"):
        return -2 * log(_mp(spec.params["length"]))
    if spec.kind == "circle" and method == "euler_maclaurin":
        c = (2 * pi / _mp(spec.params["length"])) ** 2
        return _realify(diff(lambda t: _em_zeta(t, c), 0))
    terms = _lattice_terms(spec)
    if terms is None:
        raise NumericError(f"no reference continuation for {spec.kind!r}")
    forms, divisor = terms
    return sum(sign * (_regular_part(0, M, d) - euler_gamma) for sign, M, d in forms) / divisor


@_at_dps
def regularized_det(spec, method="auto"):
    """det' = exp(-zeta'(0)) as an mpf."""
    return exp(-zeta_prime_at_zero(spec, method))
