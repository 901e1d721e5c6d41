"""Oracles for the benchmark's jobs, independent of spencerlab.

Each oracle takes the job's parameters and its parsed report and returns a
list of problems; an empty list means the report is correct.  The expected
values come from textbook formulas (binomial symbol counts, the Killing
dimension, sign rules, Riemann-Roch on P^2) and, for the spectral jobs, from
Dedekind's eta through ``mpmath.qp`` at 40 digits.  A numeric value passes
when it is within the report's own declared error bound plus the rounding
of the report to 15 significant digits.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from mpmath import mp, mpc, mpf, qp
from mpmath import exp as mexp
from mpmath import expm1, pi, sqrt

ORACLE_DPS = 40


def C(n, k):
    return math.comb(n, k) if n >= 0 and 0 <= k <= n else 0


# -- textbook values ---------------------------------------------------------------------


def quadric_symbol_dim(k, n=3):
    """dim g^k of one second-order equation in n variables: dim S^k - dim S^(k-2)."""
    return C(k + n - 1, n - 1) - C(k + n - 3, n - 1)


def first_order_symbol_dim(q, n=4):
    """dim g^q of one first-order equation in n variables: S^q of an (n-1)-space."""
    return C(q + n - 2, n - 2)


def p2_euler_characteristic(d):
    """chi(P^2, O(d)) = (d+1)(d+2)/2 for every integer d."""
    return (d + 1) * (d + 2) // 2


def eta(tau):
    """Dedekind eta(tau) = q^(1/24) prod (1 - q^n), q = exp(2 pi i tau)."""
    tau = mpc(tau)
    return mexp(1j * pi * tau / 12) * qp(mexp(2j * pi * tau))


def torus_det_value(tau):
    """det' of the flat torus Laplacian: 4 (Im tau)^2 |eta(tau)|^4."""
    tau = mpc(tau)
    return 4 * tau.imag**2 * abs(eta(tau)) ** 4


def rectangle_det_value(a, b):
    """det of the Dirichlet Laplacian on [0,a] x [0,b]: |eta(i b/a)| / sqrt(2a).

    From 4 Z_rect = Z_lattice - Z_a - Z_b: the lattice term is a torus at
    tau = i b/a scaled by 1/a^2, each axis term a circle of length 2a (2b).
    """
    a, b = mpf(a), mpf(b)
    return abs(eta(1j * b / a)) / sqrt(2 * a)


def tricomi_label(x, xi):
    """Label of the Tricomi operator y u_xx + u_yy at (x; xi) off the fold y = 0."""
    y = x[1]
    if y * xi[0] ** 2 + xi[1] ** 2 == 0:
        return "characteristic"
    return "elliptic" if y > 0 else "hyperbolic"


def classify_grid(base_count, seed, n=2, xi_count=4):
    """The CLI's documented default grid: seeded rational base points (plus the
    origin) times axis and seeded integer covectors."""
    rng = random.Random(seed)
    bases = [tuple(Fraction(0) for _ in range(n))]
    while len(bases) < base_count:
        bases.append(tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)))
    xis = [tuple(Fraction(s if j == i else 0) for j in range(n)) for i in range(n) for s in (1, -1)]
    while len(xis) < 2 * n + xi_count:
        cand = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        if any(cand):
            xis.append(cand)
    return [(b, xi) for b in bases for xi in xis]


# -- numeric tolerance -------------------------------------------------------------------


def rounding(value):
    """Largest change rounding ``value`` to 15 significant digits can make."""
    value = abs(float(value))
    if value == 0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(value)) - 14)


def near(name, got, want, bound):
    """Problem text if |got - want| exceeds bound plus report rounding."""
    allowed = mpf(bound) + mpf(rounding(got))
    diff = abs(mpf(got) - want)
    if diff > allowed:
        return [f"{name}: got {got!r}, oracle {mp.nstr(want, 20)}, |diff| {mp.nstr(diff, 3)} > {mp.nstr(allowed, 3)}"]
    return []


def expect(name, got, want):
    return [] if got == want else [f"{name}: got {got!r}, expected {want!r}"]


def _tau(text):
    re, im = (float(v) for v in text.split(","))
    return mpc(re, im)


# -- per-job checks ----------------------------------------------------------------------


def involutivity_degree(params, r):
    return expect("involutivity_degree", r["involutivity_degree"], params["degree"]) + expect(
        "found", r["found"], True)


def quadric_poincare(params, r):
    want = [quadric_symbol_dim(k) for k in range(params["order"] + 1)]
    return expect("coefficients", r["coefficients"], want)


def first_order_spencer(params, r):
    q_max = params["order"]
    problems = expect("symbol_dimensions", r["symbol_dimensions"],
                      {str(q): first_order_symbol_dim(q) for q in range(q_max + 1)})
    for key, dim in r["cohomology"].items():
        q = int(key.split(",")[0])
        if q >= 1 and dim != 0:
            problems.append(f"H^{{{key}}} = {dim}, expected 0 for q >= 1")
    return problems


def first_order_prolong(params, r):
    orders = list(range(1, params["count"] + 2))
    return expect("orders", r["orders"], orders) + expect(
        "dimensions", r["dimensions"], [first_order_symbol_dim(q) for q in orders])


def killing_finite_type(params, r):
    # Killing fields of R^3: translations and rotations, dimension 3 + 3 = 6.
    return (expect("finite_type", r["finite_type"], True) + expect("l0", r["l0"], 1)
            + expect("solution_dimension_bound", r.get("solution_dimension_bound"), 6)
            + expect("flat_rank", r.get("flat_rank"), 6) + expect("flat", r.get("flat"), True))


def tricomi_labels(params, r):
    grid = classify_grid(params["grid"], params["seed"])
    labels = r["labels"]
    problems = expect("samples", r["samples"], len(grid)) + expect("labels", len(labels), len(grid))
    for (x, xi), lab in zip(grid, labels):
        if x[1] == 0:
            continue  # on the fold: unchecked
        want = tricomi_label(x, xi)
        if lab["label"] != want:
            problems.append(f"sample {lab['index']} at x={x}, xi={xi}: {lab['label']} != {want}")
        elif want == "hyperbolic" and lab.get("direction") != ["0", "1"]:
            problems.append(f"sample {lab['index']}: direction {lab.get('direction')}")
        if len(problems) > 5:
            break
    return problems


def kunneth_all_passed(params, r):
    f = r["factorization"]
    s_max = params["copies"]
    return (expect("all_passed", f["all_passed"], True)
            + expect("partition_checks", len(f["partition_checks"]), sum(s - 1 for s in range(2, s_max + 1)))
            + expect("diagonal_checks", len(f["diagonal_checks"]), s_max - 1))


def killing_elliptic(params, r):
    return expect("elliptic", r["elliptic"], True) + expect(
        "certificate.kind", r["certificate"]["kind"], "saturation")


def lame_elliptic(params, r):
    lam, mu = Fraction(params["lambda"]), Fraction(params["mu"])
    # det of the principal symbol is mu (lam + 2 mu) |xi|^4
    return expect("elliptic", r["elliptic"], mu * (lam + 2 * mu) != 0)


def wave_hyperbolic(params, r):
    return expect("hyperbolic", r["hyperbolic"], True)


def tricomi_noncharacteristic(params, r):
    # the conormal of span{(1, 0)} is (0, 1), where y*0^2 + 1^2 = 1 != 0 at every point
    conormal = (-params["subspace"][1], params["subspace"][0])
    want = all(tricomi_label((0, y), conormal) != "characteristic" for y in (-1, 1))
    return expect("noncharacteristic", r["noncharacteristic"], want)


def cauchy_riemann_index(params, r):
    return expect("index", r["index"], 1)


def grr_p2(params, r):
    return expect("index", r["index"], p2_euler_characteristic(params["twist"]))


def torus_det(params, r):
    return near("det", r["det"], torus_det_value(_tau(params["tau"])), r["error_bound"])


def torus_torsion(params, r):
    return near("torsion", r["torsion"], mpf(1), r["error_bound"])


def bcov(params, r):
    bounds = [d["error_bound"] for d in r["per_degree"].values()]
    value = mpf(r["det_prime"])
    # det' = exp(log det'): a log error e moves it by at most det' * expm1(e)
    det_bound = value * expm1(mpf(max(bounds)))
    torsion_bound = expm1(mpf(sum(bounds)))
    return (near("det_prime", r["det_prime"], torus_det_value(_tau(params["tau"])), det_bound)
            + near("de_rham_torsion", r["de_rham_torsion"], mpf(1), torsion_bound))


def circle_det(params, r):
    return near("det", r["det"], mpf(float(params["length"])) ** 2, r["error_bound"])


def rectangle_det(params, r):
    return near("det", r["det"], rectangle_det_value(params["a"], params["b"]), r["error_bound"])


def circle_crosscheck(params, r):
    length = mpf(float(params["length"]))
    rows = r["rows"]
    problems = expect("modes_checked", r["modes_checked"], len(rows))
    for row in rows:
        m = (row["mode"] + 1) // 2  # modes come in +-m pairs
        exact = (2 * pi * m / length) ** 2
        # each row declares one bound; both columns are held to it
        for column in ("exact", "finite_difference"):
            problems += near(f"mode {row['mode']} {column}", row[column], exact, row["bound"])
    return problems


def quillen_norm(params, r):
    # l2 * exp(1/2 * 1 * log L^2) = L
    return near("quillen_norm", r["quillen_norm"], mpf(float(params["length"])), 0)


CHECKS = {f.__name__: f for f in (
    involutivity_degree, quadric_poincare, first_order_spencer, first_order_prolong,
    killing_finite_type, tricomi_labels, kunneth_all_passed, killing_elliptic, lame_elliptic,
    wave_hyperbolic, tricomi_noncharacteristic, cauchy_riemann_index, grr_p2, torus_det,
    torus_torsion, bcov, circle_det, rectangle_det, circle_crosscheck, quillen_norm,
)}


def check(oracle, params, report):
    """Problems with ``report`` (a parsed CLI report) under the named oracle."""
    try:
        with mp.workdps(ORACLE_DPS):
            return CHECKS[oracle](params, report["result"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"{oracle}: malformed report ({type(exc).__name__}: {exc})"]
