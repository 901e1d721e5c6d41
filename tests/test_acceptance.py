"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import random
import string
import time
from fractions import Fraction
from itertools import product

import pytest
from mpmath import gamma, mp, mpf, pi

from dsl_corpus import corpus
from named_systems import (
    dx_system,
    first_order_flat_system,
    free_system,
    gradient_system,
    heat_system,
    wave_system,
)

from spencerlab.dsl import parse_pde_dsl, print_document
from spencerlab.errors import ParseError
from spencerlab.index import boundary_index, grr_index
from spencerlab.chern import MODELS, twist_class
from spencerlab.microlocal import (
    characteristic_ideal,
    classify_mixed,
    external_product_char,
    factorization_check,
    is_elliptic,
    is_hyperbolic,
)
from spencerlab.spencer import (
    delta_cohomology,
    finite_type_dimensions,
    poincare_series,
    spencer_complex,
    to_flat_connection,
)
from spencerlab.spectra import SpectrumModel
from spencerlab.systems import laplace_system, make_system, tricomi_system
from spencerlab.torsion import bcov_torsion, ray_singer_torsion
from spencerlab.zeta import regularized_det, zeta_prime_at_zero

mp.dps = 30

TWO_PI = float(2 * pi)


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_01_delta_poincare_exactness():
    start = time.monotonic()
    for n in (1, 2, 3):
        for m in (1, 2):
            cx = spencer_complex(free_system(n, m, 1), max_order=5)
            table = delta_cohomology(cx)
            for (q, i), dim in table.entries.items():
                if 1 <= q <= 4:
                    assert dim == 0, (n, m, q, i, dim)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"free-module delta cohomology vanishes for k in 1..4 "
              f"(n<=3, m<=2) in {elapsed:.1f}s")


def test_criterion_02_finite_type_frobenius():
    assert sum(finite_type_dimensions(gradient_system())) == 1
    assert to_flat_connection(gradient_system()).rank == 1
    rng = random.Random(42)
    for m in (1, 2, 3, 4):
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
             for _ in range(m)]
        sys_ = first_order_flat_system(a)
        assert sum(finite_type_dimensions(sys_)) == m
        assert to_flat_connection(sys_).rank == m
    report(2, "gradient system and random flat ODE systems up to 4x4 give "
              "solution dimension = m = flat rank, exactly")


def test_criterion_03_poincare_series():
    assert poincare_series(laplace_system(), 6) == [1, 2, 2, 2, 2, 2, 2]
    from math import comb

    for n in (1, 2, 3):
        series = poincare_series(free_system(n, 1, 1), 6)
        assert series == [comb(k + n - 1, n - 1) for k in range(7)]
    report(3, "Laplace series is 1,2,2,2,... through order 6; free systems "
              "grow binomially, exactly")


def test_criterion_04_classification():
    start = time.monotonic()
    ok, cert = is_elliptic(laplace_system())
    assert ok and cert["kind"] == "definite"
    rep = is_hyperbolic(wave_system(), (1, 0))
    assert rep.value is True and rep.certificate["kind"] == "sturm"
    rep_heat = is_hyperbolic(heat_system(), (1, 0))
    assert rep_heat.value is None and rep_heat.status == "degenerate"
    heat_elliptic, _ = is_elliptic(heat_system())
    assert not heat_elliptic

    # Tricomi strata on a 10 x 10 x 8 grid, exact labels
    xs = [Fraction(k) for k in range(10)]
    ys = [Fraction(k, 2) for k in range(-5, 5)]  # crosses the fold at y = 0
    xis = [
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (1, 2),
    ]
    bases = [(x, y) for x in xs for y in ys]
    result = classify_mixed(tricomi_system(), (bases, xis), directions=[(0, 1)])
    assert len(result.labels) == 10 * 10 * 8
    for lab, (x, xi) in zip(result.labels, product(bases, xis)):
        y = x[1]
        if y > 0:
            assert lab["label"] == "elliptic", (x, xi, lab)
        elif y < 0:
            assert lab["label"] in ("hyperbolic", "characteristic")
            if lab["label"] == "hyperbolic":
                assert lab["direction"] == ["0", "1"]
        else:
            assert lab["label"] in ("degenerate", "characteristic")
    assert result.strata["elliptic"] == 10 * 4 * 8  # y in 1/2..2
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(4, f"Laplace elliptic, wave hyperbolic(dt) by Sturm, heat "
              f"degenerate, Tricomi splits at y=0 on 10x10x8 grid in {elapsed:.1f}s")


def test_criterion_05_kunneth_factorization():
    start = time.monotonic()
    systems = {"dx": dx_system(1), "laplace": laplace_system(), "wave": wave_system()}
    for name_a, a in systems.items():
        for name_b, b in systems.items():
            cv, ok, _ = external_product_char(a, b)
            assert ok, (name_a, name_b)
            da = characteristic_ideal(a).dimension
            db = characteristic_ideal(b).dimension
            assert cv.dimension == da + db, (name_a, name_b)
    for sys_ in systems.values():
        assert factorization_check(sys_, max_copies=3)["all_passed"]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(5, f"Kunneth containment + dimension additivity for all products "
              f"of dx/Laplace/wave, diagonal pullback to 3 copies, in {elapsed:.1f}s")


def test_criterion_06_grr_values():
    p1, p2, ec = MODELS["P1"], MODELS["P2"], MODELS["elliptic_curve"]
    for d in range(6):
        assert grr_index(twist_class(p1, d)).index == d + 1
    for d in range(5):
        expected = (d + 1) * (d + 2) // 2
        assert grr_index(twist_class(p2, d)).index == expected
    assert grr_index(ec.unit()).index == 0
    report(6, "chi(O(d)) = d+1 on P1 (d<=5), (d+1)(d+2)/2 on P2 (d<=4), "
              "0 on the elliptic curve, exact integers")


def test_criterion_07_boundary_decomposition():
    ind, ind_b, ind_rel = boundary_index({0: 1}, {0: 2})
    assert (ind, ind_b, ind_rel) == (1, 2, -1)
    _, _, disk = boundary_index({0: 1}, {0: 1, 1: 1})
    assert disk == 1
    report(7, "interval model gives Ind_rel = -1 = 1 - 2; disk model gives 1")


def test_criterion_08_circle_determinant():
    target = float(4 * pi**2)
    det, err, method = regularized_det(SpectrumModel.circle(TWO_PI))
    assert method == "closed_form"
    assert abs(float(det) - target) < 1e-9
    zp0, _, meth = zeta_prime_at_zero(SpectrumModel.circle(TWO_PI),
                                      method="euler_maclaurin")
    from mpmath import exp as mexp

    assert meth == "euler_maclaurin"
    assert abs(float(mexp(-zp0)) - target) < 1e-3
    report(8, "det' of the unit circle = 4 pi^2 within 1e-9 (closed form) "
              "and 1e-3 (Euler-Maclaurin)")


def test_criterion_09_torus_determinant():
    start = time.monotonic()
    det, err, method = regularized_det(SpectrumModel.flat_torus(1j))
    target = float(gamma(mpf(1) / 4) ** 4 / (4 * pi**3))
    assert method == "mellin_theta"
    assert abs(float(det) - target) < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(9, f"det' at tau = i equals Gamma(1/4)^4/(4 pi^3) ~ 1.3932039 "
              f"within 1e-6 via Epstein continuation in {elapsed:.1f}s")


def test_criterion_10_torsion_cancellations():
    t = SpectrumModel.flat_torus(1j)
    torus = ray_singer_torsion(
        {0: t, 1: SpectrumModel.direct_sum(t, t), 2: t}, convention="exp_full"
    )
    assert abs(torus.torsion - 1.0) < 1e-9
    for L in (TWO_PI, 2.0, 0.5):
        circle = SpectrumModel.circle(L)
        rep = ray_singer_torsion({0: circle, 1: circle}, convention="exp_full")
        assert abs(rep.torsion - L**-2) < 1e-9
    report(10, "flat 2-torus de Rham torsion = 1 within 1e-9; circle torsion "
               "= L^-2 under the exponential convention")


def test_criterion_11_bcov_and_scaling():
    t = SpectrumModel.flat_torus(1j)
    hodge = {(p, q): t for p in (0, 1) for q in (0, 1)}
    bcov = bcov_torsion(hodge)
    det, _, _ = regularized_det(t)
    assert abs(bcov.torsion - float(det)) < 1e-6
    for c in (Fraction(2), Fraction(1, 3)):
        scaled, _, _ = regularized_det(t.scaled(c))
        # zeta(0) = -1: det'(c Delta) = det'/c
        assert abs(float(scaled) - float(det) / float(c)) < 1e-9
    report(11, "BCOV combination equals det' at tau = i within 1e-6; scaling "
               "law holds within 1e-9 for c in {2, 1/3}")


def test_criterion_12_fiberwise_constancy():
    fibers = [
        make_system(("x",), ("u",), [[(1, 0, (1,)), (-s, 0, (0,))]])
        for s in (0, 1, 2)
    ]
    indices = [sum(finite_type_dimensions(f)) for f in fibers]
    assert indices == [1, 1, 1]
    report(12, "flat family u' = s u reports indices (1,1,1), locally constant")


def test_criterion_13_parser_robustness():
    cases = corpus()
    assert len(cases) == 50
    for text in cases:
        doc = parse_pde_dsl(text)
        assert parse_pde_dsl(print_document(doc)) == doc
    rng = random.Random(13)
    alphabet = string.ascii_letters + string.digits + "{}()[];:,=+-*/^<>#. \n"
    for trial in range(10_000):
        if trial % 2:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
        else:
            base = list(rng.choice(cases))
            for _ in range(rng.randint(1, 5)):
                pos = rng.randrange(max(1, len(base)))
                if rng.random() < 0.5 and base:
                    base[pos] = rng.choice(alphabet)
                else:
                    base.insert(pos, rng.choice(alphabet))
            text = "".join(base)
        try:
            parse_pde_dsl(text)
        except ParseError:
            pass
    report(13, "50-case corpus round-trips; 10^4 fuzz inputs produce only "
               "positioned diagnostics")
