"""Half-lattice enumeration, skewed tori, one lattice sum per job, the
decimal engine against the former mpmath one, its special functions
against mpmath, and its scoped working precision."""

import decimal
import random
from collections import Counter
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

import former_zeta
from test_golden import CASES
from test_torsion import count_up_to, eta_abs4

from spencerlab import special, zeta
from spencerlab.cli import main
from spencerlab.errors import PreconditionError
from spencerlab.spectra import SpectrumModel, lattice_points
from spencerlab.torsion import ray_singer_torsion
from spencerlab.zeta import regularized_det, zeta_at_zero, zeta_prime_at_zero

mp.dps = 30


def _dec(x):
    x = Fraction(x)
    return special.CONTEXT.divide(Decimal(x.numerator), x.denominator)


def _q(M, v):
    if len(v) == 1:
        return M[0][0] * v[0] * v[0]
    a, b = v
    return M[0][0] * a * a + 2 * M[0][1] * a * b + M[1][1] * b * b


@st.composite
def forms(draw):
    """(M, cutoff) with M = s B^T B for an integer basis B, so nearly parallel
    basis vectors give skewed forms."""
    scale = draw(st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=9))
    size = draw(st.integers(1, 2))
    if size == 1:
        M = [[scale * draw(st.integers(1, 30))]]
        lam_min = M[0][0]
    else:
        (p, q), (r, s) = [[draw(st.integers(-6, 6)) for _ in range(2)] for _ in range(2)]
        assume(p * s != q * r)
        M = [[scale * (p * p + r * r), scale * (p * q + r * s)],
             [scale * (p * q + r * s), scale * (q * q + s * s)]]
        # the least eigenvalue is det / largest >= det / trace
        lam_min = (M[0][0] * M[1][1] - M[0][1] ** 2) / (M[0][0] + M[1][1])
    cutoff = lam_min * draw(st.fractions(min_value=0, max_value=150, max_denominator=7))
    return M, cutoff, lam_min


@settings(max_examples=150, deadline=None)
@given(forms())
@example(([[Fraction(1), Fraction(5)], [Fraction(5), Fraction(26)]], Fraction(40), Fraction(1, 27)))
def test_half_lattice_matches_brute_force(case):
    M, cutoff, lam_min = case
    d = len(M)
    Mm = [[_dec(x) for x in row] for row in M]
    cut = _dec(cutoff)
    # every v with Q(v) <= cutoff has |v|^2 <= cutoff / lam_min
    radius = int((cutoff / lam_min) ** 0.5) + 1
    box = range(-radius, radius + 1)
    vs = [(a,) for a in box] if d == 1 else [(a, b) for a in box for b in box]
    with localcontext(special.CONTEXT):  # the arithmetic lattice_points does
        brute = sorted(q for q in (_q(Mm, v) for v in vs if any(v)) if q <= cut)
    found = lattice_points(Mm, d, cut)
    assert all(k == 2 for _, k in found)
    assert sorted(q for q, k in found for _ in range(k)) == brute


@pytest.mark.parametrize("tau", [2 + 1j, 5 + 1j, 0.3 + 0.05j, 0.5 + 0.6j])
def test_skewed_torus_determinant_matches_eta(tau):
    det, err, method = regularized_det(SpectrumModel.flat_torus(tau))
    assert method == "mellin_theta"
    assert abs(mpf(str(det)) - 4 * mpc(tau).imag ** 2 * eta_abs4(tau)) <= err


@pytest.mark.parametrize("tau", [1j, 0.25 + 0.7j, 0.5 + 0.6j, -0.375 + 1.2j])
def test_torus_count_invariant_under_translation(tau):
    for cutoff in (10, 40, 200):
        assert (count_up_to(SpectrumModel.flat_torus(tau + 5), cutoff)
                == count_up_to(SpectrumModel.flat_torus(tau), cutoff))


def test_skewed_torus_counts_every_point():
    assert count_up_to(SpectrumModel.flat_torus(5 + 1j), 40) == 12
    assert count_up_to(SpectrumModel.flat_torus(1j), 40) == 12


@pytest.mark.parametrize("argv", [
    ["torsion", "--model", "torus", "--tau=0.3,0.9"],
    ["bcov", "--tau=0.3,0.9"],
])
def test_lattice_sum_evaluated_once_per_job(monkeypatch, capsys, argv):
    calls = Counter()

    def counting(M, d, cutoff):
        calls[(tuple(x for row in M for x in row), d)] += 1
        return lattice_points(M, d, cutoff)

    monkeypatch.setattr(zeta, "_ZETA_PRIME0", {})
    monkeypatch.setattr(zeta, "lattice_points", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 2  # the torus form and its dual
    assert set(calls.values()) == {1}


# -- the decimal engine against the former mpmath engine ---------------------------------

# name: (spectrum, method)
ORACLE_SPECTRA = {
    "circle": (lambda: SpectrumModel.circle(2), "closed_form"),
    "circle-em": (lambda: SpectrumModel.circle(2), "euler_maclaurin"),
    "rectangle": (lambda: SpectrumModel.rectangle(1, 2), "auto"),
    "explicit": (lambda: SpectrumModel.explicit([0, 1, 2, 3.5], [1, 2, 1, 3]), "auto"),
    "scaled": (lambda: SpectrumModel.flat_torus(1j).scaled(1.7), "auto"),
    "sum": (lambda: SpectrumModel.direct_sum(SpectrumModel.circle(3),
                                             SpectrumModel.flat_torus(0.3 + 0.7j)), "auto"),
    "tau=i": (lambda: SpectrumModel.flat_torus(1j), "auto"),
    "tau=0.3+0.7i": (lambda: SpectrumModel.flat_torus(0.3 + 0.7j), "auto"),
    "tau=-0.41+0.61i": (lambda: SpectrumModel.flat_torus(-0.41 + 0.61j), "auto"),
    "tau=0.3+0.05i": (lambda: SpectrumModel.flat_torus(0.3 + 0.05j), "auto"),
}


def _close(got, want, rel=1e-27):
    """got (a Decimal) within rel of want (an mpf), relatively."""
    with mp.workdps(40):
        return abs(mpf(str(got)) - want) <= rel * abs(want)


@pytest.mark.parametrize("name", ORACLE_SPECTRA)
def test_decimal_engine_matches_former_mpmath_engine(name):
    build, method = ORACLE_SPECTRA[name]
    spec = build()
    zp0 = zeta_prime_at_zero(spec, method)[0]
    assert _close(zp0, former_zeta.zeta_prime_at_zero(spec, method)), zp0
    det = regularized_det(spec, method)[0]
    assert _close(det, former_zeta.regularized_det(spec, method)), det
    z0 = zeta_at_zero(spec)
    assert _close(_dec(z0), former_zeta.zeta_at(spec, 0, method)), z0


@pytest.mark.parametrize("x", ["1e-9999999999999999999", "1e9999999999999999999"])
def test_input_outside_the_exponent_range_is_a_precondition_error(x):
    with pytest.raises(PreconditionError):
        SpectrumModel.circle(x)


@pytest.mark.parametrize("build", [
    lambda: SpectrumModel.circle(6.283185307179586),
    lambda: SpectrumModel.flat_torus(0.3 + 0.7j, 1.7),
    lambda: SpectrumModel.rectangle(1.1, 2.3),
    lambda: SpectrumModel.explicit([0, 0.1, 3.7], [1, 2, 1]),
])
def test_constructors_do_not_depend_on_the_callers_context(build):
    """The constructors only read their inputs (in special.CONTEXT) and
    compare them, so a 12-digit caller context with an Inexact trap changes
    nothing and gains no flags."""
    expected = regularized_det(build())
    with localcontext() as ctx:
        ctx.prec, ctx.traps[decimal.Inexact] = 12, True
        ctx.clear_flags()
        spec = build()
        assert not any(ctx.flags.values())
    assert regularized_det(spec) == expected


# -- special functions against mpmath ------------------------------------------------------


def _rel_error(got, want):
    with mp.workdps(60):
        want = mpmath.mpmathify(want)
        return abs(mpf(str(got)) - want) / abs(want)


def test_constants_and_bernoulli_numbers_match_mpmath():
    with mp.workdps(90):
        for got, want in [(special.PI, mpmath.pi), (special.EULER_GAMMA, mpmath.euler)]:
            assert abs(mpf(str(got)) - want) < 1e-80
    assert special.bernoulli_numbers(30) == tuple(Fraction(*mpmath.bernfrac(2 * k))
                                                  for k in range(1, 31))


# the orders zeta'(0) passes: 0 for the primal terms, d/2 for the dual ones
GAMMAINC_ORDERS = ["0", "0.5", "1"]


@pytest.mark.parametrize("a", GAMMAINC_ORDERS)
def test_gammainc_scaled_matches_mpmath(a):
    """Random x on both sides of SERIES_LIMIT, and the last series point
    next to the first continued-fraction point."""
    rng = random.Random(f"gammainc:{a}")
    a = Decimal(a)
    xs = [rng.uniform(1e-6, 1e-2), rng.uniform(0.01, 2), rng.uniform(0.01, 2),
          rng.uniform(2, 12), rng.uniform(2, 12), rng.uniform(12, 80), 2, a + 1,
          special.SERIES_LIMIT - Decimal("1e-9"), special.SERIES_LIMIT]
    with localcontext(special.CONTEXT):
        for x in (Decimal(x).quantize(Decimal("1e-9")) for x in xs):
            with mp.workdps(60):
                want = mpmath.gammainc(mpf(str(a)), mpf(str(x))) * mpf(str(x)) ** -mpf(str(a))
            assert _rel_error(special.gammainc_scaled(a, x), want) < 1e-35, x


SPECTRA_DOCUMENT = """spectrum circ { kind circle; length 2; }
spectrum rect { kind rectangle; a 1.1; b 2.3; }
spectrum list { kind explicit; values 0, 1, 2.5; multiplicities 1, 2, 1; }
spectrum skew { kind torus; tau 0.3, 0.7; scale 1.7; }
"""


def test_zeta_reads_gammainc_only_at_orders_0_half_and_1(monkeypatch, capsys, tmp_path):
    """gammainc_scaled computes only the orders 0, 1/2 and 1; these are all
    that zeta passes, over the golden spectral cases, every det --method
    route, torsion and bcov."""
    orders = set()

    def recording(a, x):
        orders.add(a)
        return special.gammainc_scaled(a, x)

    monkeypatch.setattr(zeta, "_ZETA_PRIME0", {})
    monkeypatch.setattr(zeta, "gammainc_scaled", recording)
    for build, method, *_ in CASES.values():
        zeta_prime_at_zero(build(), method)
    doc = tmp_path / "spectra.pde"
    doc.write_text(SPECTRA_DOCUMENT)
    sources = [["--model", "circle", "--length", "2"], ["--model", "torus", "--tau=0.3,0.7"]]
    sources += [[str(doc), "--spectrum", name] for name in ("circ", "rect", "list", "skew")]
    for source in sources:
        for method in ("auto", "closed_form", "euler_maclaurin", "mellin_theta"):
            assert main(["det", *source, "--method", method]) in (0, 3)
    for argv in (["torsion", "--model", "circle", "--length", "2"],
                 ["torsion", "--model", "torus", "--tau=0.3,0.7"], ["bcov", "--tau=0.3,0.7"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert orders == {Decimal(0), Decimal("0.5"), Decimal(1)}


# -- scoped precision ----------------------------------------------------------------------


def test_entry_points_leave_the_decimal_context_unchanged():
    """regularized_det and ray_singer_torsion run at their own precision:
    the caller's context keeps its settings and gains no flags, and the
    results do not depend on it."""
    spec = SpectrumModel.flat_torus(0.3 + 0.7j)
    expected = regularized_det(spec), ray_singer_torsion({0: spec, 1: spec})
    with localcontext() as ctx:
        ctx.prec, ctx.traps[decimal.Inexact] = 12, True
        ctx.clear_flags()
        state = (ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, dict(ctx.traps))
        zeta._ZETA_PRIME0.clear()
        got = regularized_det(spec), ray_singer_torsion({0: spec, 1: spec})
        assert getcontext() is ctx
        assert (ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, dict(ctx.traps)) == state
        assert not any(ctx.flags.values())
    assert got == expected
