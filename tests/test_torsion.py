import math
from fractions import Fraction

import pytest
from mpmath import gamma, mp, mpf, pi, qp, exp as mexp, mpc

from spencerlab.crosscheck import CROSSCHECK_BUDGET, fd_spectrum_crosscheck
from spencerlab.errors import PreconditionError
from spencerlab.special import to_decimal
from spencerlab.spectra import SpectrumModel, lattice_points
from spencerlab.torsion import (
    bcov_invariant_model,
    bcov_torsion,
    quillen_norm,
    ray_singer_torsion,
)
from spencerlab.zeta import regularized_det, zeta_at_zero, zeta_prime_at_zero

mp.dps = 30

TWO_PI = 2 * math.pi


def eta_abs4(tau):
    """|eta(tau)|^4 via the q-product, an oracle independent of the
    continuation machinery."""
    q = mexp(2j * pi * mpc(tau))
    eta = mexp(2j * pi * mpc(tau) / 24) * qp(q)
    return abs(eta) ** 4


# -- spectra ------------------------------------------------------------------------


def count_up_to(spec, cutoff):
    """Nonzero eigenvalues of a lattice-backed spectrum up to cutoff, with
    multiplicity."""
    return sum(k for _, k in lattice_points(*spec.lattice_form(), to_decimal(cutoff)))


def test_circle_enumeration_matches_closed_count():
    spec = SpectrumModel.circle(TWO_PI)
    # eigenvalues n^2, multiplicity 2: up to 30 -> n in 1..5
    evs = lattice_points(*spec.lattice_form(), to_decimal(30))
    assert [int(round(float(v))) for v, _ in evs] == [1, 4, 9, 16, 25]
    assert all(m == 2 for _, m in evs)
    assert count_up_to(spec, 30) == 10
    assert spec.zero_modes == 1


def test_torus_enumeration_is_exhaustive():
    spec = SpectrumModel.flat_torus(1j)
    # eigenvalues pi^2 (m^2 + n^2): count lattice points with m^2+n^2 <= 4
    count = count_up_to(spec, float(4 * pi**2) + 1e-9)
    brute = sum(
        1
        for m in range(-3, 4)
        for n in range(-3, 4)
        if (m or n) and m * m + n * n <= 4
    )
    assert count == brute == 12


# -- zeta values -----------------------------------------------------------------------


def test_explicit_zeta_finite_sum():
    # zeta(s) = 2 + 2^-s: zeta(0) counts the eigenvalues, zeta'(0) = -log 2
    spec = SpectrumModel.explicit([1, 1, 2])
    assert zeta_at_zero(spec) == 3
    zp0, err, method = zeta_prime_at_zero(spec)
    assert (err, method) == (0.0, "closed_form")
    assert abs(float(zp0) + math.log(2)) < 1e-15


def test_circle_zeta_zero():
    assert zeta_at_zero(SpectrumModel.circle(TWO_PI)) == -1


def test_circle_zeta_closed_vs_em():
    spec = SpectrumModel.circle(TWO_PI)
    closed = zeta_prime_at_zero(spec, "closed_form")
    em = zeta_prime_at_zero(spec, "euler_maclaurin")
    assert abs(closed[0] - em[0]) <= closed[1] + em[1]


# -- determinants ----------------------------------------------------------------------


def test_circle_determinant_closed_form():
    det, err, method = regularized_det(SpectrumModel.circle(TWO_PI))
    assert method == "closed_form"
    assert abs(float(det) - float(4 * pi**2)) < 1e-9


def test_circle_determinant_em():
    spec = SpectrumModel.circle(TWO_PI)
    zp0, err, method = zeta_prime_at_zero(spec, method="euler_maclaurin")
    assert method == "euler_maclaurin"
    assert abs(float(mexp(-zp0)) - float(4 * pi**2)) < 1e-3


def test_circle_determinant_mellin_matches():
    spec = SpectrumModel.circle(TWO_PI)
    zp0, err, method = zeta_prime_at_zero(spec, method="mellin_theta")
    assert method == "mellin_theta"
    assert abs(float(mexp(-zp0)) - float(4 * pi**2)) < 1e-12


def test_torus_determinant_gamma_quarter():
    det, err, method = regularized_det(SpectrumModel.flat_torus(1j))
    target = gamma(mpf(1) / 4) ** 4 / (4 * pi**3)
    assert method == "mellin_theta"
    assert abs(float(det) - float(target)) < 1e-6


def test_torus_determinant_eta_oracle_other_modulus():
    for tau in (2j, complex(0.5, 1.0)):
        det, _, _ = regularized_det(SpectrumModel.flat_torus(tau))
        target = 4 * mpc(tau).imag ** 2 * eta_abs4(tau)
        assert abs(float(det) - float(target)) < 1e-6


def test_explicit_determinant():
    det, _, _ = regularized_det(SpectrumModel.explicit([2]))
    assert abs(float(det) - 2) < 1e-25


def test_scaling_law():
    # det'(c Delta) = c^{zeta(0)} det'(Delta), zeta(0) = -1 on these models
    for c in (2, "1/3"):
        from fractions import Fraction

        cf = float(Fraction(str(c)))
        base = SpectrumModel.circle(TWO_PI)
        det0, _, _ = regularized_det(base)
        detc, _, _ = regularized_det(base.scaled(cf))
        assert abs(float(detc) - float(det0) / cf) < 1e-9


def test_scaling_law_torus():
    base = SpectrumModel.flat_torus(1j)
    det0, _, _ = regularized_det(base)
    detc, _, _ = regularized_det(base.scaled(2))
    assert abs(float(detc) - float(det0) / 2) < 1e-6


# -- torsion ----------------------------------------------------------------------------


def test_circle_de_rham_torsion_exp_full():
    for L in (TWO_PI, 3.0, 0.5):
        circle = SpectrumModel.circle(L)
        report = ray_singer_torsion({0: circle, 1: circle}, convention="exp_full")
        assert abs(report.torsion - L**-2) < 1e-9
        assert report.convention == "exp_full"


@pytest.mark.parametrize("L", [1e10, 1e50, 1e100, 1e150])
def test_long_circle_torsion_is_rounded_once(L):
    """T = L^-2 to 15 digits at every scale, within the declared bound plus
    the one rounding to a double: the log-determinants are summed before
    anything is rounded, and a bound below the double range stays nonzero."""
    circle = SpectrumModel.circle(L)
    report = ray_singer_torsion({0: circle, 1: circle}, convention="exp_full")
    exact = mpf(str(L)) ** -2  # the length is read as its decimal string
    assert float(format(report.torsion, ".15g")) == float(mp.nstr(exact, 15))
    assert abs(mpf(report.torsion) - exact) <= report.error_bound + exact * 2.0**-53
    assert report.error_bound > 0


def test_circle_torsion_product_half():
    circle = SpectrumModel.circle(TWO_PI)
    report = ray_singer_torsion({0: circle, 1: circle}, convention="product_half")
    assert abs(report.torsion - 1 / TWO_PI) < 1e-9


def test_torus_de_rham_torsion_cancels():
    t = SpectrumModel.flat_torus(1j)
    spectra = {0: t, 1: SpectrumModel.direct_sum(t, t), 2: t}
    for convention in ("exp_full", "product_half"):
        report = ray_singer_torsion(spectra, convention=convention)
        assert abs(report.torsion - 1.0) < 1e-9


def test_single_degree_reduces_to_determinant():
    spec = SpectrumModel.explicit([1])
    report = ray_singer_torsion({1: spec}, convention="product_half")
    det, _, _ = regularized_det(spec)
    assert abs(report.torsion - float(det) ** -0.5) < 1e-12


def test_empty_direct_sum_is_refused():
    """A sum of no spectra has no zeta'(0) to report: it is refused where it
    is built, so no torsion reaches it."""
    with pytest.raises(PreconditionError, match="at least one part"):
        ray_singer_torsion({0: SpectrumModel.direct_sum()})


# -- BCOV -------------------------------------------------------------------------------


def test_bcov_equals_det_on_torus():
    t = SpectrumModel.flat_torus(1j)
    hodge = {(p, q): t for p in (0, 1) for q in (0, 1)}
    report = bcov_torsion(hodge)
    det, _, _ = regularized_det(t)
    assert abs(report.torsion - float(det)) < 1e-6


def test_bcov_zero_weights():
    t = SpectrumModel.explicit([1, 2])
    hodge = {(0, 0): t, (0, 1): t, (1, 0): t, (1, 1): t}
    # kill the (1,1) contribution by weight arithmetic: here instead check
    # the pure p=0/q=0 slice produces weight zero rows
    report = bcov_torsion(hodge)
    assert report.per_degree["0,0"]["weight"] == 0
    assert report.per_degree["0,1"]["weight"] == 0
    assert report.per_degree["1,1"]["weight"] == 1


def test_bcov_weight_sum_consistency():
    # all spectra equal => T = det'^W with W = sum (-1)^{p+q} p q
    t = SpectrumModel.explicit([2, 3])
    pmax = qmax = 2
    hodge = {(p, q): t for p in range(pmax + 1) for q in range(qmax + 1)}
    report = bcov_torsion(hodge)
    w = sum(
        (-1) ** (p + q) * p * q
        for p in range(pmax + 1)
        for q in range(qmax + 1)
    )
    det, _, _ = regularized_det(t)
    assert abs(report.torsion - float(det) ** w) < 1e-12


def test_bcov_incomplete_range_rejected():
    t = SpectrumModel.explicit([1])
    with pytest.raises(PreconditionError):
        bcov_torsion({(0, 0): t, (1, 1): t})


# -- invariant model / Quillen -------------------------------------------------------------


def test_bcov_invariant_model_tau_i():
    report = bcov_invariant_model(1j)
    target = float(gamma(mpf(1) / 4) ** 4 / (4 * pi**3))
    assert abs(report["t_bcov"] - target) < 1e-6
    assert report["volume"] == 1.0
    assert report["vol_l2"] == "1"
    assert report["correction_factor"] == 1.0


def test_bcov_invariant_model_scaling():
    base = bcov_invariant_model(1j)
    scaled = bcov_invariant_model(1j, lattice_scale=2)
    # det' picks up c^2 under lattice -> c * lattice
    assert abs(scaled["det_prime"] - 4 * base["det_prime"]) < 1e-5


def test_bcov_invariant_model_rejects_lower_half():
    with pytest.raises(PreconditionError):
        bcov_invariant_model(-1j)


@pytest.mark.parametrize("area", [0.0, -1.0])
def test_bcov_invariant_model_rejects_nonpositive_area(area):
    with pytest.raises(PreconditionError):
        bcov_invariant_model(1j, area=area, chi=1)


def test_quillen_norm():
    assert quillen_norm(3.0, {0: 1.0, 1: 1.0}) == pytest.approx(3.0)
    assert quillen_norm(1.0, {1: math.e**2}) == pytest.approx(math.e)
    # circle de Rham determinant pattern (L^2, L^2)
    L = 1.7
    assert quillen_norm(2.0, {0: L**2, 1: L**2}) == pytest.approx(2.0 * L)


def test_quillen_multiplicative_in_l2():
    dets = {0: 2.0, 1: 5.0, 2: 0.3}
    a = quillen_norm(1.0, dets)
    assert quillen_norm(7.0, dets) == pytest.approx(7.0 * a)


# -- finite differences -----------------------------------------------------------------------


def test_fd_crosscheck_fine_grid():
    report = fd_spectrum_crosscheck(TWO_PI, 256)
    assert report["all_within_bound"]
    assert report["rows"][0]["residual"] < 1e-3


def test_fd_crosscheck_coarse_grid_ordered():
    report = fd_spectrum_crosscheck(TWO_PI, 8)
    assert report["ordering_monotone"]


def test_fd_crosscheck_requires_enough_points():
    with pytest.raises(PreconditionError):
        fd_spectrum_crosscheck(TWO_PI, 4)


def test_fd_crosscheck_budget_boundary():
    assert fd_spectrum_crosscheck(TWO_PI, CROSSCHECK_BUDGET)["modes_checked"] == 16384
    with pytest.raises(PreconditionError, match="work budget"):
        fd_spectrum_crosscheck(TWO_PI, CROSSCHECK_BUDGET + 1)


def test_quillen_continuity_in_each_det():
    base = {0: 2.0, 1: 5.0}
    q0 = quillen_norm(1.0, base)
    q1 = quillen_norm(1.0, {0: 2.0, 1: 5.0 * (1 + 1e-9)})
    assert abs(q1 - q0) < 1e-6 * q0


def test_rectangle_zeta_corner_value_and_brute_force():
    spec = SpectrumModel.rectangle(1, 1)
    assert spec.zero_modes == 0
    # Dirichlet unit square: four right-angle corners give zeta(0) = 1/4
    assert zeta_at_zero(spec) == Fraction(1, 4)
    # the signed combination 4 Z_rect = Z_2d - Z_a - Z_b against the modes
    # pi^2 (m^2 + n^2), m, n >= 1, counted directly
    forms, divisor = spec.lattice_terms()
    combined = sum(sign * sum(k for _, k in lattice_points(M, d, to_decimal(200)))
                   for sign, M, d in forms)
    brute = sum(1 for m in range(1, 5) for n in range(1, 5) if math.pi**2 * (m * m + n * n) <= 200)
    assert combined == divisor * brute == 4 * 13
    det, err, method = regularized_det(spec)
    assert float(det) > 0 and method == "mellin_theta"
