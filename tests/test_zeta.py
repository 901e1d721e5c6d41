"""Half-lattice enumeration, skewed tori and one lattice sum per job."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from test_torsion import count_up_to, eta_abs4

from spencerlab import zeta
from spencerlab.cli import main
from spencerlab.spectra import SpectrumModel, lattice_points
from spencerlab.zeta import regularized_det

mp.dps = 30


def _mp(x):
    x = Fraction(x)
    return mpf(x.numerator) / x.denominator


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
    Mm = [[_mp(x) for x in row] for row in M]
    cut = _mp(cutoff)
    # every v with Q(v) <= cutoff has |v|^2 <= cutoff / lam_min
    radius = int((cutoff / lam_min) ** 0.5) + 1
    box = range(-radius, radius + 1)
    vs = [(a,) for a in box] if d == 1 else [(a, b) for a in box for b in box]
    brute = sorted(q for q in (_q(Mm, v) for v in vs if any(v)) if q <= cut)
    found = lattice_points(Mm, d, cut)
    assert all(k == 2 for _, k in found)
    assert sorted(q for q, k in found for _ in range(k)) == brute


@pytest.mark.parametrize("tau", [2 + 1j, 5 + 1j, 0.3 + 0.05j, 0.5 + 0.6j])
def test_skewed_torus_determinant_matches_eta(tau):
    det, err, method = regularized_det(SpectrumModel.flat_torus(tau))
    assert method == "mellin_theta"
    assert abs(det - 4 * mpc(tau).imag ** 2 * eta_abs4(tau)) <= err


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
