"""Golden values of the spectral layer, bit for bit.

The literals are the mpf reprs (which round-trip at 30 digits) and the float
reports computed by the theta/Mellin engine before its lattice sum, its
rectangle combination and its torsion loop each became one code path.  Any
change that moves a bit of zeta'(0), zeta(0), det', an error bound or a
torsion report fails here; the other tests only check tolerances.
"""

import pytest
from mpmath import mp, mpf

from spencerlab.spectra import SpectrumModel
from spencerlab.torsion import bcov_torsion, ray_singer_torsion
from spencerlab.zeta import regularized_det, zeta_at, zeta_prime_at_zero

mp.dps = 30

THETA = "mellin_theta"

# name: (spectrum, method, zeta'(0), zeta(0), det', zeta' bound, det' bound, method used)
CASES = {
    "circle": (
        lambda: SpectrumModel.circle(2 * mp.pi), "auto",
        "-3.67575413281869096712131894562285", "-1.0",
        "39.4784176043574344753379639995218", 1e-25, 7.995683520871487e-24, "closed_form",
    ),
    "circle_theta": (
        lambda: SpectrumModel.circle(2 * mp.pi), THETA,
        "-3.67575413281869096712131894562285", "-1.0",
        "39.4784176043574344753379639995218", 4.248354255291589e-17, 3.3968496109859216e-15,
        THETA,
    ),
    "torus_i": (
        lambda: SpectrumModel.flat_torus(1j), "auto",
        "-0.331606080124218688217695463903076", "-1.0",
        "1.39320392968567685918424626032501", 4.248354255291589e-17, 1.6086001941629806e-16,
        THETA,
    ),
    "torus_skew_scale2": (
        lambda: SpectrumModel.flat_torus(0.3 + 0.7j, 2), "auto",
        "-1.34212925748619807649326135930814", "-1.0",
        "3.82718389575831205928777372242368", 4.248354255291589e-17, 3.676682023394812e-16,
        THETA,
    ),
    "torus_scaled": (
        lambda: SpectrumModel.flat_torus(1j).scaled(1.7), "auto",
        "0.199022170937951708013847699285682", "-1.0",
        "0.819531723344515799520144859014734", 8.496708510583178e-17, 2.242335284745167e-16,
        THETA,
    ),
    "rectangle": (
        lambda: SpectrumModel.rectangle(1, 2), "auto",
        "0.870175853238870128394270301029412", "0.25",
        "0.418877881738299028956182998501511", 1.2745062765874767e-16, 2.3422312553857345e-16,
        THETA,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_spectral_values_are_bit_identical(name):
    build, method, zp0, z0, det, zp0_err, det_err, used = CASES[name]
    spec = build()
    assert zeta_prime_at_zero(spec, method) == (mpf(zp0), zp0_err, used)
    zeta0 = zeta_at(spec, 0, method)
    assert (zeta0.value, zeta0.error_bound, zeta0.method) == (mpf(z0), zp0_err, used)
    assert regularized_det(spec, method) == (mpf(det), det_err, used)


def _degree(zeta0, zeta_prime0, error_bound, zero_modes, weight):
    return {"zeta0": zeta0, "zeta_prime0": zeta_prime0, "log_det": -zeta_prime0,
            "method": THETA, "error_bound": error_bound, "zero_modes": zero_modes,
            "weight": weight}


ZP1, ERR1 = 0.04416510363369254, 4.248354255291589e-17
ZP2, ERR2 = 0.08833020726738508, 8.496708510583178e-17


def _de_rham(tau):
    spec = SpectrumModel.flat_torus(tau)
    return {0: spec, 1: SpectrumModel.direct_sum(spec, spec), 2: spec}


def test_bcov_torsion_report_is_bit_identical():
    spec = SpectrumModel.flat_torus(0.3 + 0.7j)
    report = bcov_torsion({(p, q): spec for p in (0, 1) for q in (0, 1)})
    assert report.torsion == 0.956795973939578
    assert report.convention == "bcov"
    assert report.error_bound == 8.129616494664133e-17
    assert report.inputs == {"p_max": 1, "q_max": 1}
    assert report.per_degree == {
        "0,0": _degree(-1.0, ZP1, ERR1, 1, 0),
        "0,1": _degree(-1.0, ZP1, ERR1, 1, 0),
        "1,0": _degree(-1.0, ZP1, ERR1, 1, 0),
        "1,1": _degree(-1.0, ZP1, ERR1, 1, 1),
    }
    assert all(type(d["weight"]) is int for d in report.per_degree.values())


@pytest.mark.parametrize("kwargs, torsion, convention, error_bound, weights", [
    ({"convention": "exp_full"}, 1.0, "exp_full", 3.398683404233271e-16, (0.0, -1.0, 2.0)),
    ({"weights": {0: 0.1, 1: -0.3, 2: 0.7}}, 0.9912058757920054, "explicit_weights",
     1.179078236081478e-16, (0.1, -0.3, 0.7)),
])
def test_ray_singer_report_is_bit_identical(kwargs, torsion, convention, error_bound, weights):
    report = ray_singer_torsion(_de_rham(0.3 + 0.7j), **kwargs)
    assert report.torsion == torsion
    assert report.convention == convention
    assert report.error_bound == error_bound
    assert report.inputs == {"degrees": [0, 1, 2]}
    assert report.per_degree == {
        0: _degree(-1.0, ZP1, ERR1, 1, weights[0]),
        1: _degree(-2.0, ZP2, ERR2, 2, weights[1]),
        2: _degree(-1.0, ZP1, ERR1, 1, weights[2]),
    }
    assert all(type(d["weight"]) is float for d in report.per_degree.values())
