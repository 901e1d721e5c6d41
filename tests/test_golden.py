"""Golden values of the spectral and microlocal layers, bit for bit.

The float reports were computed by the theta/Mellin engine before its
lattice sum, its rectangle combination and its torsion loop each became one
code path, and the engine's move from mpmath to decimal kept every one of
them.  The zeta'(0), zeta(0) and det' literals are the decimal engine's
38-digit results, compared as Decimals, digit for digit; they agree with the
former mpmath engine run at 40 digits (tests/former_zeta.py) to 1e-37
relative, where its 30-digit results, the literals before, were off by up to
1.3e-30.  Any change that moves a digit of zeta'(0), zeta(0), det', a bit of
an error bound or of a torsion report fails here; the other tests only check
tolerances.

The microlocal digests are sha256 sums of whole CLI reports (labels,
certificates, Kunneth checks), computed before the ellipticity ladder, the
external product and the Kunneth join each became one code path.  The two
400-base grids were computed while classify still decided every sample, and
every cone membership, on its own.

The jet digests are sha256 sums of whole CLI reports (symbol, prolong,
spencer, involutivity, poincare and finite-type, with and without the flat
connection) on corpus systems, finite-type systems and Killing's equations
of R^3, computed before the flat connection, the curvature check and the
symbol-dimension loops each became one code path.

The not-found jet digest is the sha256 of involutivity reports that no
flag of Cartan's test certifies within the bound, computed when their
delta-cohomology tables first stopped at order k + bound.

The DSL digest is the sha256 of the canonical printing of the corpus and of
region documents with constants, powers and negative terms, computed while
equations and regions still had a term parser and a printer each.
"""

import hashlib
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import former_zeta
from dsl_corpus import corpus

from spencerlab.cli import main
from spencerlab.dsl import parse_pde_dsl, print_document
from spencerlab.reports import input_hash
from spencerlab.spectra import SpectrumModel
from spencerlab.torsion import bcov_torsion, ray_singer_torsion
from spencerlab.zeta import regularized_det, zeta_at_zero, zeta_prime_at_zero

mp.dps = 30

THETA = "mellin_theta"

# name: (spectrum, method, zeta'(0), zeta(0), det', zeta' bound, det' bound, method used)
CASES = {
    "circle": (
        lambda: SpectrumModel.circle(2 * mp.pi), "auto",
        "-3.6757541328186909671213189456227870332", "-1.0",
        "39.478417604357434475337963999517098424", 1e-25, 7.995683520871487e-24, "closed_form",
    ),
    "circle_theta": (
        lambda: SpectrumModel.circle(2 * mp.pi), THETA,
        "-3.6757541328186909671213189456227870334", "-1.0",
        "39.478417604357434475337963999517098432", 4.248354255291589e-17, 3.3968496109859216e-15,
        THETA,
    ),
    "torus_i": (
        lambda: SpectrumModel.flat_torus(1j), "auto",
        "-0.33160608012421868821769546390333991281", "-1.0",
        "1.3932039296856768591842462603253682429", 4.248354255291589e-17, 1.6086001941629806e-16,
        THETA,
    ),
    "torus_skew_scale2": (
        lambda: SpectrumModel.flat_torus(0.3 + 0.7j, 2), "auto",
        "-1.3421292574861980764932613593081440307", "-1.0",
        "3.8271838957583120592877737224235178981", 4.248354255291589e-17, 3.676682023394812e-16,
        THETA,
    ),
    "torus_scaled": (
        lambda: SpectrumModel.flat_torus(1j).scaled(1.7), "auto",
        "0.19902217093795170801384769928542241518", "-1.0",
        "0.81953172334451579952014485901492249584", 8.496708510583178e-17, 2.242335284745167e-16,
        THETA,
    ),
    "rectangle": (
        lambda: SpectrumModel.rectangle(1, 2), "auto",
        "0.87017585323887012839427030102915780298", "0.25",
        "0.41887788173829902895618299850160618783", 1.2745062765874767e-16, 2.3422312553857345e-16,
        THETA,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_spectral_values_are_bit_identical(name):
    build, method, zp0, z0, det, zp0_err, det_err, used = CASES[name]
    spec = build()
    assert zeta_prime_at_zero(spec, method) == (Decimal(zp0), zp0_err, used)
    assert zeta_at_zero(spec) == Fraction(z0)
    assert regularized_det(spec, method) == (Decimal(det), det_err, used)


@pytest.mark.parametrize("name", sorted(CASES))
def test_spectral_literals_match_former_engine(name):
    build, method, zp0, _, det, *_ = CASES[name]
    spec = build()
    with mp.workdps(former_zeta.DPS):
        for literal, reference in ((zp0, former_zeta.zeta_prime_at_zero(spec, method)),
                                   (det, former_zeta.regularized_det(spec, method))):
            assert abs(mpf(literal) - reference) <= mpf("1e-37") * abs(reference), literal


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
    # 2 * (sum |w| bound) * T, with T from the unrounded zeta'(0): the
    # double nearest the same product at 50 digits (...133e-17 before, when
    # T came from log-determinants rounded to doubles)
    assert report.error_bound == 8.129616494664132e-17
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


# -- microlocal reports --------------------------------------------------------------

MICROLOCAL_DOCUMENT = """
system tricomi { vars x, y; unknowns u; eq: y*D[x,x](u) + D[y,y](u) = 0; }
system heat { vars t, x; unknowns u; eq: D[t](u) - D[x,x](u) = 0; }
system wave { vars t, x; unknowns u; eq: D[t,t](u) - D[x,x](u) = 0; }
system laplace { vars x, y; unknowns u; eq: D[x,x](u) + D[y,y](u) = 0; }
system dx { vars x; unknowns u; eq: D[x](u) = 0; }
system cr { vars x, y; unknowns u; eq: 1/2*D[x](u) + 1/2*i*D[y](u) = 0; }
system euler { vars x, y; unknowns u; eq: x*D[x](u) + y*D[y](u) + u = 0; }
system killing {
  vars x, y, z; unknowns u, v, w;
  eq: D[x](u) = 0; eq: D[y](v) = 0; eq: D[z](w) = 0;
  eq: D[y](u) + D[x](v) = 0; eq: D[z](u) + D[x](w) = 0; eq: D[z](v) + D[y](w) = 0;
}
system lame {
  vars x, y; unknowns u, v;
  eq: D[y,y](u) - D[x,y](v) = 0;
  eq: -1*D[x,y](u) + D[x,x](v) = 0;
}
"""

# A second document for the region and cone paths of classify, and for the
# Lame operator with lambda = mu = 1, so that the document above, and with
# it the input hash of each of its reports, stays as it is.
SHAPES_DOCUMENT = """
system tricomi { vars x, y; unknowns u; eq: y*D[x,x](u) + D[y,y](u) = 0; }
system wave { vars t, x; unknowns u; eq: D[t,t](u) - D[x,x](u) = 0; }
system lame11 {
  vars x, y; unknowns u, v;
  eq: 3*D[x,x](u) + D[y,y](u) + 2*D[x,y](v) = 0;
  eq: 2*D[x,y](u) + D[x,x](v) + 3*D[y,y](v) = 0;
}
region disc { vars x, y; x^2 + y^2 - 9 < 0; }
cone forward { generators (1, 1), (1, 0); kind closed; }
cone backward { generators (-1, 1), (-1, -1); kind closed; }
"""
# Closed cones in R^3 that share the ray (1, 1, 0) while neither holds a
# generator of the other.
CONES3_DOCUMENT = """
system wave3 { vars t, x, y; unknowns u; eq: D[t,t](u) - D[x,x](u) - D[y,y](u) = 0; }
cone plane { generators (1, 0, 0), (0, 1, 0); kind closed; }
cone roof { generators (1, 1, 1), (1, 1, -1); kind closed; }
"""
DOCUMENTS = {"micro.pde": MICROLOCAL_DOCUMENT, "shapes.pde": SHAPES_DOCUMENT,
             "cones3.pde": CONES3_DOCUMENT}

# name: (argv after the document, sha256 of the report on stdout[, document
# name, micro.pde if absent]).  lame is the degenerate Lame operator
# lambda = -2 mu, mu = 1; euler reaches the saturation test and then the
# grid verdict at every base point but 0, and cr the saturation certificate.
# The disc keeps only the candidate base points within radius 3; the cones
# cover some of the wave's characteristic covectors and miss (5, -5).
# classify-tricomi-bench is the benchmark's Tricomi job: 400 base points with
# 45 distinct y, the one coordinate the symbol reads.
MICROLOCAL = {
    "classify-tricomi": (
        ["classify", "--system", "tricomi", "--grid", "40", "--seed", "7"],
        "0a54e50b6b7e760d4d705519731661f0052cfea81ce16874473a984016a9ca97"),
    "classify-tricomi-direction": (
        ["classify", "--system", "tricomi", "--grid", "40", "--direction", "0,1", "--seed", "7"],
        "b77a9b1fb6fd0112b522ca0b2d333fafd4e2035a5e5cab47b376888d91a7c17c"),
    "classify-cr": (
        ["classify", "--system", "cr", "--grid", "3"],
        "18fb8e232431e479ebccc99abab624221d1efc40db119d7bbded9ddb27fec3c8"),
    "classify-euler": (
        ["classify", "--system", "euler", "--grid", "6", "--seed", "3"],
        "3cf5050e176f9e76bc9833a22980b15cfa84da8c70c39cc509f66de16f926417"),
    "classify-lame": (
        ["classify", "--system", "lame", "--grid", "2"],
        "8489fc448547fb8e106b117373157275e58629d31433e969cff4703d3f9b8bd1"),
    "elliptic-heat": (
        ["classify", "--system", "heat", "--mode", "elliptic"],
        "65c983881801279186e8f45517dfa53501742234de7038809d9dbc81aaf8d9d8"),
    "elliptic-killing": (
        ["classify", "--system", "killing", "--mode", "elliptic"],
        "cc8fdebeb8d4e0a625b15e50d1d484252dbc6dc12a1b19148d60fa5f219dc055"),
    "elliptic-tricomi": (
        ["classify", "--system", "tricomi", "--mode", "elliptic"],
        "e753a6140969bd58a6873d29d72ae93c0217af92f1377bb55b143c8a5a083e17"),
    "elliptic-lame-degenerate": (
        ["classify", "--system", "lame", "--mode", "elliptic"],
        "29392433df3b0b4032271c4bfe68e60745ec4f712d7d7b26cbd6917e975a7d4d"),
    "elliptic-cr": (
        ["classify", "--system", "cr", "--mode", "elliptic"],
        "cca125e586e7b98aa86624e87bf67e876868f79419b96001aa3bf30ae90530a5"),
    "hyperbolic-wave": (
        ["classify", "--system", "wave", "--mode", "hyperbolic", "--direction", "1,0"],
        "9d95c2d774100c105b9d0f8bdf732b97c4326212c0c93342285dca081871adeb"),
    "kunneth-wave-4": (
        ["kunneth", "--system", "wave", "--copies", "4"],
        "3852029fb8d667d2621bb41493093a3602eec3a410901deae302dda64783a8dc"),
    "kunneth-dx-laplace": (
        ["kunneth", "--system", "dx", "--other", "laplace"],
        "0e37550016374f48d647ee020bd100e8db4e198432527ecd0b8a4d57229021fb"),
    "restrict-tricomi": (
        ["restrict", "--system", "tricomi", "--subspace", "1,0"],
        "90591bb2ef922e051f1cf77a5a6d4b82a112bbd82b474234e9d47b3a1ac14e11"),
    "classify-tricomi-region": (
        ["classify", "--system", "tricomi", "--region", "disc", "--grid", "5", "--seed", "7"],
        "8b3e71d9b7a427d8ad6786b86e7cb192a448fcc24f3ad94b76a3e15009218e44", "shapes.pde"),
    "classify-wave-cones": (
        ["classify", "--system", "wave", "--cones", "forward,backward", "--grid", "3",
         "--seed", "8"],
        "68fddb8e18c5fdadaece7cddee8ceacdf7d0f812a4fea1349e141f5c4999f521", "shapes.pde"),
    "classify-wave3-cones": (
        ["classify", "--system", "wave3", "--cones", "plane,roof", "--grid", "2"],
        "e9eb06339e7e7c47f748a633e7b76235075859dbb3da14cbaa15b1fe18caa8fd", "cones3.pde"),
    "classify-lame-elliptic": (
        ["classify", "--system", "lame11", "--grid", "2"],
        "590a0a513a493d3d904c0fcd3867d475960249049882183a151c7ea4bcc57bef", "shapes.pde"),
    "classify-tricomi-bench": (
        ["classify", "--system", "tricomi", "--grid", "400", "--direction", "0,1",
         "--seed", "535932"],
        "c85b750a3ab188c2d094978f77a6ad96832f76636a8554de936764654d49571b"),
    "classify-wave-cones-400": (
        ["classify", "--system", "wave", "--cones", "forward,backward", "--grid", "400"],
        "cef2ff851696e1d00a65685bad6d0ed3394756b03ab819ec101976a6753b3d31", "shapes.pde"),
}


@pytest.mark.parametrize("name", sorted(MICROLOCAL))
def test_microlocal_report_is_byte_identical(name, capsys, tmp_path, monkeypatch):
    # a relative file name keeps the report's "arguments" independent of tmp_path
    (command, *options), expected, *document = MICROLOCAL[name]
    document = document[0] if document else "micro.pde"
    (tmp_path / document).write_text(DOCUMENTS[document], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main([command, document, *options]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == expected


# -- DSL printing ---------------------------------------------------------------------

REGIONS = """
region consts { vars x, y; 1 > 0; -2 < 0; 3/2 + x >= 0; 7 - 1/4*y <= 0; }
region powers { vars x, y; x^2 + y^3 - 1 <= 0; -x^2*y > 0; 2*x^3*y^2 - 5 > 0; }
region negatives { vars x, y, z; -1*y >= 0; -x - 2*y - 1/3*z < 0; x - x + 1 > 0; -z^2 - 1 < 0; }
"""
DSL_PRINTED = "cbf81f7eb655ce459fd78bb782461c7253525873f1d62fc4f5e46ea65b50c547"


def test_printed_dsl_is_byte_identical():
    printed = "".join(print_document(parse_pde_dsl(text)) for text in [*corpus(), REGIONS])
    assert hashlib.sha256(printed.encode("utf-8")).hexdigest() == DSL_PRINTED


# -- jet reports ----------------------------------------------------------------------

JET_DOCUMENT = """
system laplace { vars x, y; unknowns u; eq: D[x,x](u) + D[y,y](u) = 0; }
system tricomi { vars x, y; unknowns u; eq: y*D[x,x](u) + D[y,y](u) = 0; }
system cr { vars x, y; unknowns u; eq: 1/2*D[x](u) + 1/2*i*D[y](u) = 0; }
system shifted { vars x, y; unknowns u; point 1, -2; eq: x^2*D[x,x](u) + D[y,y](u) + 3*u = 0; }
system twou { vars x, y; unknowns u, v; eq: D[x](u) - D[y](v) = 0; eq: D[y](u) + D[x](v) = 0; }
system ord3 { vars x, y; unknowns u; eq: D[x,x,x](u) + u = 0; }
system grad { vars x, y; unknowns u; eq: D[x](u) = 0; eq: D[y](u) = 0; }
system frobenius { vars x, y; unknowns u; eq: D[x](u) - y*u = 0; eq: D[y](u) - x*u = 0; }
system uxx { vars x; unknowns u; eq: D[x,x](u) = 0; }
system airy { vars x; unknowns u, v; eq: D[x](u) - v = 0; eq: D[x](v) - x*u = 0; }
system cubes { vars x, y; unknowns u; eq: D[x,x,x](u) = 0; eq: D[y,y,y](u) = 0; }
system killing {
  vars x, y, z; unknowns u, v, w;
  eq: D[x](u) = 0; eq: D[y](v) = 0; eq: D[z](w) = 0;
  eq: D[y](u) + D[x](v) = 0; eq: D[z](u) + D[x](w) = 0; eq: D[z](v) + D[y](w) = 0;
}
"""
JET_SYSTEMS = ("laplace", "tricomi", "cr", "shifted", "twou", "ord3", "grad", "frobenius",
               "uxx", "airy", "cubes", "killing")
FINITE_SYSTEMS = ("grad", "frobenius", "uxx", "airy", "cubes", "killing")

# name: (options, systems, sha256 of the reports on stdout of the command on
# each system in turn); the name is the command, with a suffix for a variant.
JET = {
    "symbol": (["--order", "3"], JET_SYSTEMS,
        "c862ba50829bb4c5583c1d2c22d5faaf4583b70a359f43aebdc5cd76136aa15d"),
    "symbol-default": ([], JET_SYSTEMS,
        "8da29eedf8d601072d4fc34c80402cc7e5bb4c115ee16815b9bdc3c322bc5864"),
    "prolong": (["--count", "2"], JET_SYSTEMS,
        "236382769b99df9b393ab4782c38f6c767917b83fd43434569472e7c06c2b454"),
    "spencer": ([], JET_SYSTEMS,
        "9b637e10d4a745ac25b486671ae3964142157e90c4f2730aeb81c991c0af5674"),
    "involutivity": (["--bound", "2"], JET_SYSTEMS,
        "6701b7009eae24727bdb99808c0853ab6523a583b96799d4528b90255069d446"),
    "poincare": (["--order", "6"], JET_SYSTEMS,
        "3230c5f74e6e0667595746752092c5b5045b6afc78abefec162893119133010a"),
    "finite-type": ([], JET_SYSTEMS,
        "329c07cc9ef135af563e828a383521397b1201a275fc47723dcdb7452d486bcf"),
    "finite-type-connection": (["--connection"], FINITE_SYSTEMS,
        "6af3f3be1bc9a030b0d4093ba6985140e3f0b483b3c54a1c6fa9e056c59344bd"),
}


def _jet_digest(name, capsys):
    command = name.removesuffix("-default").removesuffix("-connection")
    options, systems, _ = JET[name]
    h = hashlib.sha256()
    for system in systems:
        assert main([command, "jet.pde", "--system", system, *options]) == 0
        h.update(capsys.readouterr().out.encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(JET))
def test_jet_report_is_byte_identical(name, capsys, tmp_path, monkeypatch):
    (tmp_path / "jet.pde").write_text(JET_DOCUMENT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert _jet_digest(name, capsys) == JET[name][2]


# Cartan's test certifies cubes at order 5 (k = 3) and killing at order 2 (k = 1),
# so none of these is found; kept apart from JET so that its digests do not move.
JET_NOT_FOUND = ((("cubes", "0"), ("killing", "0"), ("cubes", "1")),
                 "6410c07fbd3debed52994f59f372804f98c2677b8ce85474e91487313ebcd890")


def test_not_found_involutivity_reports_are_byte_identical(capsys, tmp_path, monkeypatch):
    (tmp_path / "jet.pde").write_text(JET_DOCUMENT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    cases, expected = JET_NOT_FOUND
    h = hashlib.sha256()
    for system, bound in cases:
        assert main(["involutivity", "jet.pde", "--system", system, "--bound", bound]) == 0
        out = capsys.readouterr().out
        assert '"found":false' in out
        h.update(out.encode("utf-8"))
    assert h.hexdigest() == expected


# -- input hash -------------------------------------------------------------------------


def test_input_hash_is_hashlib_sha256_of_the_golden_inputs():
    """input_hash reads CPython's _sha256 where it exists; its digest of every
    golden input, alone and chunked, is hashlib's sha256 of the chunks each
    followed by a NUL byte."""
    texts = [JET_DOCUMENT, MICROLOCAL_DOCUMENT, REGIONS, *corpus()]
    for text in texts:
        assert input_hash(text) == hashlib.sha256(text.encode("utf-8") + b"\x00").hexdigest()
    chunked = b"".join(t.encode("utf-8") + b"\x00" for t in texts)
    assert input_hash(*texts) == hashlib.sha256(chunked).hexdigest()
    assert input_hash(*(t.encode("utf-8") for t in texts)) == hashlib.sha256(chunked).hexdigest()
