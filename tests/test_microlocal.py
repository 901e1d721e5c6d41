import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spencerlab.dsl import parse_pde_dsl
from spencerlab.errors import PreconditionError
from spencerlab.linalg import ExactMatrix
from spencerlab.microlocal import (
    GRID_BUDGET,
    ConeSpec,
    Region,
    _direction_polynomial,
    _int_vector,
    _poly_trim,
    _real_rooted,
    axis_covectors,
    characteristic_ideal,
    classify_mixed,
    cone_intersection,
    default_grid,
    external_product_char,
    factorization_check,
    is_elliptic,
    is_hyperbolic,
    noncharacteristic_restrict,
    sturm_distinct_real_roots,
)
from spencerlab.poly import MultiPoly
from spencerlab.scalars import QQi
from spencerlab.systems import (
    cauchy_riemann_system,
    external_product,
    laplace_system,
    make_system,
    tricomi_system,
)

from named_systems import dx_system, gradient_system, heat_system, wave_system


# -- characteristic ideals -------------------------------------------------------


def test_char_ideal_dx_on_line():
    cv = characteristic_ideal(dx_system(1))
    assert len(cv.ideal.generators) == 1
    assert cv.ideal.generators[0] == MultiPoly.variable(cv.ambient, "xi_x")
    assert cv.dimension == 1  # the zero section over the line


def test_char_ideal_laplace():
    cv = characteristic_ideal(laplace_system())
    xi1 = MultiPoly.variable(cv.ambient, "xi_x")
    xi2 = MultiPoly.variable(cv.ambient, "xi_y")
    assert cv.ideal.generators == [xi1 * xi1 + xi2 * xi2]
    assert cv.dimension == 3


def test_char_ideal_wave():
    cv = characteristic_ideal(wave_system())
    tau = MultiPoly.variable(cv.ambient, "xi_t")
    xi = MultiPoly.variable(cv.ambient, "xi_x")
    assert cv.ideal.generators == [tau * tau - xi * xi]


def test_char_ideal_gradient_zero_section():
    cv = characteristic_ideal(gradient_system())
    assert cv.dimension == 2  # x free, xi = 0
    assert len(cv.ideal.generators) == 2


def test_char_ideal_dimension_of_wave_powers():
    # each copy adds a 3-dimensional factor; the 7th power has 28 variables
    dims = [characteristic_ideal(external_product(*[wave_system()] * s)).dimension
            for s in range(1, 8)]
    assert dims == [3 * s for s in range(1, 8)]


def test_conicity_all_systems():
    # characteristic_ideal raises unless every generator is xi-homogeneous
    for builder in (laplace_system, wave_system, heat_system, tricomi_system):
        sys_ = builder()
        cv = characteristic_ideal(sys_)
        xi = list(range(sys_.n, 2 * sys_.n))
        assert all(g.is_homogeneous_in(xi) for g in cv.ideal.generators)


# -- Sturm machinery ---------------------------------------------------------------


def all_roots_real(coeffs, strict=False):
    """Real-rootedness: strict demands simple roots; weak allows multiplicity."""
    return _real_rooted(_poly_trim(_int_vector(coeffs)), strict)


def test_sturm_counts():
    # (t-1)(t+2) = t^2 + t - 2
    assert sturm_distinct_real_roots([Fraction(-2), Fraction(1), Fraction(1)]) == 2
    # t^2 + 1
    assert sturm_distinct_real_roots([Fraction(1), Fraction(0), Fraction(1)]) == 0
    # t^2
    assert sturm_distinct_real_roots([Fraction(0), Fraction(0), Fraction(1)]) == 1


def test_real_rootedness_weak_vs_strict():
    double_root = [Fraction(0), Fraction(0), Fraction(1)]  # t^2
    assert all_roots_real(double_root, strict=False)
    assert not all_roots_real(double_root, strict=True)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_products_of_linear_factors_are_real_rooted(roots):
    poly = [Fraction(1)]
    for r in roots:
        # multiply by (t - r)
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1]
    assert all_roots_real(poly, strict=False)
    distinct = len(set(roots))
    assert sturm_distinct_real_roots(poly) == distinct


# Fraction oracles: the rational Sturm chain that the integer pseudo-remainder
# sequences replaced, kept to cross-check them.


def _oracle_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _oracle_deriv(c):
    return _oracle_trim([c[i] * i for i in range(1, len(c))])


def _oracle_divmod(a, b):
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * (len(a) - db)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        f = a[-1] / lb
        q[shift] = f
        for i in range(len(b)):
            a[shift + i] -= f * b[i]
        _oracle_trim(a)
    return _oracle_trim(q), a


def _oracle_gcd(a, b):
    a, b = a[:], b[:]
    while b:
        a, b = b, _oracle_divmod(a, b)[1]
    return a


def _oracle_distinct_real_roots(coeffs):
    p = _oracle_trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        return 0
    chain = [p, _oracle_deriv(p)]
    while chain[-1]:
        r = _oracle_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])

    def variations(at_plus):
        signs = []
        for q in chain:
            if not q:
                continue
            lc = q[-1]
            deg = len(q) - 1
            s = lc if at_plus else lc * (-1) ** deg
            if s:
                signs.append(1 if s > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(False) - variations(True)


def _oracle_all_roots_real(coeffs, strict=False):
    p = _oracle_trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        return bool(p)
    if strict:
        return _oracle_distinct_real_roots(p) == len(p) - 1
    g = _oracle_gcd(p, _oracle_deriv(p))
    q = _oracle_divmod(p, g)[0] if len(g) > 1 else p
    return _oracle_distinct_real_roots(q) == len(q) - 1


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def root_structured_poly_st(draw):
    """(integer polynomial, its distinct real roots): an integer content times
    powers of (q*t - p) with repeated rational roots and powers of
    irreducible quadratics a*t^2 + b*t + c (b^2 < 4ac)."""
    poly = [draw(st.integers(1, 12)) * draw(st.sampled_from((1, -1)))]
    roots = set()
    for _ in range(draw(st.integers(0, 4))):
        p, q = draw(st.integers(-6, 6)), draw(st.integers(1, 4))
        roots.add(Fraction(p, q))
        for _ in range(draw(st.integers(1, 3))):
            poly = _int_mul(poly, [-p, q])
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(1, 5)), draw(st.integers(-6, 6))
        c = draw(st.integers(b * b // (4 * a) + 1, b * b // (4 * a) + 6))
        sign = draw(st.sampled_from((1, -1)))
        for _ in range(draw(st.integers(1, 2))):
            poly = _int_mul(poly, [sign * c, sign * b, sign * a])
    return poly, len(roots)


@settings(max_examples=300, deadline=None)
@given(root_structured_poly_st(), st.integers(1, 7))
def test_integer_sturm_matches_fraction_oracle(case, denominator):
    poly, real_roots = case
    assert sturm_distinct_real_roots(poly) == real_roots
    assert sturm_distinct_real_roots(poly) == _oracle_distinct_real_roots(poly)
    for strict in (False, True):
        assert all_roots_real(poly, strict) == _oracle_all_roots_real(poly, strict)
    # rational input is scaled to integers first
    scaled = [Fraction(c, denominator) for c in poly]
    assert sturm_distinct_real_roots(scaled) == real_roots
    assert all_roots_real(scaled, True) == _oracle_all_roots_real(scaled, True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), max_size=7))
def test_integer_sturm_matches_oracle_on_arbitrary_polynomials(poly):
    assert sturm_distinct_real_roots(poly) == _oracle_distinct_real_roots(poly)
    for strict in (False, True):
        assert all_roots_real(poly, strict) == _oracle_all_roots_real(poly, strict)


def _terms(frozen):
    """A frozen symbol as the (xi exponents, c) terms the library works on."""
    return list(frozen.terms.items())


def _direction_polynomial_by_substitution(frozen, theta, eta):
    """Oracle: substitute xi = t*theta + eta and read off the t-coefficients."""
    t = MultiPoly.variable(("t",), "t")
    image = frozen.substitute({
        v: t * Fraction(th) + MultiPoly.constant(("t",), e)
        for v, th, e in zip(frozen.vars, theta, eta)
    })
    coeffs = [Fraction(0)] * (max((sum(m) for m in image.terms), default=-1) + 1)
    for (k,), c in image.terms.items():
        if c.imag:
            raise PreconditionError("real coefficients required for root counting")
        coeffs[k] += c.real
    return coeffs


@st.composite
def frozen_direction_st(draw):
    n = draw(st.integers(1, 3))
    xi_vars = tuple(f"xi_{i}" for i in range(n))
    rational = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        terms[tuple(draw(st.integers(0, 3)) for _ in range(n))] = draw(rational)
    theta = tuple(draw(rational) for _ in range(n))
    eta = draw(st.one_of(st.just((Fraction(0),) * n),
                         st.tuples(*[rational] * n)))
    return MultiPoly(xi_vars, terms), theta, eta


@settings(max_examples=150, deadline=None)
@given(frozen_direction_st())
def test_direction_polynomial_matches_substitution(case):
    frozen, theta, eta = case
    assert _direction_polynomial(_terms(frozen), theta, eta) == (
        _direction_polynomial_by_substitution(frozen, theta, eta))


def test_direction_polynomial_non_real_coefficients():
    xi = ("xi_x", "xi_y")
    zero = (Fraction(0), Fraction(0))
    i_xx = MultiPoly.monomial(xi, (2, 0), QQi(0, 1))
    with pytest.raises(PreconditionError, match="real coefficients"):
        _direction_polynomial(_terms(i_xx), (1, 0), zero)
    # imaginary parts that cancel along the line leave a real polynomial
    cancelling = i_xx - MultiPoly.monomial(xi, (0, 2), QQi(0, 1))
    assert _direction_polynomial(_terms(cancelling), (1, 1), zero) == []
    assert _direction_polynomial_by_substitution(cancelling, (1, 1), zero) == []


# -- ellipticity ---------------------------------------------------------------------


def test_laplace_elliptic_definite():
    ok, cert = is_elliptic(laplace_system())
    assert ok and cert["kind"] == "definite"


def test_heat_not_elliptic_counterexample():
    ok, cert = is_elliptic(heat_system())
    assert not ok
    assert cert["kind"] == "counterexample"
    assert cert["xi"] == ["1", "0"]


def test_cauchy_riemann_elliptic():
    ok, cert = is_elliptic(cauchy_riemann_system())
    assert ok and cert["kind"] == "saturation"


@st.composite
def quadratic_form_st(draw):
    n = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(entry)
    return gram


def _leading_minors_positive(gram):
    """Sylvester's criterion by sympy's exact determinant of every leading
    minor."""
    sympy = pytest.importorskip("sympy")
    return all(sympy.Matrix([row[:k] for row in gram[:k]]).det() > 0
               for k in range(1, len(gram) + 1))


@settings(max_examples=150, deadline=None)
@given(quadratic_form_st())
def test_is_elliptic_definiteness_matches_exact_gram(gram):
    """The integer Sylvester test against sympy's exact determinants."""
    n = len(gram)
    spec = []
    for i in range(n):
        for j in range(i, n):
            alpha = tuple((k == i) + (k == j) for k in range(n))
            spec.append((gram[i][j] * (1 if i == j else 2), 0, alpha))
    assume(any(c for c, _, _ in spec))
    sys = make_system(tuple(f"x{i + 1}" for i in range(n)), ("u",), [spec])
    ok, cert = is_elliptic(sys)
    tags = [tag for sign, tag in ((1, "positive"), (-1, "negative"))
            if _leading_minors_positive([[sign * v for v in row] for row in gram])]
    if tags:
        assert ok and cert == {"kind": "definite", "sign": tags[0]}
    else:
        assert not ok and cert["kind"] in ("counterexample", "indefinite")


def test_wave_not_elliptic():
    ok, cert = is_elliptic(wave_system())
    assert not ok


# determinant -xi_x^2 + 2 xi_y^2: its real zeros have the irrational slope
# xi_y / xi_x = 1/sqrt(2), which no rational covector hits
INDEFINITE_2M = ("system ind2 { vars x, y; unknowns u, v; "
                 "eq: D[x](u) - 2*D[y](v) = 0; eq: D[y](u) - D[x](v) = 0; }")
# determinant xi_x^2 + xi_x xi_y + xi_y^2, with Fraction coefficients from poly_det
CROSS_2M = ("system cross { vars x, y; unknowns u, v; "
            "eq: D[x](u) + D[y](u) - D[y](v) = 0; eq: D[y](u) + D[x](v) = 0; }")


@pytest.mark.parametrize("text, verdict, cert, label", [
    (INDEFINITE_2M, False, {"kind": "indefinite"}, "degenerate"),
    (CROSS_2M, True, {"kind": "definite", "sign": "positive"}, "elliptic"),
], ids=["indefinite", "cross-term"])
def test_one_quadratic_determinant_is_decided_by_definiteness(text, verdict, cert, label):
    """A square first-order system in two unknowns has one frozen generator,
    its determinant; when that is a real quadratic form, Sylvester's test
    decides is_elliptic and every classify label both ways."""
    sys = _dsl_system(text)
    grid = default_grid(sys, base_count=8)
    assert is_elliptic(sys, grid) == (verdict, cert)
    report = classify_mixed(sys, grid)
    assert report.strata == {label: len(report.labels)}
    if verdict:
        assert all(lab["certificate"] == cert for lab in report.labels)


def test_elliptic_freezes_at_every_base():
    """t3 reads y, so no one frozen form decides it: at each base its
    determinant is -xi_x^2 + (y + 3) xi_y^2, indefinite for y > -3 with
    real zeros at irrational slopes only, and Sylvester's test refutes at
    the first base of the default grid, the origin."""
    sys = _dsl_system("system t3 { vars x, y; unknowns u, v; "
                      "eq: D[x](u) - y*D[y](v) - 3*D[y](v) = 0; eq: D[y](u) - D[x](v) = 0; }")
    assert is_elliptic(sys) == (False, {"kind": "indefinite", "x": ["0", "0"]})
    # one base where the form is definite (y < -3) leaves the verdict to the tail
    assert is_elliptic(sys, ([(0, -4)], axis_covectors(2))) == (
        True, {"kind": "grid", "samples": 4})


def test_hyperbolic_freezes_at_every_base():
    """Tricomi along (0, 1) is hyperbolic only where y <= 0; the seed-0 grid
    holds the base (2, 4/3), whose transverse covector (1, 0) refutes."""
    bases, _ = default_grid(tricomi_system())
    assert (2, Fraction(4, 3)) in bases
    rep = is_hyperbolic(tricomi_system(), (0, 1))
    assert (rep.value, rep.status) == (False, "not_hyperbolic")
    assert rep.certificate == {"kind": "sturm_counterexample", "x": ["2", "4/3"],
                               "eta": ["1", "0"], "distinct_real_roots": 0, "degree": 2}


def test_drop2m_elliptic_labels_match_the_closed_form():
    """drop2m freezes at x != 0 to the determinant x (y xi_x^2 + xi_y^2),
    definite exactly where y > 0; on x = 0 the first equation drops to order
    0 and leaves the determinant -xi_y, which the axis covector (1, 0)
    refutes.  So a label that is not characteristic is elliptic iff x != 0
    and y > 0, whatever its covector."""
    sys = _dsl_system("system drop2m { vars x, y; unknowns u, v; "
                      "eq: x*D[x](u) - x*D[y](v) + v = 0; eq: D[y](u) + y*D[x](v) = 0; }")
    bases, covectors = grid = default_grid(sys, base_count=64, seed=2)
    report = classify_mixed(sys, grid)
    checked = 0
    for lab, (x, _) in zip(report.labels, product(bases, covectors)):
        if lab["label"] != "characteristic":
            assert (lab["label"] == "elliptic") == (x[0] != 0 and x[1] > 0)
            checked += 1
    assert report.strata["elliptic"] > 0 and report.strata["degenerate"] > 0
    assert checked > len(report.labels) // 2


# -- hyperbolicity --------------------------------------------------------------------


def test_wave_hyperbolic_in_time():
    rep = is_hyperbolic(wave_system(), (1, 0))
    assert rep.value is True
    assert rep.certificate["kind"] == "sturm"


def test_laplace_not_hyperbolic():
    rep = is_hyperbolic(laplace_system(), (1, 0))
    assert rep.value is False
    assert rep.certificate["kind"] == "sturm_counterexample"


def test_heat_degenerate():
    rep = is_hyperbolic(heat_system(), (1, 0))
    assert rep.value is None
    assert rep.status == "degenerate"


def test_zero_direction_rejected():
    with pytest.raises(PreconditionError):
        is_hyperbolic(wave_system(), (0, 0))


def test_hyperbolicity_scale_invariant():
    r1 = is_hyperbolic(wave_system(), (1, 0))
    r2 = is_hyperbolic(wave_system(), (3, 0))
    assert r1.value == r2.value is True


def test_elliptic_excludes_hyperbolic():
    grid = default_grid(laplace_system(), seed=3)
    ok, _ = is_elliptic(laplace_system(), grid)
    assert ok
    for theta in ((1, 0), (0, 1), (1, 1)):
        assert is_hyperbolic(laplace_system(), theta, grid).value is not True


def test_hyperbolic_samples_count_each_tested_covector_once_per_base():
    # (1, 0) is parallel to the direction, so it has no transverse part and is
    # not tested; the repeated (0, 1) is tested twice
    grid = ([(0, 0), (1, 2), (0, 0)], [(1, 0), (0, 1), (1, 1), (0, 1)])
    rep = is_hyperbolic(wave_system(), (1, 0), grid)
    assert rep.value is True
    assert rep.certificate == {"kind": "sturm", "samples": 3 * 3}


def test_grid_with_no_base_point_has_no_transverse_covector():
    rep = is_hyperbolic(wave_system(), (1, 0), ([], [(0, 1)]))
    assert rep.status == "degenerate"
    assert rep.certificate == {"reason": "no transverse covectors in grid"}


def test_elliptic_grid_certificate_counts_every_sample():
    # (y - 3)|xi|^2 has no definite frozen form to test and does not
    # saturate to the unit ideal, so off y = 3 the verdict is the grid's:
    # 2 bases times 3 covectors, the repeats included
    sys = parse_pde_dsl("system g { vars x, y; unknowns u; eq: y*D[x,x](u) - 3*D[x,x](u)"
                        " + y*D[y,y](u) - 3*D[y,y](u) = 0; }").systems["g"]
    ok, cert = is_elliptic(sys, ([(1, 2), (1, 2)], [(1, 0), (0, 1), (1, 0)]))
    assert (ok, cert) == (True, {"kind": "grid", "samples": 6})


@pytest.mark.parametrize("decide", [
    lambda grid: classify_mixed(wave_system(), grid),
    lambda grid: is_elliptic(wave_system(), grid),
    lambda grid: is_hyperbolic(wave_system(), (1, 0), grid),
], ids=["classify_mixed", "is_elliptic", "is_hyperbolic"])
def test_zero_covector_rejected(decide):
    with pytest.raises(PreconditionError, match="covector samples need xi != 0"):
        decide(([(0, 0)], [(1, 0), (0, 0)]))


def test_default_grid_budget():
    # 2 variables: 2n + 4 = 8 covectors per base point
    bases, covectors = default_grid(laplace_system(), base_count=GRID_BUDGET // 8)
    assert len(bases) * len(covectors) == GRID_BUDGET
    with pytest.raises(PreconditionError, match="work budget"):
        default_grid(laplace_system(), base_count=GRID_BUDGET // 8 + 1)


def test_default_grid_region_draw_is_bounded(monkeypatch):
    """An empty region costs at most GRID_BUDGET candidate tests, plus the
    one test of the origin, however many base points are asked for."""
    region = parse_pde_dsl("region never { vars t, x; t^2 + x^2 + 1 < 0; }").regions["never"]
    calls = [0]
    contains = Region.contains

    def counted(self, x):
        calls[0] += 1
        if calls[0] > GRID_BUDGET + 1:
            raise AssertionError("region draw past the work budget")
        return contains(self, x)

    monkeypatch.setattr(Region, "contains", counted)
    with pytest.raises(PreconditionError, match="no grid base points inside the region"):
        default_grid(wave_system(), base_count=GRID_BUDGET // 8, region=region)
    assert calls[0] == GRID_BUDGET + 1


# -- classification -----------------------------------------------------------------------


def _tricomi_grid():
    ys = [Fraction(v, 2) for v in (-4, -3, -2, -1, 0, 1, 2, 3, 4, 5)]
    xs = [Fraction(v) for v in range(10)]
    xis = [
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(-1)),
        (Fraction(2), Fraction(1)),
        (Fraction(1), Fraction(2)),
    ]
    return [(x, y) for x in xs for y in ys], xis


def test_tricomi_classification_splits_at_fold():
    sys = tricomi_system()
    bases, xis = _tricomi_grid()
    report = classify_mixed(sys, (bases, xis), directions=[(0, 1)])
    assert len(report.labels) == len(bases) * len(xis)
    for lab, (x, _) in zip(report.labels, product(bases, xis)):
        y = x[1]
        if y > 0:
            assert lab["label"] in ("elliptic", "characteristic")
            # on y > 0 the symbol is definite: never characteristic
            assert lab["label"] == "elliptic"
        elif y < 0:
            assert lab["label"] in ("hyperbolic", "characteristic")
        else:
            assert lab["label"] in ("degenerate", "characteristic")
    assert report.strata["elliptic"] > 0
    assert report.strata["hyperbolic"] > 0


def test_laplace_all_elliptic():
    grid = default_grid(laplace_system(), seed=1)
    report = classify_mixed(laplace_system(), grid)
    assert set(report.strata) == {"elliptic"}


def test_wave_characteristic_covectors_in_cones():
    grid = ([(0, 0)], [(1, 1), (1, -1), (-1, 1), (-1, -1), (1, 0)])
    lam = ConeSpec([(1, 1), (1, -1)], "closed")
    lam_p = ConeSpec([(-1, 1), (-1, -1)], "closed")
    report = classify_mixed(wave_system(), grid, directions=[(1, 0)], cones=(lam, lam_p))
    char_labels = [l for l in report.labels if l["label"] == "characteristic"]
    assert len(char_labels) == 4
    assert report.cone_check["union_covers_characteristics"]
    assert report.cone_check["trivial_intersection"]
    assert report.cone_check["certificate"]["kind"] == "dual_cover"
    _check_certificate(lam, lam_p, report.cone_check["trivial_intersection"],
                       report.cone_check["certificate"])
    assert report.labels[4]["label"] == "hyperbolic"


def test_label_scale_invariance():
    sys = tricomi_system()
    grid = ([(Fraction(0), Fraction(-1))], [(Fraction(1), Fraction(1)), (Fraction(3), Fraction(3))])
    report = classify_mixed(sys, grid, directions=[(0, 1)])
    assert report.labels[0]["label"] == report.labels[1]["label"]


_REGION_OPS = {"gt": lambda v: v > 0, "ge": lambda v: v >= 0,
               "lt": lambda v: v < 0, "le": lambda v: v <= 0}


def test_region_contains_matches_fraction_evaluation():
    """The compiled conditions decide each point as evaluating their
    MultiPolys over Fractions does, for every op, with a zero value at about
    one point in three."""
    rng = random.Random(535932)
    names = ("x", "y", "z")
    values = [Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3, 7)]
    zeros = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        point = tuple(rng.choice(values) for _ in range(n))
        conditions = []
        for _ in range(rng.randint(1, 3)):
            poly = MultiPoly(names[:n], {
                tuple(rng.randint(0, 3) for _ in range(n)): Fraction(rng.randint(-9, 9),
                                                                     rng.randint(1, 6))
                for _ in range(rng.randint(0, 4))})
            if rng.random() < 0.35:  # through the point
                poly = poly - MultiPoly.constant(poly.vars, poly.evaluate(dict(zip(names, point))))
            conditions.append((poly, rng.choice(sorted(_REGION_OPS))))
        expected = True
        for poly, op in conditions:
            value = poly.evaluate(dict(zip(names, point)))
            zeros += value == 0
            expected = expected and _REGION_OPS[op](value)
        for i in range(len(conditions)):  # each prefix, so every condition decides somewhere
            prefix = conditions[:i + 1]
            assert Region(names[:n], prefix).contains(point) == all(
                _REGION_OPS[op](poly.evaluate(dict(zip(names, point)))) for poly, op in prefix)
        assert Region(names[:n], conditions).contains(point) == expected
    assert zeros > 100


def test_region_contains_rejects_non_real_values():
    y = MultiPoly.variable(("x", "y"), "y")
    iy = y * MultiPoly.constant(("x", "y"), QQi(0, 1))
    region = Region(("x", "y"), [(iy, "gt")])
    assert region.contains((1, 0)) is False  # i*y is 0 there, a real value
    with pytest.raises(PreconditionError, match="region polynomials must be real"):
        region.contains((0, 1))
    xy = ("x", "y")
    assert Region(xy, [(y, "gt")]) == Region(xy, [(y, "gt")]) != Region(xy, [(y, "lt")])


# -- cones -------------------------------------------------------------------------------


def _contains_by_subsets(cone, xi):
    """The Caratheodory oracle for ConeSpec.contains: a closed cone holds xi
    when some at most n of its generators give it with coefficients >= 0;
    an open-convex cone when its independent generators give it with every
    coefficient > 0."""
    xi = [Fraction(v) for v in xi]
    gens = cone.generators
    if cone.kind == "open-convex":
        sol = ExactMatrix(gens).transpose().solve_right(xi)
        return sol is not None and all(c > 0 for c in sol)
    if not any(xi):
        return True
    for size in range(1, min(len(gens), len(xi)) + 1):
        for subset in combinations(gens, size):
            sol = ExactMatrix(list(subset)).transpose().solve_right(xi)
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


def _dot(u, v):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))


def _check_certificate(lam, lam_p, trivial, cert):
    """Verify a cone_intersection answer from its certificate with Fraction
    dot products alone: a common point p != 0 with its two coefficient
    vectors (>= 0, and > 0 on an open cone); for two closed cones, a split
    y + z of each of +e_1, -e_1, +e_2, ... with y >= 0 on lam and z >= 0 on
    lam_p, so the dual cones sum to R^n; or a covector >= 0 on lam, <= 0 on
    lam_p and strict on a generator of an open one."""
    (ga, ka), (gb, kb) = lam, lam_p
    if cert["kind"] == "common_point":
        assert not trivial and any(cert["point"])
        for gens, kind, coef in zip((ga, gb), (ka, kb), cert["coefficients"]):
            assert all(c > 0 if kind == "open-convex" else c >= 0 for c in coef)
            assert [_dot(coef, col) for col in zip(*gens)] == list(cert["point"])
    elif cert["kind"] == "dual_cover":
        n = len(ga[0])
        assert trivial and ka == kb == "closed" and len(cert["covectors"]) == 2 * n
        for j, (y, z) in enumerate(cert["covectors"]):
            axis = [(-1) ** j * (i == j // 2) for i in range(n)]
            assert [a + b for a, b in zip(y, z)] == axis
            assert all(_dot(y, g) >= 0 for g in ga) and all(_dot(z, h) >= 0 for h in gb)
    else:
        assert trivial and cert["kind"] == "separating"
        y = cert["covector"]
        assert all(_dot(y, g) >= 0 for g in ga) and all(_dot(y, h) <= 0 for h in gb)
        assert ((ka == "open-convex" and any(_dot(y, g) > 0 for g in ga))
                or (kb == "open-convex" and any(_dot(y, h) < 0 for h in gb)))


def _rays(cone, top=3):
    """The rays through the nonzero points sum(c_i g_i) of an integer cone
    with coefficients 0..top (1..top on an open cone), each as its primitive
    integer vector."""
    low = int(cone.kind == "open-convex")
    columns = [[int(v) for v in col] for col in zip(*cone.generators)]
    rays = set()
    for coef in product(range(low, top + 1), repeat=len(cone.generators)):
        p = [sum(c * v for c, v in zip(coef, col)) for col in columns]
        if any(p):
            rays.add(tuple(v // gcd(*p) for v in p))
    return rays


def _random_cone(rng, n):
    while True:
        kind = rng.choice(["closed", "open-convex"])
        count = rng.randint(1, n if kind == "open-convex" else 4)
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(count)]
        try:
            return ConeSpec(gens, kind)
        except PreconditionError:  # dependent generators of an open cone
            continue


def _planted_cone(rng, cone):
    """A cone on p + w and p - w for a random point p of the given cone, so
    that the two share the ray through p while, as a rule, neither holds a
    generator of the other."""
    low = int(cone.kind == "open-convex")
    while True:
        coef = [rng.randint(low, 2) for _ in cone.generators]
        p = [_dot(coef, col) for col in zip(*cone.generators)]
        w = [rng.randint(-2, 2) for _ in p]
        try:
            return ConeSpec([[a + b for a, b in zip(p, w)], [a - b for a, b in zip(p, w)]],
                            rng.choice(["closed", "open-convex"]))
        except PreconditionError:  # p + w and p - w dependent for an open cone
            continue


def test_cone_routine_against_brute_force():
    """Seeded random pairs in dimensions 2-4, every third one with a planted
    common ray: membership agrees with the subset walk, a common ray that
    brute force finds is never missed, and every certificate verifies."""
    rng = random.Random(20261020)
    kinds = set()
    for trial in range(330):
        n = rng.randint(2, 4)
        lam = _random_cone(rng, n)
        lam_p = _planted_cone(rng, lam) if trial % 3 == 0 else _random_cone(rng, n)
        for xi in [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)]:
            for cone in (lam, lam_p):
                assert cone.contains(xi) == _contains_by_subsets(cone, xi)
        trivial, cert = cone_intersection(lam, lam_p)
        _check_certificate(lam, lam_p, trivial, cert)
        if _rays(lam) & _rays(lam_p):
            assert not trivial
        kinds.add(cert["kind"])
    assert kinds == {"common_point", "dual_cover", "separating"}


def test_cone_membership():
    cone = ConeSpec([(1, 1), (1, -1)], "closed")
    assert cone.contains((1, 0))
    assert cone.contains((2, 1))
    assert not cone.contains((-1, 0))
    assert cone.contains((0, 0))


def test_open_cone_excludes_its_boundary_and_the_origin():
    cone = ConeSpec([(1, 0), (0, 1)], "open-convex")
    assert cone.contains((1, 1)) and cone.contains((3, 1))
    assert not cone.contains((1, 0)) and not cone.contains((0, 2))
    assert not cone.contains((0, 0))
    assert not cone.contains((-1, 1))
    # independent generators in a larger space: xi off their span is outside
    wedge = ConeSpec([(1, 0, 0), (0, 1, 0)], "open-convex")
    assert wedge.contains((1, 2, 0)) and not wedge.contains((1, 2, 1))


def test_open_cone_validation():
    with pytest.raises(PreconditionError):
        ConeSpec([(1, 0), (-1, 0)], "open-convex")


@pytest.mark.parametrize("kind", ["closed", "open-convex"])
def test_ragged_cone_is_rejected(kind):
    with pytest.raises(PreconditionError, match="all of one length"):
        ConeSpec([(1, 0), (1,)], kind)


def test_cone_trivial_intersection():
    lam = ConeSpec([(1, 1), (1, -1)], "closed")
    lam_p = ConeSpec([(-1, 1), (-1, -1)], "closed")
    assert cone_intersection(lam, lam_p)[0]
    assert not cone_intersection(lam, lam)[0]


def test_cones_sharing_a_ray_above_the_plane_meet():
    # no generator of either cone lies in the other, yet both hold (1, 1, 0)
    lam = ConeSpec([(1, 0, 0), (0, 1, 0)], "closed")
    lam_p = ConeSpec([(1, 1, 1), (1, 1, -1)], "closed")
    trivial, cert = cone_intersection(lam, lam_p)
    assert not trivial and cert["kind"] == "common_point"
    _check_certificate(lam, lam_p, trivial, cert)
    p = cert["point"]
    assert p[0] > 0 and p == [p[0], p[0], 0]


def test_non_pointed_cone_intersection():
    # the closed upper half-plane holds the line through (1, 0)
    half = ConeSpec([(1, 0), (-1, 0), (0, 1)], "closed")
    for other, meets in (([(0, -1)], False), ([(1, 0)], True)):
        trivial, cert = cone_intersection(half, ConeSpec(other, "closed"))
        assert trivial is not meets
        _check_certificate(half, ConeSpec(other, "closed"), trivial, cert)


def test_open_cones_meet_only_in_their_interiors():
    """An open cone holds none of its boundary: two open cones meet when
    their interiors do, and an open and a closed cone when the closed one
    reaches the open one's interior."""
    quadrant = ConeSpec([(1, 0), (0, 1)], "open-convex")
    cases = [(quadrant, False), (ConeSpec([(-1, 0), (0, -1)], "open-convex"), True),
             (ConeSpec([(0, 1), (-1, 0)], "open-convex"), True),
             (ConeSpec([(1, 0)], "closed"), True), (ConeSpec([(1, 1)], "closed"), False)]
    for other, disjoint in cases:
        trivial, cert = cone_intersection(quadrant, other)
        assert trivial is disjoint
        _check_certificate(quadrant, other, trivial, cert)


# -- restriction -------------------------------------------------------------------------


def test_laplace_restrict_to_axis():
    restricted, ok, cert = noncharacteristic_restrict(laplace_system(), [(1, 0)])
    assert ok
    assert restricted is not None
    cv = characteristic_ideal(restricted)
    # pullback symbol of the Laplacian to the x-axis is xi^2
    gen = cv.ideal.generators[0]
    assert max(sum(m) for m in gen.terms) == 2


def test_wave_restrict_to_initial_slice():
    restricted, ok, cert = noncharacteristic_restrict(wave_system(), [(0, 1)])
    assert ok and restricted is not None


def test_dx_restrict_to_zero_set():
    # d/dx restricted to {x = 0}: conormal dx, sigma(dx) = 1 != 0
    sys = make_system(("x", "y"), ("u",), [[(1, 0, (1, 0))]])
    restricted, ok, cert = noncharacteristic_restrict(sys, [(0, 1)])
    assert ok
    # the pullback symbol vanishes: restriction imposes no conditions on L
    assert restricted.equations == []


def test_characteristic_restriction_detected():
    # d/dy restricted to the y-axis: conormal dx, sigma(s dx) = 0 identically
    sys = make_system(("x", "y"), ("u",), [[(1, 0, (0, 1))]])
    restricted, ok, cert = noncharacteristic_restrict(sys, [(0, 1)])
    assert not ok
    assert cert["kind"] == "violating-conormal"
    assert restricted is None


def _dsl_system(text):
    return next(iter(parse_pde_dsl(text).systems.values()))


TRICOMI_XY = "system tricomi { vars x, y; unknowns u; eq: y*D[x,x](u) + D[y,y](u) = 0; }"
WAVE_TX = "system wave { vars t, x; unknowns u; eq: D[t,t](u) - D[x,x](u) = 0; }"
# symbol (y - 3) xi_x xi_y: along x = y/2 it vanishes on the conormal only
# over the base point 3/2, which no integer grid point hits
OFF_GRID = "system off { vars x, y; unknowns u; eq: -3*D[y,x](u) + y*D[x,y](u) = 0; }"
# along the z-axis the conormal symbol i*s1 - s2 is not quadratic
CR_XYZ = "system cr3 { vars x, y, z; unknowns u; eq: D[x](u) + i*D[y](u) = 0; }"
# along the z-axis the conormal symbol s1^2 - 2 s2^2 vanishes only at the
# irrational conormal (sqrt 2, 1, 0), which no integer sample hits
SADDLE_XYZ = ("system saddle { vars x, y, z; unknowns u; "
              "eq: D[x,x](u) - 2*D[y,y](u) + D[z,z](u) = 0; }")


@pytest.mark.parametrize("text, columns, seed, ok, cert, equations", [
    (TRICOMI_XY, [(1, 0), (0, 1)], 0, True, {"kind": "full-dimensional"},
     [{(0, (2, 0)): "y2", (0, (0, 2)): "1"}]),
    (TRICOMI_XY, [(1, 0)], 0, True, {"kind": "definite", "sign": "positive"}, []),
    (CR_XYZ, [(0, 0, 1)], 0, True, {"kind": "saturation"}, []),
    (SADDLE_XYZ, [(0, 0, 1)], 0, False, {"kind": "indefinite"}, None),
    (WAVE_TX, [(1, 1)], 0, False,
     {"kind": "violating-conormal", "conormal": ["-1", "1"], "base": ["0"]}, None),
    (WAVE_TX, [(1, 1)], 3, False,
     {"kind": "violating-conormal", "conormal": ["-1", "1"], "base": ["2"]}, None),
    (OFF_GRID, [(1, 2)], 0, True, {"kind": "grid", "samples": 41},
     [{(0, (2,)): "4/25*y1 - 6/25"}]),
], ids=["full-dimensional", "definite", "saturation", "indefinite", "violating-seed-0",
         "violating-seed-3", "grid"])
def test_restriction_certificates_are_pinned(text, columns, seed, ok, cert, equations):
    restricted, got_ok, got_cert = noncharacteristic_restrict(_dsl_system(text), columns,
                                                              grid_seed=seed)
    assert (got_ok, got_cert) == (ok, cert)
    if equations is None:
        assert restricted is None
    else:
        assert [{key: str(c) for key, c in eq.terms.items()}
                for eq in restricted.equations] == equations


def test_restriction_of_a_system_is_refused_before_any_work():
    # the y-axis is noncharacteristic for both equations, the x-axis for neither
    two = _dsl_system("system two { vars x, y; unknowns u, v; "
                      "eq: D[x](u) = 0; eq: D[x](v) = 0; }")
    for column in [(1, 0), (0, 1)]:
        with pytest.raises(PreconditionError, match="scalar systems"):
            noncharacteristic_restrict(two, [column])


@settings(max_examples=10, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_elliptic_restriction_noncharacteristic(a, b):
    if a == 0 and b == 0:
        return
    _, ok, _ = noncharacteristic_restrict(laplace_system(), [(a, b)])
    assert ok


# -- products / factorization ----------------------------------------------------------------


def test_external_product_dx_dx():
    cv, ok, _ = external_product_char(dx_system(1), dx_system(1))
    assert ok
    assert cv.dimension == 2  # zero section of T*R^2


def test_external_product_laplace_laplace():
    cv, ok, _ = external_product_char(laplace_system(), laplace_system())
    assert ok
    assert cv.dimension == 3 + 3


def test_external_product_dx_laplace():
    cv, ok, _ = external_product_char(dx_system(1), laplace_system())
    assert ok
    assert cv.dimension == 1 + 3


def test_kunneth_dimension_additivity():
    for a, b in [
        (dx_system(1), wave_system()),
        (wave_system(), wave_system()),
        (laplace_system(), wave_system()),
    ]:
        cva = characteristic_ideal(a)
        cvb = characteristic_ideal(b)
        cv, ok, _ = external_product_char(a, b)
        assert ok
        assert cv.dimension == cva.dimension + cvb.dimension


def test_factorization_dx():
    report = factorization_check(dx_system(1), max_copies=2)
    assert report["all_passed"]


def test_factorization_laplace_and_wave():
    for sys in (laplace_system(), wave_system()):
        report = factorization_check(sys, max_copies=3)
        assert report["all_passed"], report
