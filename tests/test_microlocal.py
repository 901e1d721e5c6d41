from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spencerlab.errors import PreconditionError
from spencerlab.linalg import ExactMatrix
from spencerlab.microlocal import (
    CovectorSample,
    ConeSpec,
    Region,
    _direction_polynomial,
    _int_vector,
    _poly_trim,
    _real_rooted,
    characteristic_ideal,
    classify_mixed,
    cones_intersect_trivially,
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
    dx_system,
    external_product,
    gradient_system,
    heat_system,
    laplace_system,
    make_system,
    tricomi_system,
    wave_system,
)


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
    assert cv.conic


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
    for builder in (laplace_system, wave_system, heat_system, tricomi_system):
        assert characteristic_ideal(builder()).conic


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
    """A frozen symbol as the (xi exponents, re, im) terms the library works on."""
    return [(m, c.real, c.imag) for m, c in frozen.terms.items()]


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
    """Sylvester's criterion by the determinant of every leading minor."""
    return all(ExactMatrix([row[:k] for row in gram[:k]]).det() > 0
               for k in range(1, len(gram) + 1))


@settings(max_examples=150, deadline=None)
@given(quadratic_form_st())
def test_is_elliptic_definiteness_matches_exact_gram(gram):
    """The integer Sylvester test against ExactMatrix determinants."""
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
    grid = []
    for x in xs[:10]:
        for y in ys:
            for xi in xis[:8]:
                grid.append(CovectorSample((x, y), xi))
    return grid


def test_tricomi_classification_splits_at_fold():
    sys = tricomi_system()
    grid = _tricomi_grid()
    report = classify_mixed(sys, Region.everywhere(), grid, directions=[(0, 1)])
    for lab, sample in zip(report.labels, grid):
        y = sample.x[1]
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
    report = classify_mixed(laplace_system(), Region.everywhere(), grid)
    assert set(report.strata) == {"elliptic"}


def test_wave_characteristic_covectors_in_cones():
    grid = [
        CovectorSample((0, 0), (1, 1)),
        CovectorSample((0, 0), (1, -1)),
        CovectorSample((0, 0), (-1, 1)),
        CovectorSample((0, 0), (-1, -1)),
        CovectorSample((0, 0), (1, 0)),
    ]
    lam = ConeSpec([(1, 1), (1, -1)], "closed")
    lam_p = ConeSpec([(-1, 1), (-1, -1)], "closed")
    report = classify_mixed(
        wave_system(), Region.everywhere(), grid, directions=[(1, 0)], cones=(lam, lam_p)
    )
    char_labels = [l for l in report.labels if l["label"] == "characteristic"]
    assert len(char_labels) == 4
    assert report.cone_check["union_covers_characteristics"]
    assert report.cone_check["trivial_intersection"]
    assert report.labels[4]["label"] == "hyperbolic"


def test_label_scale_invariance():
    sys = tricomi_system()
    a = CovectorSample((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(1)))
    b = CovectorSample((Fraction(0), Fraction(-1)), (Fraction(3), Fraction(3)))
    report = classify_mixed(sys, Region.everywhere(), [a, b], directions=[(0, 1)])
    assert report.labels[0]["label"] == report.labels[1]["label"]


def test_region_precondition():
    region = Region([(MultiPoly.variable(("x", "y"), "y"), "gt")])
    bad = CovectorSample((0, -1), (1, 0))
    with pytest.raises(PreconditionError):
        classify_mixed(tricomi_system(), region, [bad])


# -- cones -------------------------------------------------------------------------------


def test_cone_membership():
    cone = ConeSpec([(1, 1), (1, -1)], "closed")
    assert cone.contains((1, 0))
    assert cone.contains((2, 1))
    assert not cone.contains((-1, 0))
    assert cone.contains((0, 0))


def test_open_cone_validation():
    with pytest.raises(PreconditionError):
        ConeSpec([(1, 0), (-1, 0)], "open-convex")


def test_cone_trivial_intersection():
    lam = ConeSpec([(1, 1), (1, -1)], "closed")
    lam_p = ConeSpec([(-1, 1), (-1, -1)], "closed")
    assert cones_intersect_trivially(lam, lam_p)
    assert not cones_intersect_trivially(lam, lam)


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


@settings(max_examples=10, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_elliptic_restriction_noncharacteristic(a, b):
    if a == 0 and b == 0:
        return
    _, ok, _ = noncharacteristic_restrict(laplace_system(), [(a, b)])
    assert ok


# -- products / factorization ----------------------------------------------------------------


def test_external_product_dx_dx():
    cv, ok = external_product_char(dx_system(1), dx_system(1))
    assert ok
    assert cv.dimension == 2  # zero section of T*R^2


def test_external_product_laplace_laplace():
    cv, ok = external_product_char(laplace_system(), laplace_system())
    assert ok
    assert cv.dimension == 3 + 3


def test_external_product_dx_laplace():
    cv, ok = external_product_char(dx_system(1), laplace_system())
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
        cv, ok = external_product_char(a, b)
        assert ok
        assert cv.dimension == cva.dimension + cvb.dimension


def test_factorization_dx():
    report = factorization_check(dx_system(1), max_copies=2)
    assert report["all_passed"]


def test_factorization_laplace_and_wave():
    for sys in (laplace_system(), wave_system()):
        report = factorization_check(sys, max_copies=3)
        assert report["all_passed"], report
