from fractions import Fraction
from math import comb

import pytest

from spencerlab.chern import (
    MODELS,
    CohomologyRingModel,
    model_tangent_todd,
    todd_class,
    twist_class,
)
from spencerlab.errors import NonIntegerIndexError, PreconditionError
from spencerlab.index import (
    atiyah_singer_index,
    boundary_index,
    de_rham_class,
    grr_index,
    spencer_euler_characteristic,
)
from spencerlab.poly import MultiPoly
from spencerlab.scalars import QQi
from spencerlab.spencer import finite_type_dimensions
from spencerlab.systems import cauchy_riemann_system, laplace_system, make_system

from named_systems import gradient_system, heat_system


def monomial_count(d, nvars):
    """Independent oracle: number of degree-<=d monomials... by enumeration."""
    from itertools import product

    return sum(
        1
        for e in product(range(d + 1), repeat=nvars)
        if sum(e) == d
    )


# -- character classes ---------------------------------------------------------


def test_chern_character_twist_on_p1():
    p1 = MODELS["P1"]
    h = p1.generator_class("h")
    for d in range(-3, 4):
        assert twist_class(p1, d) == p1.unit() + h * d


def test_chern_additivity_cancellation():
    p1 = MODELS["P1"]
    total = twist_class(p1, 1) + twist_class(p1, -1)
    assert total == p1.unit() * 2


def test_chern_tensor_multiplicativity():
    p2 = MODELS["P2"]
    a, b = twist_class(p2, 2), twist_class(p2, 3)
    assert a * b == twist_class(p2, 5)


def test_todd_p1():
    p1 = MODELS["P1"]
    assert model_tangent_todd(p1) == p1.unit() + p1.generator_class("h")


def test_todd_elliptic_curve():
    e = MODELS["elliptic_curve"]
    assert model_tangent_todd(e) == e.unit()


def test_todd_p2():
    p2 = MODELS["P2"]
    h = p2.generator_class("h")
    expected = p2.unit() + h * Fraction(3, 2) + h * h
    assert model_tangent_todd(p2) == expected


def _todd_series(h, power, degree):
    """(x / (1 - e^{-x}))^power at x = h, truncated past h^degree, as a
    coefficient list in h: the Todd class of power Chern roots equal to h,
    built from sympy's Bernoulli numbers, x / (1 - e^{-x}) being
    sum_k B_k x^k / k! with B_1 = +1/2 (abs: sympy's sign of B_1 has
    changed between versions)."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    series = sum((abs(sympy.bernoulli(1)) if k == 1 else sympy.bernoulli(k))
                 / sympy.factorial(k) * (h * x) ** k for k in range(degree + 1))
    poly = sympy.Poly(sympy.expand(series ** power), x)
    return [Fraction(int(c.p), int(c.q)) for c in
            (poly.coeff_monomial(x**k) for k in range(degree + 1))]


def _coefficients(td, degree):
    """The coefficients of a class on a one-generator model, h^0 .. h^degree."""
    return [Fraction(td.poly.terms.get((k,), 0).real) for k in range(degree + 1)]


def test_todd_from_roots_matches_classes_on_p1():
    # the one Chern root of T P1 is 2h: Td = 2h / (1 - e^{-2h}) = 1 + h
    p1 = MODELS["P1"]
    h = p1.generator_class("h")
    td = todd_class(p1, classes=[h * 2])
    assert _coefficients(td, 1) == _todd_series(2, 1, 1) == [1, 1]


def test_todd_from_roots_matches_classes_on_p4():
    # the degree-4 universal polynomial: c(T P4) = (1 + h)^5, so the Chern
    # roots of T P4 plus a trivial line are five copies of h
    gens = ("h",)
    p4 = CohomologyRingModel(
        name="P4",
        generators=gens,
        nilpotency=(4,),
        tangent_classes=tuple(
            MultiPoly(gens, {(k,): Fraction(comb(5, k))}) for k in range(1, 5)
        ),
    )
    td = model_tangent_todd(p4)
    assert _coefficients(td, 4) == _todd_series(1, 5, 4)
    assert td.integrate() == 1


def projective_space(n):
    """P^n by the recipe above: c(T P^n) = (1 + h)^(n + 1), so the Chern
    roots of T P^n plus a trivial line are n + 1 copies of h."""
    gens = ("h",)
    return CohomologyRingModel(
        name=f"P{n}",
        generators=gens,
        nilpotency=(n,),
        tangent_classes=tuple(
            MultiPoly(gens, {(k,): Fraction(comb(n + 1, k))}) for k in range(1, n + 1)
        ),
    )


PROJECTIVE = [projective_space(n) for n in range(1, 9)]


@pytest.mark.parametrize("pn", PROJECTIVE, ids=lambda m: m.name)
def test_todd_from_roots_matches_classes_in_every_degree(pn):
    td = todd_class(pn, classes=list(pn.tangent_classes))
    n = pn.top_degree
    assert _coefficients(td, n) == _todd_series(1, n + 1, n)
    assert td.integrate() == 1


def polynomial_binomial(n, d):
    """C(n + d, n) as the polynomial (d + 1)(d + 2)...(d + n) / n!, which is
    chi(O(d)) on P^n for every integer d (negative twists included)."""
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= Fraction(d + i, i)
    return out


@pytest.mark.parametrize("pn", PROJECTIVE, ids=lambda m: m.name)
def test_riemann_roch_on_projective_spaces(pn):
    n = pn.top_degree
    for d in range(-4, 5):
        assert grr_index(twist_class(pn, d)).index == polynomial_binomial(n, d)
    assert polynomial_binomial(n, 2) == comb(n + 2, n)


# the Euler number of each registry model; a model added without one fails
REGISTRY_EULER = {"P1": 2, "P2": 3, "P3": 4, "S2": 2, "P1xP1": 4, "elliptic_curve": 0}


@pytest.mark.parametrize("model, euler", [
    pytest.param(pn, pn.top_degree + 1, id=f"built-{pn.name}") for pn in PROJECTIVE
] + [
    pytest.param(MODELS[name], REGISTRY_EULER[name], id=name) for name in sorted(MODELS)
])
def test_de_rham_index_is_the_euler_number(model, euler):
    assert grr_index(de_rham_class(model)).index == euler


# -- GRR integrals ----------------------------------------------------------------


def test_riemann_roch_p1():
    p1 = MODELS["P1"]
    for d in range(0, 6):
        report = grr_index(twist_class(p1, d))
        assert report.index == monomial_count(d, 2) == d + 1


def test_riemann_roch_p2():
    p2 = MODELS["P2"]
    for d in range(0, 5):
        report = grr_index(twist_class(p2, d))
        assert report.index == monomial_count(d, 3) == (d + 1) * (d + 2) // 2


def test_elliptic_curve_chi_zero():
    e = MODELS["elliptic_curve"]
    assert grr_index(e.unit()).index == 0


def test_grr_integrality_guard():
    p1 = MODELS["P1"]
    bogus = p1.generator_class("h") * Fraction(1, 2)
    with pytest.raises(NonIntegerIndexError):
        grr_index(bogus)


def test_grr_deformation_invariance():
    p1 = MODELS["P1"]
    a = twist_class(p1, 2)
    zero_k_class = twist_class(p1, 5) - twist_class(p1, 5)
    assert grr_index(a + zero_k_class).index == grr_index(a).index


def test_p1xp1_chi_structure_sheaf():
    m = MODELS["P1xP1"]
    assert grr_index(m.unit()).index == 1


# -- Atiyah-Singer specialization ------------------------------------------------------


def test_cauchy_riemann_on_p1():
    report = atiyah_singer_index(cauchy_riemann_system(), MODELS["P1"].unit())
    assert report.index == 1
    assert report.method == "as_specialization"


def test_dolbeault_on_elliptic_curve():
    report = atiyah_singer_index(cauchy_riemann_system(), MODELS["elliptic_curve"].unit())
    assert report.index == 0


def test_de_rham_on_s2():
    report = atiyah_singer_index(laplace_system(), de_rham_class(MODELS["S2"]))
    assert report.index == 2  # chi(S^2) = 1 - 0 + 1


def test_non_elliptic_rejected():
    with pytest.raises(PreconditionError):
        atiyah_singer_index(heat_system(), MODELS["P1"].unit())


# -- Euler characteristics and combination rules ----------------------------------------


def test_euler_characteristic_of_table():
    assert spencer_euler_characteristic({0: 1, 1: 2, 2: 1}) == 0  # T^2 de Rham


def test_boundary_interval():
    ind, ind_b, ind_rel = boundary_index({0: 1}, {0: 2})
    assert (ind, ind_b, ind_rel) == (1, 2, -1)


def test_boundary_closed_model():
    ind, ind_b, ind_rel = boundary_index({0: 1, 1: 0, 2: 1}, None)
    assert ind_rel == ind == 2


def test_boundary_disk():
    ind, ind_b, ind_rel = boundary_index({0: 1}, {0: 1, 1: 1})
    assert ind_rel == 1


def test_fiberwise_flat_family():
    fibers = []
    for s in (0, 1, 2):
        fibers.append(
            make_system(("x",), ("u",), [[(1, 0, (1,)), (-s, 0, (0,))]])
        )
    assert [sum(finite_type_dimensions(f)) for f in fibers] == [1, 1, 1]


def test_pullback_compatibility_on_flat_systems():
    # noncharacteristic restriction preserves the index when both sides are
    # solution-space dimensions of flat (finite-type) systems
    from spencerlab.microlocal import noncharacteristic_restrict

    sys_ = gradient_system()
    for column in [(1, 0), (0, 1), (1, 1), (2, -1)]:
        restricted, ok, _ = noncharacteristic_restrict(sys_, [column])
        assert ok
        assert sum(finite_type_dimensions(restricted)) == sum(finite_type_dimensions(sys_)) == 1


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(st.integers(0, 3), st.integers(0, 9), max_size=4),
    st.dictionaries(st.integers(0, 3), st.integers(0, 9), max_size=4),
)
def test_boundary_relation_exactly_additive(interior, boundary):
    ind, ind_b, ind_rel = boundary_index(interior, boundary)
    assert ind_rel + ind_b == ind
