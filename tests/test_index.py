from fractions import Fraction
from math import comb

import pytest

from spencerlab.chern import (
    CohomologyRingModel,
    chern_character,
    get_model,
    model_tangent_todd,
    todd_class,
    twist_class,
)
from spencerlab.errors import NonIntegerIndexError, PreconditionError
from spencerlab.index import (
    additivity_check,
    atiyah_singer_index,
    boundary_index,
    de_rham_class,
    dolbeault_class,
    fiberwise_index,
    grr_index,
    spencer_euler_characteristic,
    twisted_dolbeault_class,
)
from spencerlab.poly import MultiPoly
from spencerlab.scalars import QQi
from spencerlab.systems import (
    cauchy_riemann_system,
    gradient_system,
    laplace_system,
    make_system,
)


def monomial_count(d, nvars):
    """Independent oracle: number of degree-<=d monomials... by enumeration."""
    from itertools import product

    return sum(
        1
        for e in product(range(d + 1), repeat=nvars)
        if sum(e) == d
    )


# -- character classes ---------------------------------------------------------


def test_chern_character_trivial_line():
    p1 = get_model("P1")
    assert chern_character(p1, roots=[p1.zero()]) == p1.unit()


def test_chern_character_twist_on_p1():
    p1 = get_model("P1")
    h = p1.generator_class("h")
    for d in range(-3, 4):
        assert twist_class(p1, d) == p1.unit() + h * d


def test_chern_additivity_cancellation():
    p1 = get_model("P1")
    total = twist_class(p1, 1) + twist_class(p1, -1)
    assert total == p1.unit() * 2


def test_chern_tensor_multiplicativity():
    p2 = get_model("P2")
    a, b = twist_class(p2, 2), twist_class(p2, 3)
    assert a * b == twist_class(p2, 5)


def test_todd_p1():
    p1 = get_model("P1")
    assert model_tangent_todd(p1) == p1.unit() + p1.generator_class("h")


def test_todd_elliptic_curve():
    e = get_model("elliptic_curve")
    assert model_tangent_todd(e) == e.unit()


def test_todd_p2():
    p2 = get_model("P2")
    h = p2.generator_class("h")
    expected = p2.unit() + h * Fraction(3, 2) + h * h
    assert model_tangent_todd(p2) == expected


def test_todd_from_roots_matches_classes_on_p1():
    p1 = get_model("P1")
    h = p1.generator_class("h")
    assert todd_class(p1, roots=[h * 2]) == todd_class(p1, classes=[h * 2])


def test_todd_from_roots_matches_classes_on_p4():
    # the degree-4 universal polynomial: c(T P4) = (1 + h)^5, so the Chern
    # roots of T P4 plus a trivial line are five copies of h
    gens = ("h",)
    p4 = CohomologyRingModel(
        name="P4",
        generators=gens,
        degrees=(1,),
        nilpotency=(4,),
        top_degree=4,
        top_monomial=(4,),
        tangent_classes=tuple(
            MultiPoly(gens, {(k,): Fraction(comb(5, k))}) for k in range(1, 5)
        ),
        polarization="h",
    )
    h = p4.generator_class("h")
    td = model_tangent_todd(p4)
    assert td == todd_class(p4, roots=[h] * 5)
    assert td.integrate() == 1


# -- GRR integrals ----------------------------------------------------------------


def test_riemann_roch_p1():
    p1 = get_model("P1")
    td = model_tangent_todd(p1)
    for d in range(0, 6):
        report = grr_index(twist_class(p1, d), td)
        assert report.index == monomial_count(d, 2) == d + 1


def test_riemann_roch_p2():
    p2 = get_model("P2")
    td = model_tangent_todd(p2)
    for d in range(0, 5):
        report = grr_index(twist_class(p2, d), td)
        assert report.index == monomial_count(d, 3) == (d + 1) * (d + 2) // 2


def test_elliptic_curve_chi_zero():
    e = get_model("elliptic_curve")
    assert grr_index(dolbeault_class(e), model_tangent_todd(e)).index == 0


def test_grr_integrality_guard():
    p1 = get_model("P1")
    bogus = p1.generator_class("h") * Fraction(1, 2)
    with pytest.raises(NonIntegerIndexError):
        grr_index(bogus, p1.unit())


def test_grr_deformation_invariance():
    p1 = get_model("P1")
    td = model_tangent_todd(p1)
    a = twist_class(p1, 2)
    zero_k_class = twist_class(p1, 5) - twist_class(p1, 5)
    assert grr_index(a + zero_k_class, td).index == grr_index(a, td).index


def test_p1xp1_chi_structure_sheaf():
    m = get_model("P1xP1")
    assert grr_index(dolbeault_class(m), model_tangent_todd(m)).index == 1


# -- Atiyah-Singer specialization ------------------------------------------------------


def test_cauchy_riemann_on_p1():
    report = atiyah_singer_index(cauchy_riemann_system(), "P1", dolbeault_class("P1"))
    assert report.index == 1
    assert report.method == "as_specialization"


def test_dolbeault_on_elliptic_curve():
    report = atiyah_singer_index(
        cauchy_riemann_system(), "elliptic_curve", dolbeault_class("elliptic_curve")
    )
    assert report.index == 0


def test_de_rham_on_s2():
    report = atiyah_singer_index(laplace_system(), "S2", de_rham_class("S2"))
    assert report.index == 2  # chi(S^2) = 1 - 0 + 1


def test_non_elliptic_rejected():
    from spencerlab.systems import heat_system

    with pytest.raises(PreconditionError):
        atiyah_singer_index(heat_system(), "P1", dolbeault_class("P1"))


# -- Euler characteristics and combination rules ----------------------------------------


def test_euler_characteristic_of_finite_type_system():
    assert spencer_euler_characteristic(gradient_system()) == 1


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


def test_additivity():
    total = {0: 3, 1: 1}
    gauge = {0: 1, 1: 0}
    base = {0: 2, 1: 1}
    assert additivity_check(total, gauge, base)
    assert not additivity_check({0: 5}, gauge, base)


def test_fiberwise_flat_family():
    fibers = []
    for s in (0, 1, 2):
        fibers.append(
            make_system(("x",), ("u",), [[(1, 0, (1,)), (-s, 0, (0,))]])
        )
    indices, constant = fiberwise_index(fibers)
    assert indices == [1, 1, 1] and constant


def test_fiberwise_detects_jump():
    indices, constant = fiberwise_index([{0: 1}, {0: 2}])
    assert indices == [1, 2] and not constant


def test_pullback_compatibility_on_flat_systems():
    # noncharacteristic restriction preserves the index when both sides are
    # solution-space dimensions of flat (finite-type) systems
    from spencerlab.microlocal import noncharacteristic_restrict
    from spencerlab.spencer import solution_dim_bound

    sys_ = gradient_system()
    for column in [(1, 0), (0, 1), (1, 1), (2, -1)]:
        restricted, ok, _ = noncharacteristic_restrict(sys_, [column])
        assert ok
        assert spencer_euler_characteristic(restricted) == spencer_euler_characteristic(sys_) == 1


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
