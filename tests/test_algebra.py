import operator
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spencerlab.errors import AmbientMismatchError
from spencerlab.groebner import (
    PolyIdeal,
    buchberger,
    normal_form,
    saturation_is_unit,
)
from spencerlab.linalg import ExactMatrix, positive_definite
from spencerlab.poly import MultiPoly
from spencerlab.scalars import QQi

XY = ("x", "y")


def p(expr_terms, variables=XY):
    return MultiPoly(variables, expr_terms)


def x_(variables=XY):
    return MultiPoly.variable(variables, "x")


def y_(variables=XY):
    return MultiPoly.variable(variables, "y")


# -- scalars ------------------------------------------------------------------


def test_scalar_exactness():
    a = QQi(Fraction(1, 3))
    b = QQi(Fraction(10**30), Fraction(1, 7))
    assert (a + b) - b == a
    assert a * b / b == a


def test_gaussian_division():
    z = QQi(1, 2)
    w = QQi(3, -1)
    assert z / w * w == z
    assert (QQi(0, 1) * QQi(0, 1)) == QQi(-1)


def test_serialize():
    assert QQi(Fraction(1, 3), 2).serialize() == "1/3+2/1i"
    assert QQi(0, Fraction(-1, 2)).serialize() == "0/1-1/2i"


# -- the scalar rule: a value is a Fraction exactly when its imaginary part is 0 --

small_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
exact_st = st.one_of(small_st, st.builds(QQi, small_st, small_st))
OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def by_rule(x):
    return type(x) is (QQi if x.imag else Fraction)


def gaussian_rational(x):
    from sympy import QQ, QQ_I

    re, im = Fraction(x.real), Fraction(x.imag)
    return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))


@settings(max_examples=300, deadline=None)
@given(exact_st, st.one_of(st.integers(-3, 3), exact_st), st.sampled_from(sorted(OPERATIONS)),
       st.booleans())
def test_arithmetic_follows_the_rule_and_matches_sympy(a, b, op, swap):
    pytest.importorskip("sympy")
    if swap:
        a, b = b, a
    if op == "/" and not b:
        with pytest.raises(ZeroDivisionError):
            OPERATIONS[op](a, b)
        return
    result = OPERATIONS[op](a, b)
    assert by_rule(result), (a, op, b, result)
    assert gaussian_rational(result) == OPERATIONS[op](gaussian_rational(a), gaussian_rational(b))


def test_i_squared_is_a_fraction():
    i = QQi(0, 1)
    assert type(i * i) is Fraction and i * i == -1
    assert type(i / i) is Fraction and type(1 / i - (-i)) is Fraction


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_no_real_value_comes_back_as_qqi(rows, cols, data):
    """Matrices and polynomials built from real-valued QQi inputs hold only
    Fractions, and a complex matrix holds a QQi only where the imaginary part
    is nonzero."""
    real = [[QQi(data.draw(small_st)) for _ in range(cols)] for _ in range(rows)]
    mixed = [[data.draw(exact_st) for _ in range(cols)] for _ in range(rows)]
    for entries, all_real in ((real, True), (mixed, False)):
        check = (lambda x: type(x) is Fraction) if all_real else by_rule
        m = ExactMatrix(entries)
        square = ExactMatrix([r[:rows] for r in entries]) if cols >= rows else None
        values = [m[i, j] for i in range(rows) for j in range(cols)]
        values += [x for r in m.rref()[0] for x in r.values()]
        values += [x for v in m.kernel_basis() for x in v]
        gram = m @ m.transpose()
        values += [x for i in range(rows) for x in gram.row(i).values()]
        values += m.transpose().solve_right([QQi(1)] * cols) or []
        values += [square.det()] if square is not None else []
        assert all(check(x) for x in values), values

        f = MultiPoly(XY, {(j, i): entries[i][j] for i in range(rows) for j in range(cols)})
        g = f * f - f.derivative("x") * QQi(2)
        polys = [f, g, f.monic(), f.term_mul((1, 0), QQi(3)), f.substitute({"x": x_() - 1})]
        if f and g:
            polys.append(normal_form(g, buchberger([f])))
        values = [c for h in polys for c in h.terms.values()]
        values += [f.evaluate({"x": QQi(2), "y": Fraction(1, 3)}), f.leading_coefficient(),
                   f.coefficient((0, 0))]
        assert all(check(c) for c in values), values


# -- polynomials --------------------------------------------------------------

rational_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def poly_st(draw, variables=XY, max_terms=5, max_exp=3):
    n = len(variables)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(n))
        terms[mono] = draw(rational_st)
    return MultiPoly(variables, terms)


@settings(max_examples=60, deadline=None)
@given(poly_st(), poly_st(), poly_st())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        x_() + MultiPoly.variable(("z",), "z")


def test_eval_and_derivative():
    f = x_() ** 2 * y_() + 3 * y_()
    assert f.evaluate({"x": 2, "y": Fraction(1, 2)}) == QQi(Fraction(7, 2))
    assert f.derivative("x") == 2 * x_() * y_()


def test_substitute_linear_change():
    f = x_() ** 2 + y_() ** 2
    g = f.substitute({"x": x_() + y_(), "y": x_() - y_()})
    assert g == 2 * x_() ** 2 + 2 * y_() ** 2


# -- linear algebra -----------------------------------------------------------


def test_kernel_trivial_cases():
    assert ExactMatrix.identity(3).kernel_basis() == []
    assert len(ExactMatrix.zero(2, 3).kernel_basis()) == 3
    k = ExactMatrix([[1, 1]]).kernel_basis()
    assert len(k) == 1 and k[0][0] == -k[0][1]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10_000))
def test_rank_nullity(rows, cols, seed):
    rng = random.Random(seed)
    m = ExactMatrix(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )
    ker = m.kernel_basis()
    assert m.rank() + len(ker) == cols
    for v in ker:
        assert all(
            not sum((m[i, j] * v[j] for j in range(cols)), QQi(0))
            for i in range(rows)
        )


def test_solve_in_span():
    basis = [[QQi(1), QQi(0)], [QQi(1), QQi(1)]]
    coords = ExactMatrix(basis).transpose().solve_right([QQi(3), QQi(2)])
    assert coords == [QQi(1), QQi(2)]
    assert ExactMatrix([[QQi(1), QQi(0)]]).transpose().solve_right([QQi(0), QQi(1)]) is None


def test_positive_definite():
    assert positive_definite([[2, 1], [1, 2]])
    assert not positive_definite([[1, 2], [2, 1]])


# -- Groebner -----------------------------------------------------------------


def test_principal_ideal():
    gb = buchberger([x_()])
    assert gb == [x_()]


def test_unit_ideal():
    one = MultiPoly.constant(XY, 1)
    gb = buchberger([one + x_() - x_()])
    assert len(gb) == 1 and gb[0].is_constant()


def test_membership_by_substitution_oracle():
    # x^4 - x = (x^2 + y)(x^2 - y) + (y^2 - x): checked as an exact identity
    g1 = x_() ** 2 - y_()
    g2 = y_() ** 2 - x_()
    target = x_() ** 4 - x_()
    assert (x_() ** 2 + y_()) * g1 + g2 == target
    ideal = PolyIdeal(XY, [g1, g2])
    assert ideal.contains(target)
    assert not ideal.contains(x_() + 1)


def test_membership_trivia():
    ideal = PolyIdeal(XY, [x_()])
    assert ideal.contains(MultiPoly.zero(XY))
    assert ideal.contains(x_() * y_())
    assert not ideal.contains(x_() + 1)


def test_groebner_idempotent():
    ideal = PolyIdeal(XY, [x_() ** 2 - y_(), y_() ** 2 - x_()])
    gb1 = ideal.groebner()
    gb2 = buchberger(gb1)
    assert gb1 == gb2


@settings(max_examples=25, deadline=None)
@given(poly_st(max_terms=3, max_exp=2), poly_st(max_terms=3, max_exp=2), poly_st(max_terms=2, max_exp=1))
def test_membership_closure(a, b, r):
    ideal = PolyIdeal(XY, [x_() ** 2 - y_(), x_() * y_()])
    pa = a * ideal.generators[0]
    pb = b * ideal.generators[1]
    assert ideal.contains(pa + pb)
    assert ideal.contains(r * pa)


def test_dimension_examples():
    assert PolyIdeal(XY, [x_(), y_()]).dimension() == 0
    assert PolyIdeal(XY, [x_()]).dimension() == 1
    xyz = ("x", "y", "z")
    assert PolyIdeal(xyz, []).dimension() == 3
    unit = PolyIdeal(XY, [MultiPoly.constant(XY, 1)])
    assert unit.dimension() is None


def _dimension_by_subsets(ideal):
    """Oracle: the largest variable subset containing no leading-monomial
    support, found by enumerating subsets from the largest size down."""
    gb = ideal.groebner()
    if len(gb) == 1 and gb[0].is_constant():
        return None
    n = len(ideal.ambient)
    supports = [{i for i, e in enumerate(g.leading_monomial()) if e} for g in gb]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            if not any(sup <= set(subset) for sup in supports):
                return size
    return 0


@st.composite
def monomial_or_binomial_ideal_st(draw):
    n = draw(st.integers(1, 9))
    variables = tuple(f"v{i}" for i in range(n))

    def mono():
        support = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
        return tuple(draw(st.integers(1, 2)) if i in support else 0 for i in range(n))

    binomial = draw(st.booleans())  # few binomials keep Buchberger small
    gens = []
    for _ in range(draw(st.integers(0, 3 if binomial else 10))):
        terms = {mono(): 1}
        if binomial:
            terms[mono()] = draw(st.sampled_from([-1, 2, Fraction(-1, 3)]))
        gens.append(MultiPoly(variables, terms))
    return PolyIdeal(variables, gens)


V9 = tuple(f"v{i}" for i in range(9))


@settings(max_examples=150, deadline=None)
@given(monomial_or_binomial_ideal_st())
@example(PolyIdeal(V9, []))  # zero ideal: dimension 9
@example(PolyIdeal(V9, [MultiPoly.variable(V9, "v0") ** 2 + 1,
                        MultiPoly.constant(V9, 3)]))  # unit ideal: None
def test_dimension_matches_subset_enumeration(ideal):
    expected = _dimension_by_subsets(ideal)
    if not ideal.generators:
        assert expected == len(ideal.ambient)
    assert ideal.dimension() == expected


def test_saturation_unit_detects_containment():
    # V(x^2+y^2) over R is only the origin: saturation by x^2+y^2 is unit
    f = x_() ** 2 + y_() ** 2
    assert saturation_is_unit(PolyIdeal(XY, [f]), f)
    # V(y^2) is the x-axis, not inside V(x^2+y^2)
    assert not saturation_is_unit(PolyIdeal(XY, [y_() ** 2]), f)


def test_normal_form_is_canonical():
    ideal = PolyIdeal(XY, [x_() ** 2 - y_()])
    gb = ideal.groebner()
    nf = normal_form(x_() ** 4, gb)
    assert nf == y_() ** 2


def test_cached_basis_is_groebner_by_spolynomials():
    from spencerlab.groebner import s_polynomial

    ideal = PolyIdeal(XY, [x_() ** 2 - y_(), y_() ** 2 - x_()])
    gb = ideal.groebner()
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert not normal_form(s_polynomial(gb[i], gb[j]), gb)


def test_membership_ambient_mismatch_error():
    ideal = PolyIdeal(XY, [x_()])
    foreign = MultiPoly.variable(("z", "w"), "z")
    with pytest.raises(AmbientMismatchError):
        ideal.contains(foreign)
