"""Sparse exact kernel cross-checked against sympy's Gaussian-rational matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spencerlab.linalg import ExactMatrix
from spencerlab.scalars import QQi

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
ENTRIES = st.one_of(st.just(Fraction(0)), RATIONALS, st.builds(QQi, RATIONALS, RATIONALS))


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 5))
    cols = max(rows, 1) if draw(st.booleans()) else draw(st.integers(1, 5))
    zero_rows = draw(st.sets(st.integers(0, 4), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 4), max_size=2))
    return [
        [Fraction(0) if i in zero_rows or j in zero_cols else draw(ENTRIES)
         for j in range(cols)]
        for i in range(rows)
    ], cols


def to_sympy(x):
    return sympy.Rational(x.real.numerator, x.real.denominator) + sympy.I * sympy.Rational(
        x.imag.numerator, x.imag.denominator
    )


def same(a, b):
    return sympy.expand(a - b) == 0


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_matches_sympy(case):
    data, cols = case
    m = ExactMatrix(data, cols=cols)
    big = sympy.Matrix(len(data), cols, [to_sympy(x) for row in data for x in row])
    dm = DomainMatrix.from_Matrix(big).convert_to(sympy.QQ_I)

    rank = dm.rank()
    assert m.rank() == rank

    reduced, pivots = m.rref()
    ref, ref_pivots = dm.rref()
    ref = ref.to_Matrix()
    assert tuple(pivots) == tuple(ref_pivots)
    for k, row in enumerate(reduced):
        assert all(same(to_sympy(row.get(j, 0)), ref[k, j]) for j in range(cols))

    kernel = m.kernel_basis()
    assert len(kernel) == cols - rank
    for v in kernel:
        product = big * sympy.Matrix([to_sympy(x) for x in v])
        assert all(same(x, 0) for x in product)

    if len(data) == cols:
        assert same(to_sympy(m.det()), sympy.QQ_I.to_sympy(dm.det()))


def test_real_entries_stay_fractions():
    m = ExactMatrix([[QQi(1), 2], [Fraction(1, 2), QQi(3, 0)]])
    assert all(type(m[i, j]) is Fraction for i in range(2) for j in range(2))
    assert type(m.det()) is Fraction and m.det() == 2
    z = ExactMatrix([[1, QQi(0, 1)]])
    assert type(z[0, 0]) is Fraction and type(z[0, 1]) is QQi


@pytest.mark.parametrize("rows, det", [
    ([[0, 1], [1, 0]], -1),
    ([[0, 1, 0], [0, 0, 2], [3, 0, 0]], 6),
    ([[0, 0, 1], [0, 2, 0], [3, 0, 0]], -6),
    ([[1, 2], [2, 4]], 0),
])
def test_det_sign_follows_pivot_order(rows, det):
    assert ExactMatrix(rows).det() == det
