"""Sparse exact kernel cross-checked against sympy's Gaussian-rational matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spencerlab.linalg import ExactMatrix, positive_definite
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


def test_real_entries_stay_fractions():
    m = ExactMatrix([[QQi(1), 2], [Fraction(1, 2), QQi(3, 0)]])
    assert all(type(m[i, j]) is Fraction for i in range(2) for j in range(2))
    z = ExactMatrix([[1, QQi(0, 1)]])
    assert type(z[0, 0]) is Fraction and type(z[0, 1]) is QQi


# Denominators up to 10^12, Gaussian rows, and zero and duplicate rows: the
# integer rows of the fraction-free loop must meet the same unique rref.
WIDE = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12)
GAUSSIAN = st.builds(QQi, RATIONALS, RATIONALS)


@st.composite
def row_sets(draw):
    """(rows, cols): random rows over Q with wide denominators or over Q(i),
    with zero rows and duplicate rows (some scaled) mixed in."""
    cols = draw(st.integers(1, 6))
    entry = draw(st.sampled_from([WIDE, GAUSSIAN, st.one_of(WIDE, GAUSSIAN)]))
    entries = st.one_of(st.just(Fraction(0)), entry)
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * cols)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        src = draw(st.sampled_from(rows))
        scale = draw(st.sampled_from([1, -1, Fraction(7, 10**12), QQi(2, -3)]))
        rows.insert(draw(st.integers(0, len(rows))), [x * scale for x in src])
    return rows, cols


def sympy_matrix(rows, cols):
    big = sympy.Matrix(len(rows), cols, [to_sympy(x) for row in rows for x in row])
    return big, DomainMatrix.from_Matrix(big).convert_to(sympy.QQ_I)


@settings(max_examples=80, deadline=None)
@given(row_sets(), st.data())
def test_rank_rref_kernel_and_solve_match_domain_matrix(case, data):
    rows, cols = case
    m = ExactMatrix(rows, cols=cols)
    big, dm = sympy_matrix(rows, cols)

    reduced, pivots = m.rref()
    assert m.rank() == len(pivots) == (dm.rank() if rows else 0)
    if rows:
        ref, ref_pivots = dm.rref()
        ref = ref.to_Matrix()
        assert tuple(pivots) == tuple(ref_pivots)
        for k, row in enumerate(reduced):
            assert all(same(to_sympy(row.get(j, 0)), ref[k, j]) for j in range(cols))

    kernel = m.kernel_basis()
    assert len(kernel) == cols - len(pivots)
    for v in kernel:
        assert all(same(x, 0) for x in big * sympy.Matrix([to_sympy(x) for x in v]))

    if rows:
        b = data.draw(st.lists(st.one_of(WIDE, GAUSSIAN), min_size=len(rows),
                               max_size=len(rows)))
        _, aug = sympy_matrix([row + [bv] for row, bv in zip(rows, b)], cols + 1)
        aug_ref, aug_pivots = aug.rref()
        x = m.solve_right(b)
        if cols in aug_pivots:
            assert x is None
        else:
            # the solution with every free unknown 0, read off the augmented rref
            expected, aug_ref = [0] * cols, aug_ref.to_Matrix()
            for k, p in enumerate(aug_pivots):
                expected[p] = aug_ref[k, cols]
            assert all(same(to_sympy(xi), e) for xi, e in zip(x, expected))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_positive_definite_is_sylvesters_criterion(a):
    gram = [[a[i][j] + a[j][i] + (4 if i == j else 0) for j in range(len(a))]
            for i in range(len(a))]
    minors = [sympy.Matrix(gram)[:k, :k].det() for k in range(1, len(gram) + 1)]
    assert positive_definite(gram) == all(d > 0 for d in minors)
