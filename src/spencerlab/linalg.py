"""Exact sparse linear algebra over Q and Q(i): rank, rref, kernels, solving.

A matrix is a list of rows, each a dict column -> nonzero entry.  Symbol,
prolongation and delta matrices are sparse integer-like matrices, so
elimination only touches stored entries.  The dense constructor passes each
entry through ``scalars.scalar``; ``sparse`` stores entries as given, so a
delta matrix of ints and ``QQi``s with int parts stays over Z or Z[i].

Elimination is fraction-free and runs in one loop (``_clear``), as
integer-preserving elimination does (Bareiss, *Math. Comp.* 22, 1968).
Each row is scaled once, by the lcm of its denominators, to a primitive
integer row over Z or Z[i], whose content is the integer gcd of all the
real and imaginary parts.  A row is cleared at a pivot by
cross-multiplication and divided by its content, so its entries stay
integers with no common factor.  ``rank`` is the forward pass alone, done
once per matrix; ``integer_kernel`` back-substitutes on the same rows, and
``rref``, ``kernel_basis`` and ``solve_right`` divide by the leads only as
they return.  Sylvester's test ``positive_definite`` runs the same loop.
Every rank and dimension claim stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import gaussian, scalar


def _integer_row(row):
    """A row of exact scalars as a primitive row over Z or Z[i] (the row
    times the lcm of its denominators, over its content)."""
    parts = [(x.real, im) if (im := x.imag) else (x, 0) for x in row.values()]
    d = lcm(*(p.denominator for pair in parts for p in pair if p))
    out = {}
    for k, (re, im) in zip(row, parts):
        re = re.numerator * (d // re.denominator)
        out[k] = gaussian(re, im.numerator * (d // im.denominator)) if im else re
    return _primitive(out)


def _primitive(row):
    """row divided by its content: the gcd of every integer part."""
    try:
        g = gcd(*row.values())
    except TypeError:  # a Z[i] row
        g = gcd(*(p for x in row.values() for p in (x.real, x.imag)))
    return row if g == 1 else {k: x // g for k, x in row.items()}


def _clear(row, pivot_row, c):
    """row with its entry at column c cleared by pivot_row, whose entry
    there is a positive integer p: (p*row - row[c]*pivot_row) / gcd, then
    made primitive.  A positive multiple of row - (row[c]/p) pivot_row."""
    p, f = pivot_row[c], row[c]
    g = gcd(p, f.real, f.imag)
    a, b = p // g, -f // g
    out = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
    for k, y in pivot_row.items():
        x = out.pop(k, 0) + b * y
        if x:
            out[k] = x
    return _primitive(out) if out else out


def _reduce(row, pivots):
    """Clear row's leading column while a stored pivot row leads there;
    returns what is left (empty when row is in the span of the pivots)."""
    while row:
        c = min(row)
        pivot_row = pivots.get(c)
        if pivot_row is None:
            break
        row = _clear(row, pivot_row, c)
    return row


def _positive_lead(row, c):
    """row scaled so its entry at its leading column c is a positive integer."""
    p = row[c]
    if type(p) is int:
        return row if p > 0 else {k: -x for k, x in row.items()}
    conj = gaussian(p.real, -p.imag)
    return _primitive({k: conj * x for k, x in row.items()})


def _quotient(x, d):
    """x / d for x over Z or Z[i] and a positive int d, by the scalar rule."""
    return gaussian(Fraction(x.real, d), Fraction(x.imag, d))


class ExactMatrix:
    """Sparse exact matrix; build it from dense rows or with ``sparse``."""

    __slots__ = ("rows", "cols", "_rows", "_pivots")

    def __init__(self, data, cols=None):
        rows = [{c: scalar(x) for c, x in enumerate(r)} for r in data]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged matrix")
        self._set(rows, cols or 0)

    def _set(self, rows, cols):
        self.rows, self.cols = len(rows), cols
        self._rows = [{c: x for c, x in r.items() if x} for r in rows]
        self._pivots = None

    @classmethod
    def sparse(cls, rows, cols):
        """Matrix from rows given as dicts column -> entry (zeros may be
        omitted): ints, QQis with int parts, or scalars that follow the
        scalar rule."""
        mat = cls.__new__(cls)
        mat._set(rows, cols)
        return mat

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i].get(j, Fraction(0))

    def row(self, i):
        """Nonzero entries of row i as a dict column -> entry (do not mutate)."""
        return self._rows[i]

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                out[j][i] = x
        return ExactMatrix.sparse(out, self.rows)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for r in self._rows:
            acc = {}
            for k, a in r.items():
                for j, b in other._rows[k].items():
                    x = acc.get(j)
                    acc[j] = a * b if x is None else x + a * b
            out.append(acc)
        return ExactMatrix.sparse(out, other.cols)

    def is_zero(self):
        return not any(self._rows)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    # -- elimination -----------------------------------------------------------

    def _echelon(self):
        """Forward pass, done once per matrix: pivot column -> primitive
        integer row that leads there with a positive integer."""
        if self._pivots is None:
            pivots = {}
            for row in self._rows:
                if row := _reduce(_integer_row(row), pivots):
                    c = min(row)
                    pivots[c] = _positive_lead(row, c)
            self._pivots = pivots
        return self._pivots

    def _reduced(self):
        """Back substitution on the forward rows: pivot column -> integer
        row that is zero at every other pivot column."""
        reduced = {}
        for c, row in sorted(self._echelon().items(), reverse=True):
            for k in [k for k in row if k in reduced]:
                row = _clear(row, reduced[k], k)
            reduced[c] = row
        return reduced

    def rank(self):
        return len(self._echelon())

    def rref(self):
        """Reduced row echelon form: (nonzero rows as dicts, pivot columns)."""
        reduced = self._reduced()
        pivots = sorted(reduced)
        rows = []
        for p in pivots:
            row, d = reduced[p], reduced[p][p]
            rows.append({k: _quotient(x, d) for k, x in row.items()})
        return rows, pivots

    def integer_kernel(self):
        """Right kernel {v : A v = 0} over Z or Z[i]: (scale, free column f
        -> dense vector), scale being the lcm of the reduced rows' positive
        leads.  The vector of f is scale at f and 0 at the other free
        columns; its last nonzero entry is the one at f."""
        reduced = self._reduced()
        scale = lcm(*(row[p] for p, row in reduced.items()))
        basis = {f: [0] * self.cols for f in range(self.cols) if f not in reduced}
        for f, v in basis.items():
            v[f] = scale
        for p, row in reduced.items():
            m = -(scale // row[p])
            for f, x in row.items():
                if f != p:
                    basis[f][p] = m * x
        return scale, basis

    def kernel_basis(self):
        """integer_kernel over its scale: dense lists of Fractions and QQis,
        1 at their free column; count = cols - rank."""
        scale, kernel = self.integer_kernel()
        return [[_quotient(x, scale) for x in v] for v in kernel.values()]

    def solve_right(self, b):
        """One solution of A x = b as a dense list, or None if inconsistent."""
        aug = [dict(r) for r in self._rows]
        for r, bv in zip(aug, b):
            r[self.cols] = scalar(bv)
        aug = ExactMatrix.sparse(aug, self.cols + 1)
        rows, pivots = aug.rref()
        if pivots and pivots[-1] == self.cols:
            return None
        x = [Fraction(0)] * self.cols
        for row, p in zip(rows, pivots):
            x[p] = row.get(self.cols, x[p])
        return x


def positive_definite(gram):
    """Sylvester's criterion on a square integer matrix: every leading
    principal minor is positive.  Row k, cleared by rows 0..k-1 in the
    fraction-free loop, is a positive multiple of the k-th pivot row of
    Gaussian elimination, whose entry at k is minor_k / minor_(k-1)."""
    pivots = {}
    for k, row in enumerate(gram):
        row = _reduce({j: x for j, x in enumerate(row) if x}, pivots)
        if not row or min(row) != k or row[k] < 0:
            return False
        pivots[k] = row
    return True
