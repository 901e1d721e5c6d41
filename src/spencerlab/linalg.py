"""Exact sparse linear algebra over Q and Q(i): rref, rank, kernels, solving.

A matrix is a list of rows, each a dict column -> nonzero entry.  Symbol,
prolongation and delta matrices are sparse integer-like matrices, so
elimination only touches stored entries.  Each entry passes through
``scalars.scalar``: a Fraction, or a QQi when its imaginary part is nonzero,
so a real matrix is eliminated in plain fractions and a complex one mixes the
two types entry by entry.  Every rank and dimension claim stays exact.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import scalar


def _gauss_jordan(rows):
    """Reduce sparse rows; returns (pivot -> reduced row, pivot product).

    Each incoming row is cleared at the pivot columns found so far (the
    stored rows are zero at every other pivot, so one pass suffices), and
    its leading column becomes a new pivot.  The stored rows therefore
    always form the reduced row echelon form of the rows seen, which is
    unique.  The pivot product multiplies the leading entries met before
    normalising (0 once a row reduces to zero); the dict keeps the pivots
    in arrival order, which det() needs for the sign.
    """
    reduced = {}
    factor = 1
    for row in rows:
        r = dict(row)
        for c in [c for c in r if c in reduced]:
            f = r[c]
            for k, v in reduced[c].items():
                x = r.get(k)
                if x is None:
                    r[k] = -f * v
                else:
                    x = x - f * v
                    if x:
                        r[k] = x
                    else:
                        del r[k]
        if not r:
            factor = 0
            continue
        p = min(r)
        lead = r[p]
        factor = factor * lead
        inv = 1 / lead
        r = {k: v * inv for k, v in r.items()}
        for other in reduced.values():
            f = other.get(p)
            if f:
                for k, v in r.items():
                    x = other.get(k)
                    if x is None:
                        other[k] = -f * v
                    else:
                        x = x - f * v
                        if x:
                            other[k] = x
                        else:
                            del other[k]
        reduced[p] = r
    return reduced, factor


class ExactMatrix:
    """Sparse exact matrix; build it from dense rows or with ``sparse``."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, data, cols=None):
        rows = [dict(enumerate(r)) for r in data]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged matrix")
        self._set(rows, cols or 0)

    def _set(self, rows, cols):
        self.rows, self.cols = len(rows), cols
        self._rows = [{c: y for c, x in r.items() if (y := scalar(x))} for r in rows]

    @classmethod
    def sparse(cls, rows, cols):
        """Matrix from rows given as dicts column -> entry (zeros may be omitted)."""
        mat = cls.__new__(cls)
        mat._set(rows, cols)
        return mat

    @classmethod
    def zero(cls, rows, cols):
        return cls.sparse([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        return cls.sparse([{i: 1} for i in range(n)], n)

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

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    # -- elimination -----------------------------------------------------------

    def rref(self):
        """Reduced row echelon form: (nonzero rows as dicts, pivot columns)."""
        reduced, _ = _gauss_jordan(self._rows)
        pivots = sorted(reduced)
        return [reduced[p] for p in pivots], pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right kernel {v : A v = 0}; count = cols - rank.

        Vectors are dense lists in free-column form: the vector of free
        column f is 1 at f and 0 at every other free column, so the
        coordinates of a kernel element are its entries at the free
        columns.  Its last nonzero entry is the one at f.
        """
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        zero, one = Fraction(0), Fraction(1)
        basis = {}
        for f in range(self.cols):
            if f not in pivot_set:
                v = [zero] * self.cols
                v[f] = one
                basis[f] = v
        for row, p in zip(rows, pivots):
            for f, x in row.items():
                if f != p:
                    basis[f][p] = -x
        return list(basis.values())

    def solve_right(self, b):
        """One solution of A x = b as a dense list, or None if inconsistent."""
        aug = [dict(r) for r in self._rows]
        for r, bv in zip(aug, b):
            r[self.cols] = bv
        aug = ExactMatrix.sparse(aug, self.cols + 1)
        rows, pivots = aug.rref()
        if pivots and pivots[-1] == self.cols:
            return None
        x = [Fraction(0)] * self.cols
        for row, p in zip(rows, pivots):
            x[p] = row.get(self.cols, x[p])
        return x

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        reduced, factor = _gauss_jordan(self._rows)
        # row k ends as the unit vector at its pivot: det = sign(pivot order) * factor
        order = list(reduced)
        inversions = sum(1 for k, p in enumerate(order) for q in order[k + 1 :] if q < p)
        return scalar(-factor if inversions % 2 else factor)


def positive_definite(gram):
    """Sylvester's criterion on a square integer matrix: every leading
    principal minor is positive.  In fraction-free (Bareiss) elimination the
    k-th pivot is the k-th leading principal minor."""
    a = [row[:] for row in gram]
    n, prev = len(a), 1
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return True
