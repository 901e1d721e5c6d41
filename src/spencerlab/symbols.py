"""Geometric symbols of linear systems: the symbol spaces g^q.

The degree-q symbol space of a system sits inside Sym^q(V*) (x) W, whose
basis we index by pairs (unknown a, multi-index gamma with |gamma| = q).
Coefficient vectors use the jet convention: the formal shift
(shift_j t)_{a,gamma} = t_{a, gamma + e_j} plays the role of d/dx_j; symbol
spaces of a system are closed under all shifts, which is what makes the
delta-complex well defined.

Rows of the order-q symbol matrix are prolonged principal parts: for an
equation of intrinsic order r and every |beta| = q - r, the condition
sum_a sum_{|alpha| = r} c_{a,alpha}(x0) t_{a, alpha + beta} = 0, at the
system's base point x0 (the DSL `point` line, or `sys._replace(base_point=x)`,
moves it to x).

`symbol_space(sys, q)` is the one constructor of g^q, at every order.  From
the system order k on it is also the prolongation of the symbol: every
order-(q+1) row is xi_j times an order-q row, so t lies in g^{q+1} iff each
shift_j t lies in g^q, that is g^{q+1} = (g^q)^{(1)} (Seiler, *Involution*,
2010, ch. 7).  One degeneracy rule holds for every q >= k: when every
order-k equation's principal part vanishes at x0, the symbol is not that
of an order-k system, and `symbol_rows` raises DegenerateSymbolError.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property
from math import comb

from .errors import DegenerateSymbolError, PreconditionError
from .linalg import ExactMatrix
from .systems import PdeSystem, add_index, multiindices


# Largest column count m * C(n + q - 1, q) of a symbol matrix; a jet order
# past it exits 3 before any row is built, as LATTICE_BUDGET guards the
# lattice sums.  All six jet commands check the last order they may build
# up front, so finite-type --bound 100000 exits 3 at once even on a
# finite-type system, as involutivity --bound 100000 does.  It bounds
# requested orders, not the run time.
# The largest symbol matrix of the tests and the benchmark has 135 columns.
# Involutivity checks order k + bound + 1, so --bound 13 on Killing's
# equations in 5 variables (order 15, 19380 columns) fits and --bound 14
# (order 16, 24225 columns) does not; one Laplacian symbol space at 2000
# columns (order 1999) takes about 0.6 s, and the time grows with the
# square of the order (Python 3.11, 2 vCPUs).
JET_BUDGET = 20000


def check_jet_budget(n, m, q):
    """PreconditionError when Sym^q (x) W has more than JET_BUDGET columns."""
    cols = m * comb(max(n + q - 1, 0), q)
    if cols > JET_BUDGET:
        raise PreconditionError(
            f"jet order {q} needs {cols} symbol columns for {n} variables and "
            f"{m} unknowns; the work budget is {JET_BUDGET}"
        )


@cache
def sym_basis(n, m, q):
    """Ordered basis ((a, gamma), ...) of Sym^q (x) W."""
    return tuple((a, gamma) for a in range(m) for gamma in multiindices(n, q))


@cache
def basis_index(n, m, q):
    """Position of each (a, gamma) in sym_basis(n, m, q); shared, never mutate."""
    return {key: i for i, key in enumerate(sym_basis(n, m, q))}


@cache
def _shift_sources(n, m, q, j):
    """For each degree-(q-1) basis element, the position of its e_j raise."""
    src = basis_index(n, m, q)
    return tuple(src[(a, add_index(gamma, j))] for a, gamma in sym_basis(n, m, q - 1))


def shift_vector(vec, n, m, q, j):
    """Apply shift_j: coefficients over degree q -> degree q-1."""
    return [vec[i] for i in _shift_sources(n, m, q, j)]


def contraction_rows(n, m, q, v):
    """The matrix of iota_v = sum_j v_j shift_j, degree q -> degree q-1, as
    one row per degree-(q-1) basis element (dicts column -> v_j)."""
    sources = [_shift_sources(n, m, q, j) for j in range(n)]
    return [{src[b]: x for src, x in zip(sources, v) if x}
            for b in range(len(sym_basis(n, m, q - 1)))]


def symbol_rows(sys: PdeSystem, q):
    """Prolonged principal-symbol rows at jet order q, evaluated at the
    system's base point, as dicts column -> coefficient.  From the system
    order k on, a system whose every order-k principal part vanishes there
    is a DegenerateSymbolError."""
    n, m = sys.n, sys.m
    pt = sys.point_map()
    cols = basis_index(n, m, q)
    rows = []
    top_alive = False
    for eq in sys.equations:
        r = eq.order()
        if r < 0 or r > q:
            continue
        principal = [
            (a, alpha, value)
            for (a, alpha), coeff in eq.principal_terms().items()
            if (value := coeff.evaluate(pt))
        ]
        top_alive = top_alive or (r == sys.order and bool(principal))
        for beta in multiindices(n, q - r):
            row = {}
            for a, alpha, value in principal:
                c = cols[(a, tuple(x + y for x, y in zip(alpha, beta)))]
                row[c] = row[c] + value if c in row else value
            rows.append(row)
    if q >= sys.order and sys.equations and not top_alive:
        at = ", ".join(f"{v} = {x}" for v, x in pt.items())
        raise DegenerateSymbolError(
            f"principal part of order {sys.order} vanishes at the base point "
            f"{at}; a `point` line in the system moves it"
        )
    return rows


class SymbolSpace(namedtuple("SymbolSpace", "degree n m presentation")):
    """presentation: the ExactMatrix over sym_basis(n, m, degree) whose
    kernel this space is.  dim is read off its rank; kernel and basis, an
    integer basis that only the delta-complex reads, are built when first
    read.  No __slots__: the cached properties live in the instance dict."""

    @cached_property
    def dim(self):
        return self.presentation.cols - self.presentation.rank()

    @property
    def ambient_dim(self):
        return self.presentation.cols

    @cached_property
    def kernel(self):
        """(scale, free column f -> basis vector over Z or Z[i]): the vector
        of f is scale at f and 0 at the other free columns (integer_kernel)."""
        return self.presentation.integer_kernel()

    @cached_property
    def basis(self):
        return list(self.kernel[1].values())

    def coordinates(self, vec):
        """scale times the coefficients of vec in the basis, which are its
        entries at the free columns, or None when vec is not in the space.
        Membership is checked exactly, in integers: the dot product of vec
        with each echelon row of the presentation is 0."""
        for row in self.presentation._echelon().values():
            if sum(x * vec[c] for c, x in row.items() if vec[c]):
                return None
        return [vec[f] for f in self.kernel[1]]


def symbol_space(sys: PdeSystem, q) -> SymbolSpace:
    """Symbol space of the system at jet order q and its base point (kernel
    of the prolonged rows); an order past the jet work budget is a
    PreconditionError."""
    n, m = sys.n, sys.m
    check_jet_budget(n, m, q)
    return SymbolSpace(q, n, m, ExactMatrix.sparse(symbol_rows(sys, q), len(sym_basis(n, m, q))))
