"""Geometric symbols of linear systems and their prolongations.

The degree-q symbol space of a system sits inside Sym^q(V*) (x) W, whose
basis we index by pairs (unknown a, multi-index gamma with |gamma| = q).
Coefficient vectors use the jet convention: the formal shift
(shift_j t)_{a,gamma} = t_{a, gamma + e_j} plays the role of d/dx_j; symbol
spaces of a system are closed under all shifts, which is what makes the
delta-complex well defined.

Rows of the order-q symbol matrix are prolonged principal parts: for an
equation of intrinsic order r and every |beta| = q - r, the condition
sum_a sum_{|alpha| = r} c_{a,alpha}(x0) t_{a, alpha + beta} = 0, at the
system's base point x0 (`frozen_system(sys, x)` moves it to x).
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
# lattice sums.  It refuses absurd orders, it does not bound the run time.
# The largest symbol matrix of the tests and the benchmark has 135 columns;
# default involutivity (order k + 8 + n) on Killing's equations in 5
# variables needs 15300 and takes about 17 s; the Laplacian at 2000 columns
# (order 1999) takes about 8 s, and the time grows with the square of the
# order (Python 3.11, 2 vCPUs).
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


def symbol_rows(sys: PdeSystem, q):
    """Prolonged principal-symbol rows at jet order q, evaluated at the
    system's base point, as dicts column -> coefficient."""
    n, m = sys.n, sys.m
    pt = sys.point_map()
    cols = basis_index(n, m, q)
    rows = []
    for eq in sys.equations:
        r = eq.order()
        if r < 0 or r > q:
            continue
        principal = [
            (a, alpha, value)
            for (a, alpha), coeff in eq.principal_terms().items()
            if (value := coeff.evaluate(pt))
        ]
        for beta in multiindices(n, q - r):
            row = {}
            for a, alpha, value in principal:
                c = cols[(a, tuple(x + y for x, y in zip(alpha, beta)))]
                row[c] = row[c] + value if c in row else value
            rows.append(row)
    return rows


class SymbolSpace(namedtuple("SymbolSpace", "degree n m basis presentation")):
    """basis: a kernel basis over sym_basis(n, m, degree), in free-column
    form; presentation: the ExactMatrix whose kernel this is.  No __slots__:
    the cached property free lives in the instance dict."""

    @property
    def dim(self):
        return len(self.basis)

    @property
    def ambient_dim(self):
        return len(sym_basis(self.n, self.m, self.degree))

    @cached_property
    def free(self):
        """Free columns: basis[k] is 1 at free[k] and 0 at the other free
        columns, and free[k] is the last nonzero entry of basis[k]."""
        return [max(c for c, x in enumerate(v) if x) for v in self.basis]

    def coordinates(self, vec):
        """Coefficients of vec in the basis, or None when vec is not in the
        space.  Membership is checked exactly: presentation . vec = 0."""
        for i in range(self.presentation.rows):
            if sum(x * vec[c] for c, x in self.presentation.row(i).items() if vec[c]):
                return None
        return [vec[f] for f in self.free]


def symbol_space(sys: PdeSystem, q) -> SymbolSpace:
    """Symbol space of the system at jet order q and its base point (kernel
    of the prolonged rows); an order past the jet work budget is a
    PreconditionError."""
    n, m = sys.n, sys.m
    check_jet_budget(n, m, q)
    mat = ExactMatrix.sparse(symbol_rows(sys, q), len(sym_basis(n, m, q)))
    return SymbolSpace(q, n, m, mat.kernel_basis(), mat)


def geometric_symbol(sys: PdeSystem) -> SymbolSpace:
    """Order-k symbol at the base point; degenerate when the principal part
    dies there."""
    if sys.equations:
        pt = sys.point_map()
        top_rows_alive = False
        for eq in sys.equations:
            if eq.order() == sys.order and any(
                coeff.evaluate(pt) for coeff in eq.principal_terms().values()
            ):
                top_rows_alive = True
                break
        if not top_rows_alive:
            raise DegenerateSymbolError(
                f"principal part of order {sys.order} vanishes at {pt}"
            )
    return symbol_space(sys, sys.order)


def prolong_subspace(space: SymbolSpace) -> SymbolSpace:
    """First prolongation {t in Sym^{q+1} (x) W : shift_j t in g for all j}."""
    n, m, q = space.n, space.m, space.degree
    # the functionals vanishing on g are the row space of its presentation
    funcs, _ = space.presentation.rref()
    rows = []
    for j in range(n):
        # phi(shift_j t) = 0 for every functional phi vanishing on g
        src = _shift_sources(n, m, q + 1, j)
        for phi in funcs:
            rows.append({src[c]: x for c, x in phi.items()})
    mat = ExactMatrix.sparse(rows, len(sym_basis(n, m, q + 1)))
    return SymbolSpace(q + 1, n, m, mat.kernel_basis(), mat)


def prolongations(space: SymbolSpace, ell: int) -> list:
    """space and its first ell prolongations, in order; a last jet order past
    the work budget is a PreconditionError before any is built."""
    if ell < 0:
        raise ValueError("prolongation count must be >= 0")
    check_jet_budget(space.n, space.m, space.degree + ell)
    out = [space]
    for _ in range(ell):
        out.append(prolong_subspace(out[-1]))
    return out


def prolong(space: SymbolSpace, ell: int) -> SymbolSpace:
    return prolongations(space, ell)[-1]
