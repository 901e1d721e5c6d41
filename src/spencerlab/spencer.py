"""Spencer delta-complexes, their cohomology, involutivity and finite type.

Conventions.  C^{q,i} = g^q (x) Lambda^i V* with basis (symbol basis vector,
ascending i-subset of axes).  The differential

    delta(t (x) e_S) = sum_{j not in S} sign(j, S) shift_j(t) (x) e_{S + j}

maps C^{q,i} -> C^{q-1,i+1}; delta o delta = 0 exactly because shifts
commute, and the constructor asserts this slot by slot.  The complex stays
in Z or Z[i]: each g^q has an integer basis that is L_q at its free
columns, so the matrix built for delta^{q,i} is L_{q-1} times delta, with
the same rank, and the product of two consecutive ones is L_{q-2} L_{q-1}
times delta o delta (see ``SymbolSpace.kernel``).  Cohomology at
(q,i) is ker delta^{q,i} / im delta^{q+1,i-1}; for the full jet module all
slots with q >= 1 vanish (the delta-Poincare property, exercised in the
acceptance suite).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations, islice, repeat

from .errors import ObstructionError, PreconditionError
from .linalg import ExactMatrix
from .poly import MultiPoly
from .symbols import check_jet_budget, contraction_rows, shift_vector, symbol_space
from .systems import PdeSystem, add_index, multiindices


def _wedge_sign(j, subset):
    """Sign of dx_j ^ dx_S relative to the ascending basis of S + {j}."""
    return -1 if sum(1 for s in subset if s < j) % 2 else 1


class SpencerComplex(namedtuple("SpencerComplex", "n m max_order symbols differentials ranks")):
    """symbols: q -> SymbolSpace; differentials: (q, i) -> ExactMatrix;
    ranks: (q, i) -> rank of that differential."""

    __slots__ = ()

    def space_dim(self, q, i):
        if q < 0 or q > self.max_order or i < 0 or i > self.n:
            return 0
        from math import comb

        return self.symbols[q].dim * comb(self.n, i)


def _shift_coordinates(g_hi, g_lo, n):
    """coords[b][j]: L times the coordinates of shift_j(basis vector b of
    g_hi) in g_lo's basis, L being g_lo's scale: ints, and for a complex
    system QQis with int parts, so over Z or Z[i]."""
    coords = []
    for vec in g_hi.basis:
        row = []
        for j in range(n):
            c = g_lo.coordinates(shift_vector(vec, n, g_hi.m, g_hi.degree, j))
            if c is None:
                raise AssertionError("symbol family not closed under shifts")
            row.append(c)
        coords.append(row)
    return coords


def _delta_matrix(coords, dim_lo, n, i):
    """L_{q-1} delta: C^{q,i} -> C^{q-1,i+1} in the integer bases (rows =
    target); coords holds the scaled coordinates that g_lo.coordinates gives."""
    dim_hi = len(coords)
    subsets_src = list(combinations(range(n), i))
    subsets_dst = list(combinations(range(n), i + 1))
    dst_pos = {s: k for k, s in enumerate(subsets_dst)}
    rows = [{} for _ in range(len(subsets_dst) * dim_lo)]
    for b, shift_coords in enumerate(coords):
        for si, S in enumerate(subsets_src):
            col = si * dim_hi + b
            for j in range(n):
                if j in S:
                    continue
                sign = _wedge_sign(j, S)
                base = dst_pos[tuple(sorted(S + (j,)))] * dim_lo
                for l, c in enumerate(shift_coords[j]):
                    if c:
                        rows[base + l][col] = c if sign > 0 else -c
    return ExactMatrix.sparse(rows, len(subsets_src) * dim_hi)


def spencer_complex(sys: PdeSystem, max_order=None) -> SpencerComplex:
    """Assemble the symbol spaces at the base point, the delta maps and their
    ranks; delta^2 = 0 is asserted.  A max_order past the jet work budget is
    a PreconditionError before any symbol space is built."""
    n = sys.n
    if max_order is None:
        max_order = sys.order + 2
    if max_order < sys.order and sys.equations:
        raise PreconditionError("max_order must be at least the system order")
    check_jet_budget(n, sys.m, max_order)
    symbols = {q: symbol_space(sys, q) for q in range(max_order + 1)}
    cx = SpencerComplex(n, sys.m, max_order, symbols, {}, {})
    for q in range(1, max_order + 1):
        coords = _shift_coordinates(symbols[q], symbols[q - 1], n)
        for i in range(0, n):
            d = _delta_matrix(coords, symbols[q - 1].dim, n, i)
            cx.differentials[(q, i)] = d
            cx.ranks[(q, i)] = d.rank()
    _assert_delta_squared(cx)
    return cx


def _assert_delta_squared(cx: SpencerComplex):
    for (q, i), d in cx.differentials.items():
        nxt = cx.differentials.get((q - 1, i + 1))
        if nxt is not None and d.rows and nxt.rows:
            if not (nxt @ d).is_zero():
                raise AssertionError(f"delta^2 != 0 at slot {(q, i)}")


class DeltaCohomologyTable(namedtuple("DeltaCohomologyTable", "entries max_order")):
    """entries: (q, i) -> dim H^{q,i}."""

    __slots__ = ()

    def is_zero_for(self, q_min, q_max):
        return all(d == 0 for (q, i), d in self.entries.items() if q_min <= q <= q_max)


def delta_cohomology(cx: SpencerComplex) -> DeltaCohomologyTable:
    """Exact dimensions dim ker - rank(incoming) per slot.

    Slots with q = max_order are omitted: their incoming differential from
    q+1 was not built.
    """
    entries = {}
    for q in range(0, cx.max_order):
        for i in range(0, cx.n + 1):
            dim_c = cx.space_dim(q, i)
            rank_out = cx.ranks.get((q, i), 0)
            rank_in = cx.ranks.get((q + 1, i - 1), 0)
            entries[(q, i)] = dim_c - rank_out - rank_in
    return DeltaCohomologyTable(entries, cx.max_order)


def cartan_flags(n):
    """The flags Cartan's test tries, in order: the n x n integer matrices
    with entries in [-5, 5] drawn with seeds 0, 1 and 2, rows v_1 .. v_n,
    each kept only when it is nonsingular."""
    import random

    flags = []
    for seed in range(3):
        rng = random.Random(seed)
        flag = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if ExactMatrix(flag).rank() == n:
            flags.append(flag)
    return flags


def cartan_order(sys: PdeSystem, search_bound=6):
    """First order q = k + l, l <= search_bound, at which Cartan's test
    certifies that g^q is involutive, or None.  q starts at 1: H^{0,0} is
    g^0 itself, which no test at order 0 can make vanish.

    For a flag v_1 .. v_n let g^q_j = {t in g^q : iota_{v_1} t = ... =
    iota_{v_j} t = 0}.  Every flag has dim g^{q+1} <= sum_{j<n} dim g^q_j,
    and equality holds exactly when g^q is involutive and the flag is
    delta-regular; involutive means H^{r,i} = 0 for every r >= q (Seiler,
    *Involution*, 2010, ch. 6).  So equality in any one flag is a
    certificate; a miss in all of cartan_flags(n) certifies nothing.
    Only ranks are computed, no kernel basis."""
    k, n, m = sys.order, sys.n, sys.m
    flags = cartan_flags(n)
    lo = max(k, 1)
    upper = symbol_space(sys, lo)
    for q in range(lo, k + search_bound + 1):
        space, upper = upper, symbol_space(sys, q + 1)
        cols = space.ambient_dim
        rows = [space.presentation.row(i) for i in range(space.presentation.rows)]
        for flag in flags:
            total, stacked = space.dim, list(rows)
            for v in flag[:-1]:
                stacked += contraction_rows(n, m, q, v)
                total += cols - ExactMatrix.sparse(stacked, cols).rank()
            if total == upper.dim:
                return q
    return None


def involutivity_degree(sys: PdeSystem, search_bound=6):
    """Smallest l0 <= search_bound with vanishing delta-cohomology at and
    above order k + l0, decided by Cartan's test.

    When Cartan's test certifies g^{q*} involutive (cartan_order), every
    H^{r,i} with r >= q* vanishes, so the complex is built to order q* + 1
    only and l0 = max(0, 1 + r - k) for the largest r in [k, q*) with a
    nonzero H^{r,i}.  When no flag certifies within the bound, l0 is None
    and the table holds H^{q,i} for q <= k + search_bound.  The budget of
    order k + search_bound + 1 is checked up front either way.

    Returns (l0 or None, DeltaCohomologyTable).  None is the not-found
    sentinel; the table is returned either way.
    """
    if search_bound < 0:
        raise PreconditionError("search_bound must be >= 0")
    k = sys.order
    check_jet_budget(sys.n, sys.m, k + search_bound + 1)
    certified = cartan_order(sys, search_bound)
    top = k + search_bound if certified is None else certified
    table = delta_cohomology(spencer_complex(sys, max_order=top + 1))
    if certified is not None:
        for ell in range(0, search_bound + 1):
            if table.is_zero_for(k + ell, certified):
                return ell, table
    return None, table


def symbol_dimensions(sys: PdeSystem):
    """dim g^0, dim g^1, ... at the base point through the first zero, or
    without end when no symbol space vanishes.  After a zero every later
    dimension is zero too: the shifts of an order-(q+1) symbol lie in g^q,
    and a vector whose shifts all vanish is zero."""
    q = 0
    while dim := symbol_space(sys, q).dim:
        yield dim
        q += 1
    yield 0


def finite_type_dimensions(sys: PdeSystem, bound=6):
    """dim g^q for q <= order + bound, through the first zero: the system is of
    finite type within the bound iff the list ends in 0, and then l0, the
    largest order with a nonzero symbol, is its length minus 2.  A last
    order past the jet work budget is a PreconditionError up front."""
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    check_jet_budget(sys.n, sys.m, sys.order + bound)
    return list(islice(symbol_dimensions(sys), sys.order + bound + 1))


def is_finite_type(sys: PdeSystem, bound=6):
    """(finite, l0): finite iff some symbol space vanishes within the bound."""
    dims = finite_type_dimensions(sys, bound)
    return (True, len(dims) - 2) if dims[-1] == 0 else (False, None)


def poincare_series(sys: PdeSystem, max_k=8):
    """Coefficient at z^k = growth of the solution-jet fiber = dim g^k; a
    max_k past the jet work budget is a PreconditionError up front."""
    check_jet_budget(sys.n, sys.m, max_k)
    return list(islice(chain(symbol_dimensions(sys), repeat(0)), max_k + 1))


# -- finite type -> flat connection ------------------------------------------


class FlatConnectionSystem(namedtuple("FlatConnectionSystem",
                                      "rank variables coordinates connection_matrices")):
    """coordinates: the jet labels (a, alpha) forming the fiber basis;
    connection_matrices: var name -> rank x rank matrix of MultiPoly."""

    __slots__ = ()


def _prolonged_equations(sys: PdeSystem, up_to):
    eqs = []
    for eq in sys.equations:
        frontier = [eq]
        eqs.append(eq)
        for _ in range(up_to - eq.order()):
            nxt = []
            for e in frontier:
                for v in sys.indep_vars:
                    nxt.append(e.total_derivative(v))
            frontier = nxt
            eqs.extend(nxt)
    # drop duplicates (different derivative paths commute on coefficients)
    seen, unique = set(), []
    for e in eqs:
        key = tuple(sorted((k, frozenset(c.terms.items())) for k, c in e.terms.items()))
        if key not in seen:
            seen.add(key)
            unique.append(e)
    return [e for e in unique if e.order() <= up_to]


def _solve_by_constant_pivots(rows):
    """Gauss-Jordan over rows {jet: MultiPoly} = 0, with constant pivots only.

    The pivot is taken from the first pending row with a constant entry, at
    its highest-order such jet, and cleared from the other pending rows and
    from every stored expression, so the pending rows stay zero at every
    solved jet and each expression runs over unsolved jets only (as in
    a reduced row echelon form).  Returns (solved, leftovers): solved
    maps each pivot jet to {jet: coefficient} with jet = sum coefficient *
    jet; leftovers are the nonzero rows that no constant pivot reaches.
    """
    pending = [dict(r) for r in rows]
    solved = {}
    while True:
        for ri, row in enumerate(pending):
            constants = [c for c, v in row.items() if v.is_constant()]
            if constants:
                break
        else:
            return solved, [r for r in pending if r]
        row = pending.pop(ri)
        pivot = min(constants, key=lambda c: (-sum(c[1]), c))
        scale = -1 / row.pop(pivot).constant_coefficient()
        expr = {c: v * scale for c, v in row.items()}
        for other in [*pending, *solved.values()]:
            f = other.pop(pivot, None)
            if f is not None:
                for c, v in expr.items():
                    x = other[c] + f * v if c in other else f * v
                    if x:
                        other[c] = x
                    else:
                        del other[c]
        solved[pivot] = expr


def to_flat_connection(sys: PdeSystem, bound=6) -> FlatConnectionSystem:
    """Reduce a finite-type system to first-order form on its jet fiber.

    The recursion d/dx_j u_alpha = u_{alpha + e_j} closes at order l0 + 1
    because every top jet is determined by the prolonged equations; the
    resulting square matrices must have polynomial entries, so pivots are
    required to be constants (a unit-pivot normal form).  Symbolic curvature
    d_i A_j - d_j A_i - [A_i, A_j] must vanish identically.
    """
    finite, l0 = is_finite_type(sys, bound)
    if not finite:
        raise PreconditionError("to_flat_connection requires a finite-type system")
    n, variables = sys.n, sys.indep_vars
    zero = MultiPoly.zero(variables)

    eq_rows = [{key: c for key, c in eq.terms.items() if c}
               for eq in _prolonged_equations(sys, l0 + 1)]
    solved, leftovers = _solve_by_constant_pivots(eq_rows)
    if leftovers:
        raise ObstructionError(
            "jet elimination needs a non-constant pivot; no polynomial "
            "connection normal form",
            obstruction=leftovers[0],
        )
    for key in [(a, alpha) for a in range(sys.m) for alpha in multiindices(n, l0 + 1)]:
        if key not in solved:
            # finite type guarantees the symbol dies; the affine solve must too
            raise ObstructionError(
                f"top jet {key} not determined by prolonged equations",
                obstruction=key,
            )

    fiber = [(a, alpha) for q in range(0, l0 + 1) for a in range(sys.m)
             for alpha in multiindices(n, q) if (a, alpha) not in solved]
    index = {key: i for i, key in enumerate(fiber)}
    rank = len(fiber)
    one = MultiPoly.constant(variables, 1)

    def expression_of(key):
        """key as a linear combination over fiber coordinates."""
        out = [zero] * rank
        for c, coeff in solved.get(key, {key: one}).items():
            out[index[c]] = coeff
        return out

    matrices = {
        var: [expression_of((a, add_index(alpha, j))) for (a, alpha) in fiber]
        for j, var in enumerate(variables)
    }
    _check_flatness(matrices, variables, rank)
    return FlatConnectionSystem(rank, variables, fiber, matrices)


def _check_flatness(matrices, variables, rank):
    """Each curvature entry d_i A_j - d_j A_i - [A_i, A_j] must vanish."""
    for i, vi in enumerate(variables):
        for vj in variables[i + 1:]:
            Ai, Aj = matrices[vi], matrices[vj]
            for r in range(rank):
                # [A_i, A_j][r][c] summed over the nonzero entries of row r only
                row_i = [(k, a) for k, a in enumerate(Ai[r]) if a]
                row_j = [(k, a) for k, a in enumerate(Aj[r]) if a]
                for c in range(rank):
                    curv = Aj[r][c].derivative(vi) - Ai[r][c].derivative(vj)
                    for k, a in row_i:
                        curv = curv - a * Aj[k][c]
                    for k, a in row_j:
                        curv = curv + a * Ai[k][c]
                    if curv:
                        raise ObstructionError(
                            f"nonvanishing curvature in ({vi},{vj}) at entry "
                            f"({r},{c})",
                            obstruction=curv,
                        )
