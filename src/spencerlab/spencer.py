"""Spencer delta-complexes, their cohomology, involutivity and finite type.

Conventions.  C^{q,i} = g^q (x) Lambda^i V* with basis (symbol basis vector,
ascending i-subset of axes).  The differential

    delta(t (x) e_S) = sum_{j not in S} sign(j, S) shift_j(t) (x) e_{S + j}

maps C^{q,i} -> C^{q-1,i+1}; delta o delta = 0 exactly because shifts
commute, and the constructor asserts this slot by slot.  Cohomology at
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
from .symbols import check_jet_budget, shift_vector, symbol_space
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
    """coords[b][j]: coordinates of shift_j(basis vector b of g_hi) in g_lo."""
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
    """delta: C^{q,i} -> C^{q-1,i+1} in the chosen bases (rows = target)."""
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

    def dim(self, q, i):
        return self.entries.get((q, i), 0)

    def is_zero_for(self, q_min, q_max=None):
        return all(
            d == 0
            for (q, i), d in self.entries.items()
            if q >= q_min and (q_max is None or q <= q_max)
        )

    def euler_characteristic(self):
        return sum((-1) ** i * d for (q, i), d in self.entries.items())


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


def involutivity_degree(sys: PdeSystem, search_bound=6):
    """Smallest l0 <= search_bound with vanishing delta-cohomology at and
    above order k + l0, checked by brute-force ranks on a stability window
    of n + 2 orders above k + search_bound.

    Returns (l0 or None, DeltaCohomologyTable).  None is the not-found
    sentinel; the table is returned either way.
    """
    if search_bound < 0:
        raise PreconditionError("search_bound must be >= 0")
    k = sys.order
    max_order = k + search_bound + sys.n + 2
    cx = spencer_complex(sys, max_order=max_order)
    table = delta_cohomology(cx)
    for ell in range(0, search_bound + 1):
        if table.is_zero_for(k + ell, max_order - 1):
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
    largest order with a nonzero symbol, is its length minus 2."""
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    return list(islice(symbol_dimensions(sys), sys.order + bound + 1))


def is_finite_type(sys: PdeSystem, bound=6):
    """(finite, l0): finite iff some symbol space vanishes within the bound."""
    dims = finite_type_dimensions(sys, bound)
    return (True, len(dims) - 2) if dims[-1] == 0 else (False, None)


def solution_dim_bound(sys: PdeSystem) -> int:
    """Sum of symbol dimensions through the stabilization order, searched up
    to the system order plus 6: the upper bound on dim Sol, exact for flat
    closed systems."""
    dims = finite_type_dimensions(sys)
    if dims[-1]:
        raise PreconditionError("solution_dim_bound requires a finite-type system")
    return sum(dims)


def poincare_series(sys: PdeSystem, max_k=8):
    """Coefficient at z^k = growth of the solution-jet fiber = dim g^k."""
    return list(islice(chain(symbol_dimensions(sys), repeat(0)), max_k + 1))


# -- finite type -> flat connection ------------------------------------------


class FlatConnectionSystem(namedtuple("FlatConnectionSystem",
                                      "rank variables coordinates connection_matrices")):
    """coordinates: the jet labels (a, alpha) forming the fiber basis;
    connection_matrices: var name -> rank x rank matrix of MultiPoly."""

    __slots__ = ()

    def matrix(self, var):
        return self.connection_matrices[var]


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
    solved jet and each expression runs over unsolved jets only (the
    invariant of linalg._gauss_jordan).  Returns (solved, leftovers): solved
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


# -- logarithmic complexes -----------------------------------------------------


class LogSpencerComplex(namedtuple("LogSpencerComplex",
                                   "n rank divisor_axes degree_bound spaces differentials ranks")):
    """spaces: p -> dimension; differentials: p -> ExactMatrix C_p -> C_{p-1};
    ranks: p -> rank of that differential."""

    __slots__ = ()

    def euler_characteristic(self):
        return sum((-1) ** p * d for p, d in self.spaces.items())


def build_log_spencer(module_rank, n, divisor_axes, depth, degree_bound=3):
    """Chain complex Lambda^p(theta_1..theta_n) (x) M on a truncated free
    module, with logarithmic generators x_i d_i on divisor axes and plain
    d_j elsewhere.

    The differential is the three-term formula specialized along the
    augmentation: module-action terms plus the Lie bracket term; the
    generators here commute pairwise (each touches a single axis), and the
    construction asserts that, so the bracket term contributes zero and
    delta^2 = 0 exactly.
    """
    divisor_axes = tuple(sorted(set(divisor_axes)))
    for i in divisor_axes:
        if not 1 <= i <= n:
            raise PreconditionError(f"divisor axis {i} out of range 1..{n}")
    monos = [g for q in range(degree_bound + 1) for g in multiindices(n, q)]
    mono_pos = {g: i for i, g in enumerate(monos)}
    mdim = len(monos) * module_rank

    def theta_matrix(axis):
        # action on monomials: x_i d_i preserves degree, d_j lowers it
        log = (axis + 1) in divisor_axes
        rows = [{} for _ in range(mdim)]
        for gi, g in enumerate(monos):
            if g[axis] == 0:
                continue
            if log:
                ti = gi
            else:
                tg = list(g)
                tg[axis] -= 1
                ti = mono_pos[tuple(tg)]
            for r in range(module_rank):
                rows[ti * module_rank + r][gi * module_rank + r] = g[axis]
        return ExactMatrix.sparse(rows, mdim)

    thetas = [theta_matrix(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if thetas[i] @ thetas[j] != thetas[j] @ thetas[i]:
                raise AssertionError("generator bracket failed to vanish")

    top = min(n, depth)
    spaces = {}
    diffs = {}
    subsets = {p: list(combinations(range(n), p)) for p in range(top + 1)}
    for p in range(top + 1):
        spaces[p] = len(subsets[p]) * mdim
    for p in range(1, top + 1):
        src = subsets[p]
        dst = {s: k for k, s in enumerate(subsets[p - 1])}
        rows = [{} for _ in range(len(subsets[p - 1]) * mdim)]
        for si, S in enumerate(src):
            for l, axis in enumerate(S):
                # omit axis l: sign (-1)^l, bracket terms are zero here
                ti = dst[S[:l] + S[l + 1 :]]
                act = thetas[axis]
                for rr in range(mdim):
                    for cc, v in act.row(rr).items():
                        rows[ti * mdim + rr][si * mdim + cc] = v if l % 2 == 0 else -v
        diffs[p] = ExactMatrix.sparse(rows, len(src) * mdim)
    for p in range(2, top + 1):
        prod = diffs[p - 1] @ diffs[p]
        if not prod.is_zero():
            raise AssertionError(f"log differential squared nonzero at p={p}")
    ranks = {p: d.rank() for p, d in diffs.items()}
    return LogSpencerComplex(
        n, module_rank, divisor_axes, degree_bound, spaces, diffs, ranks
    )
