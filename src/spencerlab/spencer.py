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

from dataclasses import dataclass, field
from itertools import combinations

from .errors import ObstructionError, PreconditionError
from .linalg import ExactMatrix
from .poly import MultiPoly
from .scalars import QQi
from .symbols import shift_vector, symbol_space
from .systems import PdeSystem, add_index, multiindices


def _wedge_sign(j, subset):
    """Sign of dx_j ^ dx_S relative to the ascending basis of S + {j}."""
    return -1 if sum(1 for s in subset if s < j) % 2 else 1


@dataclass
class SpencerComplex:
    n: int
    m: int
    max_order: int
    symbols: dict  # q -> SymbolSpace
    differentials: dict = field(default_factory=dict)  # (q, i) -> ExactMatrix
    ranks: dict = field(default_factory=dict)  # (q, i) -> rank of that differential

    def space_dim(self, q, i):
        if q < 0 or q > self.max_order or i < 0 or i > self.n:
            return 0
        from math import comb

        return self.symbols[q].dim * comb(self.n, i)

    def euler_characteristic_row(self, q_top):
        """Alternating sum over the complex of total degree q_top."""
        return sum(
            (-1) ** i * self.space_dim(q_top - i, i) for i in range(0, self.n + 1)
        )


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


def spencer_complex(sys: PdeSystem, max_order=None, point=None) -> SpencerComplex:
    """Assemble symbol spaces, delta maps and their ranks; delta^2 = 0 is asserted."""
    n = sys.n
    if max_order is None:
        max_order = sys.order + 2
    if max_order < sys.order and sys.equations:
        raise PreconditionError("max_order must be at least the system order")
    symbols = {q: symbol_space(sys, q, point) for q in range(max_order + 1)}
    cx = SpencerComplex(n, sys.m, max_order, symbols)
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


@dataclass
class DeltaCohomologyTable:
    entries: dict  # (q, i) -> dim H^{q,i}
    max_order: int

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


def involutivity_degree(sys: PdeSystem, search_bound=6, window=None, point=None):
    """Smallest l0 <= search_bound with vanishing delta-cohomology at and
    above order k + l0, checked by brute-force ranks on a stability window.

    Returns (l0 or None, DeltaCohomologyTable).  None is the not-found
    sentinel; the table is returned either way.
    """
    if search_bound < 0:
        raise PreconditionError("search_bound must be >= 0")
    k = sys.order
    if window is None:
        window = sys.n + 2
    max_order = k + search_bound + window
    cx = spencer_complex(sys, max_order=max_order, point=point)
    table = delta_cohomology(cx)
    for ell in range(0, search_bound + 1):
        if table.is_zero_for(k + ell, max_order - 1):
            return ell, table
    return None, table


def is_finite_type(sys: PdeSystem, bound=6, point=None):
    """(finite, l0): finite iff some symbol space vanishes within the bound;
    l0 is then the largest order with a nonzero symbol."""
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    dims = []
    for q in range(0, sys.order + bound + 1):
        d = symbol_space(sys, q, point).dim
        dims.append(d)
        if d == 0:
            return True, q - 1
    return False, None


def solution_dim_bound(sys: PdeSystem, bound=6, point=None) -> int:
    """Sum of symbol dimensions through the stabilization order: the upper
    bound on dim Sol, exact for flat closed systems."""
    finite, l0 = is_finite_type(sys, bound, point)
    if not finite:
        raise PreconditionError("solution_dim_bound requires a finite-type system")
    return sum(symbol_space(sys, q, point).dim for q in range(0, l0 + 1))


def poincare_series(sys: PdeSystem, max_k=8, point=None):
    """Coefficient at z^k = growth of the solution-jet fiber = dim g^k."""
    return [symbol_space(sys, q, point).dim for q in range(0, max_k + 1)]


# -- finite type -> flat connection ------------------------------------------


@dataclass
class FlatConnectionSystem:
    rank: int
    variables: tuple
    coordinates: list  # jet labels (a, alpha) forming the fiber basis
    connection_matrices: dict  # var name -> rank x rank matrix of MultiPoly
    flatness_checked: bool = False

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


def _solve_by_constant_pivots(rows, solve_cols, all_cols, variables):
    """Gaussian elimination using unit (constant) pivots only.

    rows: list of dicts col -> MultiPoly.  Returns (expressions, leftovers):
    expressions maps each solved column to a dict over unsolved columns;
    leftovers are rows with no solve_col support left.
    """
    zero = MultiPoly.zero(variables)
    work = [dict(r) for r in rows]
    solved = {}
    solve_set = set(solve_cols)

    def pivot_rank(col):
        a, alpha = col
        return (-sum(alpha), a, alpha)

    progress = True
    while progress:
        progress = False
        for ri, row in enumerate(work):
            pivot_col = None
            for c in sorted(row, key=pivot_rank):
                if c in solve_set and c not in solved and row[c].is_constant() and row[c]:
                    pivot_col = c
                    break
            if pivot_col is None:
                continue
            pc = row[pivot_col].constant_coefficient()
            expr = {
                c: v * (QQi(-1) / pc)
                for c, v in row.items()
                if c != pivot_col and v
            }
            solved[pivot_col] = expr
            rest = work[:ri] + work[ri + 1 :]
            new_work = []
            for r2 in rest:
                if pivot_col in r2:
                    f = r2.pop(pivot_col)
                    for c, v in expr.items():
                        r2[c] = r2.get(c, zero) + f * v
                    r2 = {c: v for c, v in r2.items() if v}
                new_work.append(r2)
            work = new_work
            progress = True
            break
    # back-substitute solved columns inside the stored expressions
    changed = True
    while changed:
        changed = False
        for col, expr in solved.items():
            for c in list(expr):
                if c in solved:
                    f = expr.pop(c)
                    for c2, v2 in solved[c].items():
                        expr[c2] = expr.get(c2, zero) + f * v2
                    solved[col] = {k: v for k, v in expr.items() if v}
                    changed = True
    leftovers = [r for r in work if any(v for v in r.values())]
    unsolvable = [
        r for r in leftovers if any(c in solve_set and c not in solved for c in r)
    ]
    return solved, leftovers, unsolvable


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

    jets = [(a, alpha) for q in range(0, l0 + 1) for a in range(sys.m)
            for alpha in multiindices(n, q)]
    top_jets = [(a, alpha) for a in range(sys.m) for alpha in multiindices(n, l0 + 1)]

    eq_rows = []
    for eq in _prolonged_equations(sys, l0 + 1):
        eq_rows.append({key: c for key, c in eq.terms.items() if c})

    solved, leftovers, unsolvable = _solve_by_constant_pivots(
        eq_rows, top_jets + jets, jets + top_jets, variables
    )
    if unsolvable:
        raise ObstructionError(
            "jet elimination needs a non-constant pivot; no polynomial "
            "connection normal form",
            obstruction=unsolvable[0],
        )
    for key in top_jets:
        if key not in solved:
            # finite type guarantees the symbol dies; the affine solve must too
            raise ObstructionError(
                f"top jet {key} not determined by prolonged equations",
                obstruction=key,
            )

    fiber = [key for key in jets if key not in solved]
    index = {key: i for i, key in enumerate(fiber)}
    rank = len(fiber)

    def expression_of(key):
        """key as a linear combination over fiber coordinates."""
        if key in index:
            e = [zero] * rank
            e[index[key]] = MultiPoly.constant(variables, 1)
            return e
        expr = solved.get(key)
        if expr is None:
            raise ObstructionError(f"jet {key} escaped the elimination", obstruction=key)
        out = [zero] * rank
        for c, coeff in expr.items():
            if c in index:
                out[index[c]] = out[index[c]] + coeff
            else:
                sub = expression_of(c)
                for i2 in range(rank):
                    if sub[i2]:
                        out[i2] = out[i2] + coeff * sub[i2]
        return out

    matrices = {}
    for j, var in enumerate(variables):
        rows = []
        for (a, alpha) in fiber:
            rows.append(expression_of((a, add_index(alpha, j))))
        matrices[var] = rows

    _check_flatness(matrices, variables, rank, zero)
    return FlatConnectionSystem(rank, variables, fiber, matrices, True)


def _check_flatness(matrices, variables, rank, zero):
    def mat_mul(A, B):
        return [
            [
                sum((A[i][k] * B[k][j] for k in range(rank)), zero)
                for j in range(rank)
            ]
            for i in range(rank)
        ]

    def mat_d(A, v):
        return [[A[i][j].derivative(v) for j in range(rank)] for i in range(rank)]

    for i, vi in enumerate(variables):
        for j in range(i + 1, len(variables)):
            vj = variables[j]
            Ai, Aj = matrices[vi], matrices[vj]
            dAj = mat_d(Aj, vi)
            dAi = mat_d(Ai, vj)
            com1 = mat_mul(Ai, Aj)
            com2 = mat_mul(Aj, Ai)
            for r in range(rank):
                for c in range(rank):
                    curv = dAj[r][c] - dAi[r][c] - (com1[r][c] - com2[r][c])
                    if curv:
                        raise ObstructionError(
                            f"nonvanishing curvature in ({vi},{vj}) at entry "
                            f"({r},{c})",
                            obstruction=curv,
                        )


# -- logarithmic complexes -----------------------------------------------------


@dataclass
class LogSpencerComplex:
    n: int
    rank: int
    divisor_axes: tuple
    degree_bound: int
    spaces: dict  # p -> dimension
    differentials: dict  # p -> ExactMatrix C_p -> C_{p-1}
    ranks: dict  # p -> rank of that differential

    def homology_dims(self):
        return {
            p: self.spaces[p] - self.ranks.get(p, 0) - self.ranks.get(p + 1, 0)
            for p in sorted(self.spaces)
        }

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
