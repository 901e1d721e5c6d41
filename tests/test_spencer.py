import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spencerlab import spencer
from spencerlab.cli import main
from spencerlab.dsl import parse_pde_dsl
from spencerlab.errors import DegenerateSymbolError, ObstructionError, PreconditionError
from spencerlab.linalg import ExactMatrix
from spencerlab.spencer import (
    _assert_delta_squared,
    delta_cohomology,
    finite_type_dimensions,
    involutivity_degree,
    is_finite_type,
    poincare_series,
    spencer_complex,
    to_flat_connection,
)
from spencerlab.symbols import basis_index, shift_vector, sym_basis, symbol_space
from spencerlab.systems import add_index, laplace_system, make_system, tricomi_system
from spencerlab.poly import MultiPoly
from spencerlab.scalars import QQi

from named_systems import (
    first_order_flat_system,
    free_system,
    gradient_system,
    heat_system,
    linear_change_of_vars,
    wave_system,
)


# -- geometric symbols ----------------------------------------------------------


def test_laplace_symbol_dimension():
    # ambient dim 3 at order 2, one independent condition
    g2 = symbol_space(laplace_system(), 2)
    assert g2.ambient_dim == 3
    assert g2.dim == 2


def test_gradient_symbol_vanishes():
    assert symbol_space(gradient_system(), 1).dim == 0


def test_free_symbol_is_ambient():
    g = symbol_space(free_system(2, 1, 2), 2)
    assert g.dim == g.ambient_dim == 3


def test_degenerate_symbol_error():
    y = MultiPoly.variable(("x", "y"), "y")
    sys = make_system(("x", "y"), ("u",), [[(y, 0, (2, 0))]])
    for q in (2, 3):
        with pytest.raises(DegenerateSymbolError, match="x = 0, y = 0; a `point` line"):
            symbol_space(sys, q)  # base point (0,0) kills y*u_xx
    assert symbol_space(sys, 1).dim == 2  # below the system order there is no row


def test_tricomi_symbol_at_origin_not_degenerate():
    # u_yy survives at y = 0
    assert symbol_space(tricomi_system(), 2).dim == 2


# -- prolongation -----------------------------------------------------------------


def test_symbol_coordinates_check_membership():
    # coordinates are the basis coefficients times the kernel's scale: 1 for
    # u_xx + u_yy = 0, and 2 for 2 u_xx + 3 u_yy = 0, whose basis vector of
    # the free column u_yy is (-3, 0, 2)
    scaled = parse_pde_dsl("system s { vars x, y; unknowns u; "
                           "eq: 2*D[x,x](u) + 3*D[y,y](u) = 0; }").systems["s"]
    for sys, scale in ((laplace_system(), 1), (scaled, 2)):
        g2 = symbol_space(sys, 2)
        assert g2.kernel[0] == scale
        for k, v in enumerate(g2.basis):
            assert g2.coordinates(v) == [scale * (k == l) for l in range(g2.dim)]
        outside = [1] + [0] * (g2.ambient_dim - 1)  # u_xx alone is in neither space
        assert g2.coordinates(outside) is None
    assert g2.basis == [[0, 2, 0], [-3, 0, 2]]


def test_prolong_zero_stays_zero():
    assert symbol_space(gradient_system(), 4).dim == 0


def test_prolong_laplace_harmonic_count():
    # degree-3 and degree-4 harmonics in two variables form 2-dim spaces
    assert symbol_space(laplace_system(), 3).dim == 2
    assert symbol_space(laplace_system(), 4).dim == 2


def test_prolong_full_jet():
    g = symbol_space(free_system(2, 1, 2), 3)
    assert g.dim == g.ambient_dim == 4


def test_prolongation_matches_direct_symbol():
    # g^{q+1} = (g^q)^(1) from the system order on: t is in g^{q+1} iff
    # every shift_j t is in g^q.  The prolongation is built here as the
    # kernel of the rows phi o shift_j, phi a row of g^q's presentation.
    for sys in (laplace_system(), wave_system(), gradient_system(), heat_system()):
        n, m = sys.n, sys.m
        for q in range(sys.order, sys.order + 2):
            lo, hi = symbol_space(sys, q), symbol_space(sys, q + 1)
            raised = basis_index(n, m, q + 1)
            # raise_j[j][c]: the column of e_j times degree-q basis element c
            raise_j = [[raised[(a, add_index(gamma, j))] for a, gamma in sym_basis(n, m, q)]
                       for j in range(n)]
            rows = [{raise_j[j][c]: x for c, x in lo.presentation.row(i).items()}
                    for j in range(n) for i in range(lo.presentation.rows)]
            prolonged = ExactMatrix.sparse(rows, hi.ambient_dim)
            assert hi.dim == hi.ambient_dim - prolonged.rank()
            for v in hi.basis:
                assert all(lo.coordinates(shift_vector(v, n, m, q + 1, j)) is not None
                           for j in range(n))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2))
def test_prolongation_monotonicity(n, m, k):
    # the growth bound dim g^{q+1} <= n dim g^q
    sys = free_system(n, m, k)
    for q in range(k, k + 2):
        assert symbol_space(sys, q + 1).dim <= n * symbol_space(sys, q).dim


# -- Spencer complexes and cohomology ----------------------------------------------


def test_delta_squared_laplace():
    spencer_complex(laplace_system(), max_order=4)  # asserts internally


def test_corrupted_differential_fails_delta_squared():
    cx = spencer_complex(free_system(2, 1, 1), max_order=3)
    d, nxt = cx.differentials[(2, 0)], cx.differentials[(1, 1)]
    # bump an entry of d in a row that nxt reads, so nxt @ d picks it up
    r = next(c for i in range(nxt.rows) for c in nxt.row(i))
    rows = [dict(d.row(i)) for i in range(d.rows)]
    rows[r][0] = rows[r].get(0, 0) + 1
    cx.differentials[(2, 0)] = ExactMatrix.sparse(rows, d.cols)
    with pytest.raises(AssertionError, match=r"delta\^2 != 0 at slot \(2, 0\)"):
        _assert_delta_squared(cx)


def test_gaussian_differentials_stay_over_the_gaussian_integers():
    # the complex never leaves Z[i]: each entry is an int or a QQi with int parts
    sys = parse_pde_dsl("system g { vars x, y, z; unknowns u, v; "
                        "eq: D[x](u) + 1/2*i*D[y](v) - 2/3*D[z](u) = 0; "
                        "eq: D[z](v) - 3*i*D[x](u) + i*D[y](u) = 0; }").systems["g"]
    cx = spencer_complex(sys, 3)
    entries = [x for d in cx.differentials.values() for i in range(d.rows)
               for x in d.row(i).values()]
    assert {type(x) for x in entries} == {int, QQi}
    assert all(type(x.real) is int and type(x.imag) is int for x in entries)
    assert [cx.symbols[q].kernel[0] for q in range(4)] == [1, 6, 18, 162]
    table = delta_cohomology(cx)
    assert table.entries[(0, 1)] == 2 and table.is_zero_for(1, 2)


def test_each_differential_ranked_once(monkeypatch):
    calls = Counter()
    rank = ExactMatrix.rank

    def counting_rank(self):
        calls[id(self)] += 1
        return rank(self)

    monkeypatch.setattr(ExactMatrix, "rank", counting_rank)
    cx = spencer_complex(laplace_system(), max_order=4)
    table = delta_cohomology(cx)
    assert table.entries.get((1, 1), 0) == 1
    # every symbol dimension read, as the spencer command reports them all
    assert [cx.symbols[q].dim for q in range(5)] == [1, 2, 2, 2, 2]
    ranked = list(cx.differentials.values())
    ranked += [space.presentation for space in cx.symbols.values()]
    assert sorted(calls) == sorted(id(m) for m in ranked)
    assert set(calls.values()) == {1}


def test_free_module_cohomology_vanishes():
    cx = spencer_complex(free_system(2, 1, 1), max_order=4)
    table = delta_cohomology(cx)
    assert table.is_zero_for(1, 3)
    assert table.entries.get((0, 0), 0) == 1


def test_gradient_cohomology_euler():
    cx = spencer_complex(gradient_system(), max_order=3)
    table = delta_cohomology(cx)
    assert table.entries.get((0, 0), 0) == 1
    assert all(d == 0 for (q, i), d in table.entries.items() if q >= 1)
    # rank-nullity: alternating sums over H and over the spaces agree
    chi_spaces = sum(
        (-1) ** i * cx.space_dim(q, i) for q in range(0, 3) for i in range(0, 3)
    )
    chi_h = sum((-1) ** i * d for (q, i), d in table.entries.items())
    assert chi_h == chi_spaces == 0


def test_exponential_solution_cohomology():
    # u_x = u, u_y = 0: solutions c*e^x, so H^{0,0} = 1
    sys = make_system(
        ("x", "y"), ("u",), [[(1, 0, (1, 0)), (-1, 0, (0, 0))], [(1, 0, (0, 1))]]
    )
    table = delta_cohomology(spencer_complex(sys, max_order=3))
    assert table.entries.get((0, 0), 0) == 1


def test_laplace_h20_is_symbol():
    table = delta_cohomology(spencer_complex(laplace_system(), max_order=4))
    assert table.entries.get((2, 0), 0) == 0  # no kernel at i=0 once q >= 1
    # the generator slot of the order-2 equation:
    assert table.entries.get((1, 1), 0) == 1


def test_euler_characteristic_invariance():
    for sys in (laplace_system(), gradient_system(), free_system(2, 2, 1)):
        cx = spencer_complex(sys, max_order=4)
        table = delta_cohomology(cx)
        for q_top in range(1, 4):
            # alternating sum over the complex of total degree q_top
            chi_spaces = sum((-1) ** i * cx.space_dim(q_top - i, i) for i in range(cx.n + 1))
            chi_h = sum(
                (-1) ** i * table.entries.get((q_top - i, i), 0) for i in range(0, cx.n + 1)
            )
            assert chi_spaces == chi_h


# -- involutivity -------------------------------------------------------------------


def test_involutivity_free():
    l0, _ = involutivity_degree(free_system(2, 1, 1), search_bound=3)
    assert l0 == 0


def test_involutivity_laplace():
    l0, _ = involutivity_degree(laplace_system(), search_bound=3)
    assert l0 == 0


def test_involutivity_needs_prolongation():
    sys = make_system(("x", "y"), ("u",), [[(1, 0, (2, 0))], [(1, 0, (0, 2))]])
    l0, table = involutivity_degree(sys, search_bound=3)
    assert l0 == 1
    assert table.entries.get((2, 2), 0) == 1  # obstruction at the unprolonged level


def test_involutivity_sentinel_when_bound_too_small():
    sys = make_system(("x", "y"), ("u",), [[(1, 0, (2, 0))], [(1, 0, (0, 2))]])
    l0, table = involutivity_degree(sys, search_bound=0)
    assert l0 is None and table is not None


# -- finite type --------------------------------------------------------------------


def test_finite_type_gradient():
    assert is_finite_type(gradient_system()) == (True, 0)


def test_laplace_not_finite_type():
    assert is_finite_type(laplace_system(), bound=5) == (False, None)


def test_frobenius_finite_type():
    y = MultiPoly.variable(("x", "y"), "y")
    x = MultiPoly.variable(("x", "y"), "x")
    sys = make_system(
        ("x", "y"),
        ("u",),
        [[(1, 0, (1, 0)), (-y, 0, (0, 0))], [(1, 0, (0, 1)), (-x, 0, (0, 0))]],
    )
    assert is_finite_type(sys) == (True, 0)


def test_solution_dim_bounds():
    assert sum(finite_type_dimensions(gradient_system())) == 1
    uxx = make_system(("x",), ("u",), [[(1, 0, (2,))]])
    assert sum(finite_type_dimensions(uxx)) == 2  # a + b x
    assert finite_type_dimensions(laplace_system())[-1] != 0


# -- Poincare series -----------------------------------------------------------------


def test_poincare_free():
    assert poincare_series(free_system(2, 1, 1), 5) == [1, 2, 3, 4, 5, 6]


def test_poincare_laplace():
    assert poincare_series(laplace_system(), 6) == [1, 2, 2, 2, 2, 2, 2]


def test_poincare_finite_type():
    assert poincare_series(gradient_system(), 4) == [1, 0, 0, 0, 0]


def test_finite_type_series_sum_matches_bound():
    sys = gradient_system()
    series = poincare_series(sys, 6)
    assert sum(series) == sum(finite_type_dimensions(sys))


# -- flat connections ----------------------------------------------------------------


def test_ode_flat_connection():
    sys = make_system(("x",), ("u",), [[(1, 0, (1,)), (-1, 0, (0,))]])
    flat = to_flat_connection(sys)
    assert flat.rank == 1
    a = flat.connection_matrices["x"]
    assert a[0][0].constant_coefficient() == 1


def test_flat_connection_xy_coefficients():
    y = MultiPoly.variable(("x", "y"), "y")
    x = MultiPoly.variable(("x", "y"), "x")
    sys = make_system(
        ("x", "y"),
        ("u",),
        [[(1, 0, (1, 0)), (-y, 0, (0, 0))], [(1, 0, (0, 1)), (-x, 0, (0, 0))]],
    )
    flat = to_flat_connection(sys)
    assert flat.rank == 1
    assert flat.connection_matrices["x"][0][0] == y
    assert flat.connection_matrices["y"][0][0] == x


def test_flat_connection_rank_two():
    uxx = make_system(("x",), ("u",), [[(1, 0, (2,))]])
    flat = to_flat_connection(uxx)
    assert flat.rank == 2


def test_curvature_obstruction():
    y = MultiPoly.variable(("x", "y"), "y")
    sys = make_system(
        ("x", "y"), ("u",), [[(1, 0, (1, 0)), (-y, 0, (0, 0))], [(1, 0, (0, 1))]]
    )
    with pytest.raises(ObstructionError) as err:
        to_flat_connection(sys)
    assert err.value.obstruction is not None


def test_random_flat_ode_matches_rank():
    rng = random.Random(7)
    for m in (1, 2, 3, 4):
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        sys = first_order_flat_system(a)
        assert is_finite_type(sys)[0]
        assert sum(finite_type_dimensions(sys)) == m
        assert to_flat_connection(sys).rank == m


def test_non_finite_type_rejected():
    with pytest.raises(PreconditionError):
        to_flat_connection(laplace_system())


def test_finite_type_bound_reaches_every_field(capsys, tmp_path):
    # the symbol of u_{x^8} = u_{y^8} = 0 dies at order 15 = 8 + 7
    pde = tmp_path / "m8.pde"
    pde.write_text("system m8 { vars x, y; unknowns u; "
                   "eq: D[x,x,x,x,x,x,x,x](u) = 0; eq: D[y,y,y,y,y,y,y,y](u) = 0; }")
    assert main(["finite-type", str(pde), "--bound", "7", "--connection"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["l0"], result["solution_dimension_bound"], result["flat_rank"]) == (14, 64, 64)
    assert main(["finite-type", str(pde), "--bound", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["finite_type"] is False


def test_finite_type_connection_builds_few_symbol_spaces(capsys, tmp_path, monkeypatch):
    # one dimension sequence g^0, g^1, g^2 = 0 for the report, one for the connection
    orders = []

    def counting_symbol_space(sys, q):
        orders.append(q)
        return symbol_space(sys, q)

    monkeypatch.setattr(spencer, "symbol_space", counting_symbol_space)
    pde = tmp_path / "killing.pde"
    pde.write_text(KILLING)
    assert main(["finite-type", str(pde), "--connection"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["flat_rank"] == 6
    assert len(orders) <= 6
    assert set(orders) == {0, 1, 2}


# -- the flat connection against the former elimination --------------------------------
#
# The connection was computed by the elimination and curvature check below
# (clear each pivot from the pending rows only, then back-substitute the
# stored expressions to a fixpoint; full products [A_i A_j], [A_j A_i]).
# They stay here as an oracle: the Gauss-Jordan elimination and the direct
# curvature pass must return the same fibers, matrices and obstructions.


def _former_solve_by_constant_pivots(rows, solve_cols, all_cols, variables):
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


def _former_check_flatness(matrices, variables, rank, zero):
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


def _flat_outcome(sys_):
    """(rank, fiber, matrices) of the connection, or its obstruction."""
    try:
        flat = to_flat_connection(sys_)
    except ObstructionError as exc:
        return str(exc), exc.obstruction
    return flat.rank, flat.coordinates, flat.connection_matrices


def _former_flat_outcome(sys_):
    def solve(rows):
        cols = sorted({c for r in rows for c in r})
        variables = next(iter(rows[0].values())).vars
        solved, _, unsolvable = _former_solve_by_constant_pivots(rows, cols, cols, variables)
        return solved, unsolvable

    def check(matrices, variables, rank):
        _former_check_flatness(matrices, variables, rank, MultiPoly.zero(variables))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spencer, "_solve_by_constant_pivots", solve)
        patch.setattr(spencer, "_check_flatness", check)
        return _flat_outcome(sys_)


KILLING = """
system killing {
  vars x, y, z; unknowns u, v, w;
  eq: D[x](u) = 0; eq: D[y](v) = 0; eq: D[z](w) = 0;
  eq: D[y](u) + D[x](v) = 0; eq: D[z](u) + D[x](w) = 0; eq: D[z](v) + D[y](w) = 0;
}
"""
FLAT_DOCUMENT = KILLING + """
system airy { vars x; unknowns u, v; eq: D[x](u) - v = 0; eq: D[x](v) - x*u = 0; }
system cubes { vars x, y; unknowns u; eq: D[x,x,x](u) = 0; eq: D[y,y,y](u) = 0; }
system mixed { vars x, y; unknowns u; eq: D[x,x](u) - u = 0; eq: D[y](u) - D[x](u) = 0; }
system frobenius { vars x, y; unknowns u; eq: D[x](u) - y*u = 0; eq: D[y](u) - x*u = 0; }
system curved { vars x, y; unknowns u; eq: D[x](u) - y*u = 0; eq: D[y](u) = 0; }
system pivot { vars x, y; unknowns u; eq: x*D[x](u) + D[x](u) = 0; eq: D[y](u) = 0; }
system grad { vars x, y; unknowns u; eq: D[x](u) = 0; eq: D[y](u) = 0; }
system uxx { vars x; unknowns u; eq: D[x,x](u) = 0; }
"""
FLAT_SYSTEMS = parse_pde_dsl(FLAT_DOCUMENT).systems


def _first_order_pair(a, b):
    """u_x = A u and u_y = B u on the plane: flat iff A and B commute."""
    m = len(a)
    return make_system(("x", "y"), tuple(f"u{i+1}" for i in range(m)), [
        [(1, i, alpha)] + [(-mat[i][j], j, (0, 0)) for j in range(m)]
        for alpha, mat in (((1, 0), a), ((0, 1), b)) for i in range(m)
    ])


@pytest.mark.parametrize("name", sorted(FLAT_SYSTEMS))
def test_flat_connection_matches_former_elimination(name):
    sys_ = FLAT_SYSTEMS[name]
    assert _flat_outcome(sys_) == _former_flat_outcome(sys_)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_flat_connections_match_former_elimination(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)] for _ in range(m)]
    sys_ = first_order_flat_system(a)
    assert _flat_outcome(sys_) == _former_flat_outcome(sys_)
    # B = c A + d I commutes with A; a random B almost never does
    c, d = rng.randint(-2, 2), rng.randint(-2, 2)
    commuting = [[c * a[i][j] + d * (i == j) for j in range(m)] for i in range(m)]
    other = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
    for b in (commuting, other):
        pair = _first_order_pair(a, b)
        assert _flat_outcome(pair) == _former_flat_outcome(pair)


# -- coordinate invariance -------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_coordinate_invariance(seed):
    rng = random.Random(seed)
    while True:
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        if a[0][0] * a[1][1] - a[0][1] * a[1][0] != 0:
            break
    sys = laplace_system()
    changed = linear_change_of_vars(sys, a)
    assert poincare_series(changed, 4) == poincare_series(sys, 4)
    t1 = delta_cohomology(spencer_complex(sys, max_order=4)).entries
    t2 = delta_cohomology(spencer_complex(changed, max_order=4)).entries
    assert t1 == t2
    assert involutivity_degree(changed, 2)[0] == involutivity_degree(sys, 2)[0]
