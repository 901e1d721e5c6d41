"""Named PDE systems that only the tests build.

The library keeps the systems its scripts run (laplace, Cauchy-Riemann,
Tricomi); these constructors and the change of variables that checks
coordinate invariance are test fixtures.
"""

from fractions import Fraction

from spencerlab.errors import PreconditionError
from spencerlab.poly import MultiPoly
from spencerlab.systems import PdeSystem, make_system


def wave_system():
    return make_system(("t", "x"), ("u",), [[(1, 0, (2, 0)), (-1, 0, (0, 2))]], name="wave")


def heat_system():
    return make_system(("t", "x"), ("u",), [[(1, 0, (1, 0)), (-1, 0, (0, 2))]], name="heat")


def dx_system(n=1):
    names = ("x",) if n == 1 else tuple(f"x{i+1}" for i in range(n))
    return make_system(names, ("u",), [[(1, 0, tuple(1 if i == 0 else 0 for i in range(n)))]], name="dx")


def gradient_system():
    """u_x = 0, u_y = 0 on the plane."""
    return make_system(
        ("x", "y"), ("u",), [[(1, 0, (1, 0))], [(1, 0, (0, 1))]], name="gradient"
    )


def free_system(n, m, order):
    names = tuple(f"x{i+1}" for i in range(n))
    us = tuple(f"u{j+1}" for j in range(m))
    return PdeSystem(names, us, order, [], name=f"free_{n}_{m}")


def first_order_flat_system(a_matrix):
    """u_x = A u on the line, A a constant m x m rational matrix."""
    m = len(a_matrix)
    eqs = []
    for i in range(m):
        spec = [(1, i, (1,))]
        for j in range(m):
            spec.append((-Fraction(a_matrix[i][j]), j, (0,)))
        eqs.append(spec)
    return make_system(("x",), tuple(f"u{j+1}" for j in range(m)), eqs, name="flat_ode")


def linear_change_of_vars(sys: PdeSystem, a_rows):
    """Pull a constant-coefficient system back along x -> A x (A invertible).

    Derivatives transform by the transpose: each homogeneous part of each
    equation is rewritten via its symbol polynomial under xi -> A^T xi.
    """
    if not sys.constant_coefficient:
        raise PreconditionError("change of variables implemented for constant coefficients")
    n = sys.n
    xi_names = tuple(f"xi{i+1}" for i in range(n))
    xi = [MultiPoly.variable(xi_names, nm) for nm in xi_names]
    images = {
        xi_names[i]: sum(
            (xi[j] * Fraction(a_rows[i][j]) for j in range(n)),
            MultiPoly.zero(xi_names),
        )
        for i in range(n)
    }
    new_eqs = []
    for eq in sys.equations:
        poly_per_unknown = {}
        for (a, alpha), coeff in eq.terms.items():
            mono = MultiPoly.monomial(xi_names, alpha, coeff.constant_coefficient())
            poly_per_unknown[a] = poly_per_unknown.get(a, MultiPoly.zero(xi_names)) + mono
        spec = []
        for a, poly in poly_per_unknown.items():
            sub = poly.substitute(images)
            for mono, c in sub.terms.items():
                spec.append((c, a, mono))
        new_eqs.append(spec)
    return make_system(sys.indep_vars, sys.unknowns, new_eqs, order=sys.order,
                       base_point=sys.base_point, name=sys.name + "_chg")
