"""Linear PDE systems in jet coordinates.

An equation is a finite sum of (polynomial coefficient in the independent
variables) x (jet coordinate u^a_alpha), written as a map
(unknown index, multi-index) -> MultiPoly.  Systems carry a rational base
point at which variable-coefficient symbols are evaluated.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import PreconditionError
from .poly import MultiPoly
from .scalars import QQi


def multiindices(n, degree):
    """All multi-indices of given total degree, deterministic order."""
    if n == 0:
        return [()] if degree == 0 else []
    out = []
    for first in range(degree, -1, -1):
        for rest in multiindices(n - 1, degree - first):
            out.append((first,) + rest)
    return out


def add_index(alpha, j):
    beta = list(alpha)
    beta[j] += 1
    return tuple(beta)


class Equation:
    """One linear equation: sum of coeff(x) * u^a_alpha."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {}
        for (a, alpha), coeff in terms.items():
            if coeff:
                self.terms[(a, tuple(alpha))] = coeff

    def order(self):
        if not self.terms:
            return -1
        return max(sum(alpha) for (_, alpha) in self.terms)

    def principal_terms(self):
        k = self.order()
        return {key: c for key, c in self.terms.items() if sum(key[1]) == k}

    def total_derivative(self, var_name):
        """Prolong by d/dx_j: differentiates coefficients and shifts jets."""
        out = {}
        j = None
        for (a, alpha), coeff in self.terms.items():
            if j is None:
                j = coeff.vars.index(var_name)
            up = (a, add_index(alpha, j))
            out[up] = out.get(up, MultiPoly.zero(coeff.vars)) + coeff
            dc = coeff.derivative(var_name)
            if dc:
                out[(a, alpha)] = out.get((a, alpha), MultiPoly.zero(coeff.vars)) + dc
        return Equation(out)

    def __eq__(self, other):
        return isinstance(other, Equation) and self.terms == other.terms

    def __repr__(self):
        bits = []
        for (a, alpha), c in sorted(self.terms.items()):
            bits.append(f"({c!r})*u{a}_{''.join(map(str, alpha))}")
        return " + ".join(bits) or "0"


class PdeSystem(namedtuple("PdeSystem", "indep_vars unknowns order equations base_point name")):
    __slots__ = ()

    def __new__(cls, indep_vars, unknowns, order, equations, base_point=None, name=""):
        indep_vars, unknowns = tuple(indep_vars), tuple(unknowns)
        if base_point is None:
            base_point = [0] * len(indep_vars)
        base_point = tuple(Fraction(b) for b in base_point)
        if order < 1:
            raise PreconditionError("system order must be >= 1")
        if equations:
            top = max(eq.order() for eq in equations)
            if top != order:
                raise PreconditionError(f"declared order {order} but equations attain {top}")
            for eq in equations:
                for (a, alpha) in eq.terms:
                    if a >= len(unknowns):
                        raise PreconditionError(f"unknown index {a} out of range")
                    if sum(alpha) > order:
                        raise PreconditionError("jet order exceeds system order")
        return super().__new__(cls, indep_vars, unknowns, order, equations, base_point, name)

    @property
    def n(self):
        return len(self.indep_vars)

    @property
    def m(self):
        return len(self.unknowns)

    def point_map(self):
        """The base point as {variable: Fraction}, where symbols are evaluated."""
        return dict(zip(self.indep_vars, self.base_point))


def make_system(indep_vars, unknowns, eq_specs, order=None, base_point=None, name=""):
    """eq_specs: list of lists of (coeff, unknown index, multi-index)."""
    indep_vars = tuple(indep_vars)
    eqs = []
    for spec in eq_specs:
        terms = {}
        for coeff, a, alpha in spec:
            if not isinstance(coeff, MultiPoly):
                coeff = MultiPoly.constant(indep_vars, coeff)
            key = (a, tuple(alpha))
            terms[key] = terms.get(key, MultiPoly.zero(indep_vars)) + coeff
        eqs.append(Equation(terms))
    if order is None:
        order = max((eq.order() for eq in eqs), default=1)
        order = max(order, 1)
    return PdeSystem(indep_vars, tuple(unknowns), order, eqs, base_point, name)


# -- classical systems used by the scripts ------------------------------------


def laplace_system():
    return make_system(("x", "y"), ("u",), [[(1, 0, (2, 0)), (1, 0, (0, 2))]], name="laplace")


def cauchy_riemann_system():
    half = Fraction(1, 2)
    return make_system(
        ("x", "y"),
        ("u",),
        [[(half, 0, (1, 0)), (QQi(0, half), 0, (0, 1))]],
        name="cauchy_riemann",
    )


def tricomi_system():
    y = MultiPoly.variable(("x", "y"), "y")
    return make_system(
        ("x", "y"), ("u",), [[(y, 0, (2, 0)), (1, 0, (0, 2))]], name="tricomi"
    )


def external_product(*factors: PdeSystem):
    """External product of scalar systems on disjoint variable blocks:
    factor i lives on the variables {v}{i+1}."""
    if any(f.m != 1 for f in factors):
        raise PreconditionError("external products implemented for scalar systems")
    blocks = [tuple(f"{v}{i+1}" for v in f.indep_vars) for i, f in enumerate(factors)]
    joint = tuple(v for block in blocks for v in block)
    eqs, offset = [], 0
    for f, block in zip(factors, blocks):
        pad = len(joint) - offset - f.n
        for eq in f.equations:
            eqs.append([(c.rename(block).extend(joint), 0, (0,) * offset + alpha + (0,) * pad)
                        for (_, alpha), c in eq.terms.items()])
        offset += f.n
    return make_system(
        joint,
        ("w",),
        eqs,
        order=max(f.order for f in factors),
        base_point=tuple(x for f in factors for x in f.base_point),
        name="_x_".join(f.name or "sys" for f in factors),
    )
