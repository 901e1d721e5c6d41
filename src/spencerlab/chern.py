"""Truncated cohomology rings of model spaces and characteristic classes.

Each model is a ring presented by degree-1 generators and their nilpotency
bounds, the largest exponent of each: the top degree is the sum of the
bounds, and integration extracts the coefficient of the monomial with every
generator at its bound.  Classes are exact polynomials in the generators,
reduced after every product, so index integrals come out as exact rationals
and integrality is a check rather than a hope.

The Todd class has one formula in every degree, whether the bundle is given
by Chern roots or by Chern classes: Td = exp(log Td), with
log Td = p_1/2 - sum_j B_2j p_2j / (2j (2j)!) in the power sums p_k of the
Chern roots (Hirzebruch, Topological Methods in Algebraic Geometry, section
1: the multiplicative sequence of x / (1 - e^{-x})).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

from .errors import PreconditionError
from .poly import MultiPoly


class CohomologyRingModel(namedtuple(
        "CohomologyRingModel", "name generators nilpotency tangent_classes")):
    """nilpotency: the largest exponent per degree-1 generator; tangent_classes:
    (c1, c2, ...) as generator polynomials.  The first generator is the
    hyperplane class that twist_class twists by."""

    __slots__ = ()

    @property
    def top_degree(self):
        return sum(self.nilpotency)

    def zero(self):
        return CharacterClass(self, MultiPoly.zero(self.generators))

    def unit(self):
        return CharacterClass(self, MultiPoly.constant(self.generators, 1))

    def generator_class(self, name):
        return CharacterClass(self, MultiPoly.variable(self.generators, name))

    def reduce_poly(self, poly: MultiPoly) -> MultiPoly:
        """Drop each monomial past a nilpotency bound, so past the top degree."""
        keep = {mono: c for mono, c in poly.terms.items()
                if all(e <= nil for e, nil in zip(mono, self.nilpotency))}
        return MultiPoly(self.generators, keep, _clean=False)

class CharacterClass:
    __slots__ = ("model", "poly")

    def __init__(self, model: CohomologyRingModel, poly: MultiPoly):
        self.model, self.poly = model, model.reduce_poly(poly)

    def _check(self, other):
        if isinstance(other, CharacterClass) and other.model.name != self.model.name:
            raise PreconditionError("classes live in different models")

    def __add__(self, other):
        self._check(other)
        if isinstance(other, CharacterClass):
            return CharacterClass(self.model, self.poly + other.poly)
        return CharacterClass(self.model, self.poly + other)

    def __sub__(self, other):
        self._check(other)
        if isinstance(other, CharacterClass):
            return CharacterClass(self.model, self.poly - other.poly)
        return CharacterClass(self.model, self.poly - other)

    def __mul__(self, other):
        self._check(other)
        if isinstance(other, CharacterClass):
            return CharacterClass(self.model, self.poly * other.poly)
        return CharacterClass(self.model, self.poly * other)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, CharacterClass)
            and self.model.name == other.model.name
            and self.poly == other.poly
        )

    def graded_component(self, degree):
        keep = {
            m: c
            for m, c in self.poly.terms.items()
            if sum(m) == degree
        }
        return CharacterClass(self.model, MultiPoly(self.model.generators, keep))

    def integrate(self):
        """Coefficient of the top monomial, every generator at its bound."""
        return self.poly.coefficient(self.model.nilpotency)

    def exp(self):
        """exp of a positive-degree class, truncated at the top degree."""
        if self.poly.constant_coefficient():
            raise PreconditionError("exp expects a positive-degree class")
        out = self.model.unit()
        term = self.model.unit()
        fact = 1
        for k in range(1, self.model.top_degree + 1):
            term = term * self
            fact *= k
            out = out + term * Fraction(1, fact)
        return out

    def __repr__(self):
        return f"CharacterClass[{self.model.name}]({self.poly!r})"


def _model_registry():
    models = {}

    def projective(n):
        gens = ("h",)
        return CohomologyRingModel(
            name=f"P{n}",
            generators=gens,
            nilpotency=(n,),
            # tangent classes via c(T) = (1+h)^{n+1} truncated
            tangent_classes=tuple(
                MultiPoly(gens, {(k,): Fraction(comb(n + 1, k))}) for k in range(1, n + 1)
            ),
        )

    for n in (1, 2, 3):
        m = projective(n)
        models[m.name] = m

    gens = ("t",)
    models["elliptic_curve"] = CohomologyRingModel(
        name="elliptic_curve",
        generators=gens,
        nilpotency=(1,),
        tangent_classes=(MultiPoly(gens, {}),),  # c1 = 0
    )

    gens = ("h",)
    models["S2"] = CohomologyRingModel(
        name="S2",
        generators=gens,
        nilpotency=(1,),
        tangent_classes=(MultiPoly(gens, {(1,): Fraction(2)}),),  # c1 = 2h = e(TS2)
    )

    gens = ("h1", "h2")
    models["P1xP1"] = CohomologyRingModel(
        name="P1xP1",
        generators=gens,
        nilpotency=(1, 1),
        tangent_classes=(
            MultiPoly(gens, {(1, 0): Fraction(2), (0, 1): Fraction(2)}),
            MultiPoly(gens, {(1, 1): Fraction(4)}),
        ),
    )
    return models


MODELS = _model_registry()


# -- characteristic classes -----------------------------------------------------


def _as_class(model, x):
    if isinstance(x, CharacterClass):
        return x
    if isinstance(x, MultiPoly):
        return CharacterClass(model, x)
    return model.unit() * x


def log_todd_class(model, roots=None, classes=None) -> CharacterClass:
    """log Td = p_1/2 - sum_j B_2j p_2j / (2j (2j)!) through the top degree,
    where p_k is the k-th power sum of the Chern roots: sum r^k over roots,
    or from classes c_1, c_2, ... by Newton's identities.  The coefficients
    are those of log(x / (1 - e^{-x})), whose derivative is
    1/2 - sum_j B_2j x^(2j-1) / (2j)!.  The Bernoulli numbers come from the
    spectral layer's generator."""
    from math import factorial

    from .special import bernoulli_numbers

    top = model.top_degree
    if roots is not None:
        rs = [_as_class(model, r) for r in roots]
        powers, sums = list(rs), []
        for _ in range(top):
            sums.append(sum(powers, model.zero()))
            powers = [x * r for x, r in zip(powers, rs)]
    elif classes is not None:
        cs = [_as_class(model, c) for c in classes[:top]]
        cs += [model.zero()] * (top - len(cs))
        sums = []
        for k in range(1, top + 1):
            p = cs[k - 1] * ((-1) ** (k - 1) * k)
            for i in range(1, k):
                p = p + cs[i - 1] * sums[k - i - 1] * (-1) ** (i - 1)
            sums.append(p)
    else:
        raise PreconditionError("todd_class needs roots or classes")
    out = sums[0] * Fraction(1, 2) if top else model.zero()
    for j, b in enumerate(bernoulli_numbers(top // 2), 1):
        out = out - sums[2 * j - 1] * (b / (2 * j * factorial(2 * j)))
    return out


def todd_class(model, roots=None, classes=None) -> CharacterClass:
    """Td = exp(log Td) in every degree, from Chern roots or Chern classes
    alike: Hirzebruch's multiplicative sequence of x / (1 - e^{-x})
    (Topological Methods in Algebraic Geometry, section 1)."""
    return log_todd_class(model, roots, classes).exp()


def model_tangent_todd(model) -> CharacterClass:
    return todd_class(model, classes=list(model.tangent_classes))


def model_tangent_euler(model) -> CharacterClass:
    """Top Chern class of the model tangent bundle."""
    return _as_class(model, model.tangent_classes[-1])


def twist_class(model, d) -> CharacterClass:
    """ch of the d-th power of the line bundle of the first generator."""
    h = model.generator_class(model.generators[0])
    return (h * d).exp()
