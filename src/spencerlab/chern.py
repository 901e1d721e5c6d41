"""Truncated cohomology rings of model spaces and characteristic classes.

Each model is a graded ring presentation: generators with degrees and
nilpotency bounds, a top degree, and one top monomial whose coefficient the
integration functional extracts.  Classes are exact polynomials in the
generators, reduced after every product, so index integrals come out as
exact rationals and integrality is a check rather than a hope.

The Todd class has one formula in every degree, whether the bundle is given
by Chern roots or by Chern classes: Td = exp(log Td), with
log Td = p_1/2 - sum_j B_2j p_2j / (2j (2j)!) in the power sums p_k of the
Chern roots (Hirzebruch, Topological Methods in Algebraic Geometry, section
1: the multiplicative sequence of x / (1 - e^{-x})).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import PreconditionError
from .poly import MultiPoly


class CohomologyRingModel(namedtuple(
        "CohomologyRingModel", "name generators degrees nilpotency top_degree top_monomial "
        "tangent_classes polarization", defaults=((), None))):
    """nilpotency: the largest exponent per generator; tangent_classes:
    (c1, c2, ...) as generator polynomials; polarization: the hyperplane
    class's generator."""

    __slots__ = ()

    def zero(self):
        return CharacterClass(self, MultiPoly.zero(self.generators))

    def unit(self):
        return CharacterClass(self, MultiPoly.constant(self.generators, 1))

    def generator_class(self, name):
        return CharacterClass(self, MultiPoly.variable(self.generators, name))

    def weighted_degree(self, mono):
        return sum(e * d for e, d in zip(mono, self.degrees))

    def reduce_poly(self, poly: MultiPoly) -> MultiPoly:
        keep = {}
        for mono, c in poly.terms.items():
            if any(e > nil for e, nil in zip(mono, self.nilpotency)):
                continue
            if self.weighted_degree(mono) > self.top_degree:
                continue
            keep[mono] = c
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
            if self.model.weighted_degree(m) == degree
        }
        return CharacterClass(self.model, MultiPoly(self.model.generators, keep))

    def integrate(self):
        """Coefficient of the declared top monomial."""
        return self.poly.coefficient(self.model.top_monomial)

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


def _p(vars_, terms):
    return MultiPoly(vars_, terms)


def _model_registry():
    models = {}

    def projective(n):
        gens = ("h",)
        h = lambda e: {(e,): Fraction(1)}
        return CohomologyRingModel(
            name=f"P{n}",
            generators=gens,
            degrees=(1,),
            nilpotency=(n,),
            top_degree=n,
            top_monomial=(n,),
            # tangent classes via c(T) = (1+h)^{n+1} truncated
            tangent_classes=tuple(
                _p(gens, {(k,): Fraction(_binom(n + 1, k))}) for k in range(1, n + 1)
            ),
            polarization="h",
        )

    for n in (1, 2, 3):
        m = projective(n)
        models[m.name] = m

    gens = ("t",)
    models["elliptic_curve"] = CohomologyRingModel(
        name="elliptic_curve",
        generators=gens,
        degrees=(1,),
        nilpotency=(1,),
        top_degree=1,
        top_monomial=(1,),
        tangent_classes=(_p(gens, {}),),  # c1 = 0
        polarization="t",
    )

    gens = ("h",)
    models["S2"] = CohomologyRingModel(
        name="S2",
        generators=gens,
        degrees=(1,),
        nilpotency=(1,),
        top_degree=1,
        top_monomial=(1,),
        tangent_classes=(_p(gens, {(1,): Fraction(2)}),),  # c1 = 2h = e(TS2)
        polarization="h",
    )

    gens = ("h1", "h2")
    models["P1xP1"] = CohomologyRingModel(
        name="P1xP1",
        generators=gens,
        degrees=(1, 1),
        nilpotency=(1, 1),
        top_degree=2,
        top_monomial=(1, 1),
        tangent_classes=(
            _p(gens, {(1, 0): Fraction(2), (0, 1): Fraction(2)}),
            _p(gens, {(1, 1): Fraction(4)}),
        ),
        polarization="h1",
    )
    return models


def _binom(n, k):
    from math import comb

    return comb(n, k)


MODELS = _model_registry()


def get_model(name) -> CohomologyRingModel:
    if name not in MODELS:
        raise PreconditionError(f"unknown model {name!r}; have {sorted(MODELS)}")
    return MODELS[name]


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
    if not model.tangent_classes:
        return model.zero()
    return _as_class(model, model.tangent_classes[-1])


def twist_class(model, d) -> CharacterClass:
    """ch of the d-th power of the polarization line bundle."""
    if model.polarization is None:
        raise PreconditionError(f"model {model.name} has no polarization")
    h = model.generator_class(model.polarization)
    return (h * d).exp()
