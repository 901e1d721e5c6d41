"""Truncated cohomology rings of model spaces and characteristic classes.

Each model is a graded ring presentation: generators with degrees and
nilpotency bounds, a top degree, and one top monomial whose coefficient the
integration functional extracts.  Classes are exact polynomials in the
generators, reduced after every product, so index integrals come out as
exact rationals and integrality is a check rather than a hope.
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

    def inverse(self):
        """Inverse of a class with unit-invertible constant term."""
        c0 = self.poly.constant_coefficient()
        if not c0:
            raise PreconditionError("class has no invertible constant term")
        u = self - CharacterClass(self.model, MultiPoly.constant(self.model.generators, c0))
        inv = self.model.unit() * (1 / c0)
        term = self.model.unit() * (1 / c0)
        for _ in range(self.model.top_degree):
            term = term * u * (-1 / c0)
            inv = inv + term
        return inv

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


def chern_character(model, roots) -> CharacterClass:
    """ch = sum of exponentials of the Chern roots; additive over direct
    sums and multiplicative over tensor products by construction."""
    out = model.zero()
    for r in roots:
        out = out + _as_class(model, r).exp()
    return out


def _as_class(model, x):
    if isinstance(x, CharacterClass):
        return x
    if isinstance(x, MultiPoly):
        return CharacterClass(model, x)
    return model.unit() * x


def todd_class(model, roots=None, classes=None) -> CharacterClass:
    """Td from Chern roots (exact Bernoulli series) or from Chern classes
    (universal polynomials through degree 4)."""
    if roots is not None:
        out = model.unit()
        for r in roots:
            out = out * _todd_of_root(model, _as_class(model, r))
        return out
    if classes is None:
        raise PreconditionError("todd_class needs roots or classes")
    cs = [_as_class(model, c) for c in classes]

    def c(i):
        return cs[i - 1] if i <= len(cs) else model.zero()

    top = model.top_degree
    out = model.unit()
    if top >= 1:
        out = out + c(1) * Fraction(1, 2)
    if top >= 2:
        out = out + (c(1) * c(1) + c(2)) * Fraction(1, 12)
    if top >= 3:
        out = out + c(1) * c(2) * Fraction(1, 24)
    if top >= 4:
        out = out + (
            c(1) * c(1) * c(2) * 4
            - c(1) * c(1) * c(1) * c(1)
            + c(2) * c(2) * 3
            + c(1) * c(3)
            - c(4)
        ) * Fraction(1, 720)
    return out


def _todd_of_root(model, r: CharacterClass):
    """x/(1 - e^{-x}) = 1 + x/2 + sum_k B_2k x^2k / (2k)! at x = r, through
    the top degree.  The Bernoulli numbers come from the spectral layer's
    generator, imported here: the index commands take the Todd class from
    Chern classes and start without the spectral layer."""
    from math import factorial

    from .special import bernoulli_numbers

    out = model.unit() + r * Fraction(1, 2)
    square, power = r * r, model.unit()
    for k, b in enumerate(bernoulli_numbers(model.top_degree // 2), 1):
        power = power * square
        out = out + power * (b / factorial(2 * k))
    return out


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
