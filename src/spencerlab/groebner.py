"""Polynomial ideals: Buchberger completion, normal forms, membership,
Krull dimension from leading terms, and the Rabinowitsch saturation test.

One monomial order throughout: degrevlex (tie break last-variable-smallest).
Bases are reduced and monic, so re-running completion on a cached basis is
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import AmbientMismatchError
from .poly import MultiPoly, degrevlex_key
from .scalars import QQi


def _mono_div(m, d):
    """m / d if d divides m, else None."""
    q = []
    for a, b in zip(m, d):
        if a < b:
            return None
        q.append(a - b)
    return tuple(q)


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(p: MultiPoly, basis) -> MultiPoly:
    """Remainder of p under multivariate division by basis (any generating list)."""
    rem = MultiPoly.zero(p.vars)
    work = p
    lms = [(g.leading_monomial(), g.leading_coefficient(), g) for g in basis if g]
    while work:
        lm = work.leading_monomial()
        lc = work.terms[lm]
        hit = False
        for glm, glc, g in lms:
            q = _mono_div(lm, glm)
            if q is not None:
                work = work - g.term_mul(q, lc / glc)
                hit = True
                break
        if not hit:
            rem = rem + MultiPoly.monomial(p.vars, lm, lc)
            work = work - MultiPoly.monomial(p.vars, lm, lc)
    return rem


def s_polynomial(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = _mono_lcm(lf, lg)
    return f.term_mul(_mono_div(l, lf), QQi(1) / f.leading_coefficient()) - g.term_mul(
        _mono_div(l, lg), QQi(1) / g.leading_coefficient()
    )


def _interreduce(basis):
    basis = [g.monic() for g in basis if g]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            r = normal_form(basis[i], others) if others else basis[i]
            if r != basis[i]:
                changed = True
                if r:
                    basis[i] = r.monic()
                else:
                    basis.pop(i)
                break
    basis.sort(key=lambda g: degrevlex_key(g.leading_monomial()))
    return basis


def buchberger(generators):
    """Reduced Groebner basis of <generators> in degrevlex."""
    basis = _interreduce([g for g in generators if g])
    if not basis:
        return []
    pairs = list(combinations(range(len(basis)), 2))
    while pairs:
        pairs.sort(
            key=lambda ij: degrevlex_key(
                _mono_lcm(
                    basis[ij[0]].leading_monomial(), basis[ij[1]].leading_monomial()
                )
            )
        )
        i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        li, lj = fi.leading_monomial(), fj.leading_monomial()
        # product criterion: coprime leading monomials reduce to zero
        if all(a == 0 or b == 0 for a, b in zip(li, lj)):
            continue
        r = normal_form(s_polynomial(fi, fj), basis)
        if r:
            basis.append(r.monic())
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return _interreduce(basis)


@dataclass
class PolyIdeal:
    """Ideal in a named polynomial ring, with its Groebner basis cached."""

    ambient: tuple
    generators: list
    _basis: list = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.ambient = tuple(self.ambient)
        for g in self.generators:
            if g.vars != self.ambient:
                raise AmbientMismatchError(
                    f"generator over {g.vars} in ideal over {self.ambient}"
                )
        self.generators = [g for g in self.generators if g]

    def groebner(self):
        if self._basis is None:
            self._basis = buchberger(self.generators)
        return self._basis

    def contains(self, p: MultiPoly) -> bool:
        if p.vars != self.ambient:
            raise AmbientMismatchError(f"polynomial over {p.vars}, ideal over {self.ambient}")
        if not p:
            return True
        return not normal_form(p, self.groebner())

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def is_zero(self) -> bool:
        return not self.groebner()

    def contains_ideal(self, other: "PolyIdeal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def dimension(self):
        """Krull dimension of the quotient ring; None for the unit ideal.

        The dimension is that of the leading-monomial ideal, i.e. the size
        of the largest set of variables containing no leading-monomial
        support (Cox-Little-O'Shea, ch. 9 par. 1).  Its complement meets
        every support, so the dimension is n minus the size of a smallest
        such hitting set.  The search branches only on the variables of one
        unhit support per level and stops at the best depth found, so it is
        exponential in the size of the hitting set, not in n.
        """
        gb = self.groebner()
        if self.is_unit():
            return None  # empty variety sentinel
        n = len(self.ambient)
        lms = [g.leading_monomial() for g in gb]
        supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in lms]
        return n - _min_hitting_set(supports, n)


def _min_hitting_set(supports, best, depth=0):
    """Size of a smallest variable set meeting every support, capped at best.

    Any hitting set contains a variable of the smallest unhit support, so
    branching over that support's variables is exhaustive.
    """
    if not supports:
        return depth
    if depth + 1 >= best:
        return best
    for v in min(supports, key=len):
        best = _min_hitting_set([s for s in supports if v not in s], best, depth + 1)
    return best


def saturation_is_unit(ideal: PolyIdeal, f: MultiPoly) -> bool:
    """True iff (I : f^inf) is the unit ideal, i.e. V(I) is contained in V(f).

    Rabinowitsch: adjoin t, test whether 1 lies in I + <1 - t*f>; no
    elimination needed for the unit test.
    """
    if not f:
        return ideal.is_unit()
    new_vars = ("t_sat",) + ideal.ambient
    gens = [g.extend(new_vars) for g in ideal.generators]
    t = MultiPoly.variable(new_vars, "t_sat")
    gens.append(MultiPoly.constant(new_vars, 1) - t * f.extend(new_vars))
    gb = buchberger(gens)
    return len(gb) == 1 and gb[0].is_constant()
