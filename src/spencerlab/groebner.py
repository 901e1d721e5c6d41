"""Polynomial ideals: Buchberger completion, normal forms, membership,
Krull dimension from leading terms, and saturation via elimination.

Orders: degrevlex (default, tie break last-variable-smallest) and lex, plus
an internal block order used only for eliminating a fresh first variable in
saturation.  Bases are reduced and monic, so re-running completion on a
cached basis is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import AmbientMismatchError
from .poly import ORDER_KEYS, MultiPoly, degrevlex_key
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


def normal_form(p: MultiPoly, basis, key=degrevlex_key) -> MultiPoly:
    """Remainder of p under multivariate division by basis (any generating list)."""
    rem = MultiPoly.zero(p.vars)
    work = p
    lms = [(g.leading_monomial(key), g.leading_coefficient(key), g) for g in basis if g]
    while work:
        lm = work.leading_monomial(key)
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


def s_polynomial(f, g, key=degrevlex_key):
    lf, lg = f.leading_monomial(key), g.leading_monomial(key)
    l = _mono_lcm(lf, lg)
    return f.term_mul(_mono_div(l, lf), QQi(1) / f.leading_coefficient(key)) - g.term_mul(
        _mono_div(l, lg), QQi(1) / g.leading_coefficient(key)
    )


def _interreduce(basis, key):
    basis = [g.monic(key) for g in basis if g]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            r = normal_form(basis[i], others, key) if others else basis[i]
            if r != basis[i]:
                changed = True
                if r:
                    basis[i] = r.monic(key)
                else:
                    basis.pop(i)
                break
    basis.sort(key=lambda g: key(g.leading_monomial(key)))
    return basis


def buchberger(generators, order="degrevlex"):
    """Reduced Groebner basis of <generators> under the named order."""
    key = ORDER_KEYS[order]
    basis = _interreduce([g for g in generators if g], key)
    if not basis:
        return []
    pairs = list(combinations(range(len(basis)), 2))
    while pairs:
        pairs.sort(
            key=lambda ij: degrevlex_key(
                _mono_lcm(
                    basis[ij[0]].leading_monomial(key), basis[ij[1]].leading_monomial(key)
                )
            )
        )
        i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        li, lj = fi.leading_monomial(key), fj.leading_monomial(key)
        # product criterion: coprime leading monomials reduce to zero
        if all(a == 0 or b == 0 for a, b in zip(li, lj)):
            continue
        r = normal_form(s_polynomial(fi, fj, key), basis, key)
        if r:
            basis.append(r.monic(key))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return _interreduce(basis, key)


@dataclass
class PolyIdeal:
    """Ideal in a named polynomial ring, with a Groebner cache per order."""

    ambient: tuple
    generators: list
    groebner_cache: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ambient = tuple(self.ambient)
        for g in self.generators:
            if g.vars != self.ambient:
                raise AmbientMismatchError(
                    f"generator over {g.vars} in ideal over {self.ambient}"
                )
        self.generators = [g for g in self.generators if g]

    def groebner(self, order="degrevlex"):
        if order not in self.groebner_cache:
            self.groebner_cache[order] = buchberger(self.generators, order)
        return self.groebner_cache[order]

    def contains(self, p: MultiPoly, order="degrevlex") -> bool:
        if p.vars != self.ambient:
            raise AmbientMismatchError(f"polynomial over {p.vars}, ideal over {self.ambient}")
        if not p:
            return True
        return not normal_form(p, self.groebner(order), ORDER_KEYS[order])

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
        lms = [g.leading_monomial(degrevlex_key) for g in gb]
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
    gb = buchberger(gens, "elim_first")
    return len(gb) == 1 and gb[0].is_constant()
