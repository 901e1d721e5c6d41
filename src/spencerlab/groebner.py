"""Polynomial ideals: Buchberger completion, normal forms, membership,
Krull dimension from leading terms, and the Rabinowitsch saturation test.

One monomial order throughout: degrevlex (tie break last-variable-smallest).
Bases are reduced and monic, so re-running completion on a cached basis is
the identity.

Completion follows Gebauer and Moeller ("On an installation of Buchberger's
algorithm", J. Symb. Comp. 6, 1988).  Pending pairs sit in a heap keyed once,
when made, by the degrevlex key of their lcm: least lcm first, ties in the
order made.  Adding h drops each new pair (g, h) whose lcm another new
pair's lcm divides (one of equal lcms kept) or whose leading monomials are
coprime; each old pair whose lcm lm(h) divides unless its lcm with h is
the lcm of one of its members with h; and each basis element whose leading
monomial lm(h) divides.

A join of ideals in disjoint blocks of variables (`PolyIdeal.join`) needs no
completion.  Each block keeps its variables in the ambient's order, so the
ambient degrevlex restricts to the block's own and a block's Groebner basis
stays one in the larger ring; leading monomials from two blocks are coprime,
so every cross S-pair reduces to zero (Buchberger's first criterion), and the
union of the blocks' bases is a Groebner basis of the join.  It is already
reduced: a monomial of one block's element has no variable of another
block, so no other block's leading monomial divides it unless that
leading monomial is 1.  The union only needs sorting, and a unit-ideal
part makes the join the unit ideal.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count

from .errors import AmbientMismatchError
from .poly import MultiPoly, degrevlex_key


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


def _coprime(a, b):
    return not any(x and y for x, y in zip(a, b))


def normal_form(p: MultiPoly, basis) -> MultiPoly:
    """Remainder of p under multivariate division by basis (any generating
    list): the largest monomial left is cancelled by the first element whose
    leading monomial divides it, or else moves to the remainder.  Division
    only makes monomials below the one it cancels, so they come off a heap."""
    lms = [(g.leading_monomial(), g.leading_coefficient(), g.terms) for g in basis if g]
    work = dict(p.terms)
    heap = [(-sum(m), m[::-1], m) for m in work]  # degrevlex-largest pops first
    heapify(heap)
    rem = {}
    while heap:
        lm = heappop(heap)[2]
        lc = work.pop(lm)
        if not lc:
            continue
        for glm, glc, gterms in lms:
            q = _mono_div(lm, glm)
            if q is not None:
                f = lc / glc
                for m, c in gterms.items():
                    if m != glm:
                        m = tuple(a + b for a, b in zip(m, q))
                        old = work.get(m)
                        if old is None:
                            work[m] = -(f * c)
                            heappush(heap, (-sum(m), m[::-1], m))
                        else:
                            work[m] = old - f * c  # a zero stays until popped
                break
        else:
            rem[lm] = lc
    return MultiPoly(p.vars, rem, _clean=False)


def s_polynomial(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = _mono_lcm(lf, lg)
    return f.term_mul(_mono_div(l, lf), 1 / f.leading_coefficient()) - g.term_mul(
        _mono_div(l, lg), 1 / g.leading_coefficient()
    )


def _interreduce(basis):
    """The reduced basis of a Groebner basis, ascending: drop each element
    whose leading monomial another's divides, then reduce each one left by
    the others.  Leading monomials stay, so every tail comes out reduced."""
    basis = sorted((g.monic() for g in basis if g),
                   key=lambda g: degrevlex_key(g.leading_monomial()))
    minimal = []
    for g in basis:  # a divisor of a leading monomial is never the larger one
        if all(_mono_div(g.leading_monomial(), h.leading_monomial()) is None for h in minimal):
            minimal.append(g)
    return [normal_form(g, minimal[:i] + minimal[i + 1 :]) for i, g in enumerate(minimal)]


def buchberger(generators):
    """Reduced Groebner basis of <generators> in degrevlex."""
    polys, live, pairs, made = [], [], [], count()

    def add(h):
        """The Gebauer-Moeller update for h (see the module docstring)."""
        t, lh = len(polys), h.leading_monomial()
        polys.append(h)
        pairs[:] = [p for p in pairs if _mono_div(p[4], lh) is None
                    or p[4] in (_mono_lcm(polys[p[2]].leading_monomial(), lh),
                                _mono_lcm(polys[p[3]].leading_monomial(), lh))]
        new = [(i, _mono_lcm(polys[i].leading_monomial(), lh)) for i in live]
        kept = []
        for k, (i, l) in enumerate(new):
            if _coprime(polys[i].leading_monomial(), lh) or all(
                    _mono_div(l, l2) is None for _, l2 in new[k + 1 :] + kept):
                kept.append((i, l))
        for i, l in kept:
            if not _coprime(polys[i].leading_monomial(), lh):
                pairs.append((degrevlex_key(l), next(made), i, t, l))
        heapify(pairs)
        live[:] = [i for i in live if _mono_div(polys[i].leading_monomial(), lh) is None]
        live.append(t)

    for g in generators:
        if g:
            add(g.monic())
    while pairs:
        _, _, i, j, _ = heappop(pairs)
        r = normal_form(s_polynomial(polys[i], polys[j]), [polys[k] for k in live])
        if r:
            add(r.monic())
    return _interreduce([polys[k] for k in live])


class PolyIdeal:
    """Ideal in a named polynomial ring, with its reduced Groebner basis
    cached, or given as basis when it is already known."""

    __slots__ = ("ambient", "generators", "_basis")

    def __init__(self, ambient, generators, basis=None):
        self.ambient = tuple(ambient)
        for g in generators:
            if g.vars != self.ambient:
                raise AmbientMismatchError(
                    f"generator over {g.vars} in ideal over {self.ambient}"
                )
        self.generators = [g for g in generators if g]
        self._basis = basis

    @classmethod
    def join(cls, ambient, parts):
        """The ideal over ambient generated by each ideal of parts, an
        (ideal, block) list, renamed onto its block of ambient's variables.
        The blocks are disjoint and in ambient's order, so the union of the
        renamed reduced bases, sorted ascending, is the reduced basis, or
        [1] when a part is the unit ideal (see the module docstring)."""
        gens, basis, used = [], [], set()
        for ideal, block in parts:
            pos = [ambient.index(v) for v in block]
            if pos != sorted(set(pos)) or used & set(pos):
                raise ValueError(f"block {block} is not disjoint and in ambient order")
            used.update(pos)
            gens.extend(g.rename(block).extend(ambient) for g in ideal.generators)
            basis.extend(g.rename(block).extend(ambient) for g in ideal.groebner())
        if any(g.is_constant() for g in basis):
            basis = [MultiPoly.constant(ambient, 1)]
        basis.sort(key=lambda g: degrevlex_key(g.leading_monomial()))
        return cls(ambient, gens, basis)

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
