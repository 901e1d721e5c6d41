"""The Buchberger completion that the Groebner layer used before its pair
heap, its one-dict normal form and its Kunneth join union: one change's
oracle.  It re-sorts every pending pair after each reduction, divides with
a fresh polynomial per step and interreduces by restarting from the first
element after every change.  Its reduced bases must equal those of
``spencerlab.groebner.buchberger``, element for element."""

from itertools import combinations

from spencerlab.poly import MultiPoly, degrevlex_key
from spencerlab.scalars import QQi


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
