"""Characteristic ideals and covector-level classification.

The characteristic variety of a system lives in variables (x_1..x_n,
xi_<x_1>..xi_<x_n>).  Scalar systems contribute one generator per equation
(its top-order homogeneous part); determined square systems contribute the
determinant of the principal-symbol matrix; overdetermined ones the maximal
minors.  Generators are xi-homogeneous by construction and that conicity is
re-checked on every build.

Real decisions are exact where we can make them exact (definite quadratic
forms, saturation certificates, Sturm sequences on univariate slices) and
grid-verified otherwise, with the verification mode always recorded in the
certificate.

Grid classification runs on Python ints.  The symbol is compiled once per
system into integer coefficients in (x, xi) over one common denominator
(`_IntSymbol`) and specialised once per base point; covectors are scaled to
integers.  Sturm sequences are primitive pseudo-remainder sequences on int
lists (Collins 1967), which differ from the rational Sturm chain only by
positive factors and so give the same root counts.  Only the saturation
certificate still builds a frozen `PdeSystem`.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import PreconditionError
from .groebner import PolyIdeal, saturation_is_unit
from .linalg import ExactMatrix, positive_definite
from .poly import MultiPoly
from .systems import PdeSystem, make_system


def xi_name(var):
    return f"xi_{var}"


def char_ambient(sys: PdeSystem):
    return tuple(sys.indep_vars) + tuple(xi_name(v) for v in sys.indep_vars)


def principal_symbol_entries(sys: PdeSystem):
    """Per-equation rows over unknowns: top-order parts as polynomials in
    (x, xi)."""
    amb = char_ambient(sys)
    n = sys.n
    rows = []
    for eq in sys.equations:
        row = [MultiPoly.zero(amb) for _ in range(sys.m)]
        for (a, alpha), coeff in eq.principal_terms().items():
            xi_mono = (0,) * n + tuple(alpha)
            row[a] = row[a] + coeff.extend(amb) * MultiPoly.monomial(amb, xi_mono)
        rows.append(row)
    return rows


class CharVariety(namedtuple("CharVariety", "base_vars xi_vars ideal conic")):
    __slots__ = ()

    @property
    def ambient(self):
        return self.base_vars + self.xi_vars

    @property
    def dimension(self):
        """Krull dimension (a natural, or None for the empty variety), computed
        when read: classification never needs it."""
        return self.ideal.dimension()


def characteristic_ideal(sys: PdeSystem) -> CharVariety:
    amb = char_ambient(sys)
    rows = principal_symbol_entries(sys)
    m = sys.m
    if m == 1:
        gens = [row[0] for row in rows if row[0]]
    elif len(rows) == m:
        gens = [poly_det(rows)]
    elif len(rows) > m:
        gens = []
        for subset in combinations(range(len(rows)), m):
            gens.append(poly_det([rows[i] for i in subset]))
        gens = [g for g in gens if g]
    else:
        # underdetermined: the ideal of all entries of the composite map
        gens = [entry for row in rows for entry in row if entry]
    ideal = PolyIdeal(amb, gens)
    xi_positions = list(range(sys.n, 2 * sys.n))
    conic = all(g.is_homogeneous_in(xi_positions) for g in ideal.generators)
    if not conic:
        raise AssertionError("characteristic generators must be xi-homogeneous")
    return CharVariety(tuple(sys.indep_vars), amb[sys.n :], ideal, conic)


def poly_det(rows):
    """Determinant of a small matrix of polynomials by Laplace expansion."""
    k = len(rows)
    if k == 0:
        raise ValueError("empty matrix")
    if any(len(r) != k for r in rows):
        raise ValueError("determinant needs a square matrix")
    if k == 1:
        return rows[0][0]
    out = MultiPoly.zero(rows[0][0].vars)
    for j in range(k):
        entry = rows[0][j]
        if not entry:
            continue
        term = entry * poly_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        out = out + (term if j % 2 == 0 else -term)
    return out


# -- samples and grids -------------------------------------------------------------


class CovectorSample:
    """A base point x and a covector xi != 0, as Fraction tuples (kept as given)."""

    __slots__ = ("x", "xi")

    def __init__(self, x, xi):
        self.x, self.xi = _fractions(x), _fractions(xi)
        if not any(self.xi):
            raise PreconditionError("covector samples need xi != 0")


def _fractions(values):
    if type(values) is tuple and all(type(v) is Fraction for v in values):
        return values
    return tuple(Fraction(v) for v in values)


def axis_covectors(n):
    out = []
    for i in range(n):
        for s in (1, -1):
            out.append(tuple(Fraction(s if j == i else 0) for j in range(n)))
    return out


def default_grid(sys: PdeSystem, base_count=4, seed=0, region=None):
    """Deterministic rational grid: the origin plus seeded random base
    points, times the 2n axis covectors plus 4 seeded random ones."""
    rng = random.Random(seed)
    n = sys.n
    bases = [tuple(Fraction(0) for _ in range(n))]
    attempts = 0
    while len(bases) < base_count and attempts < 200 * base_count:
        attempts += 1
        cand = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
        if region is not None and not region.contains(cand):
            continue
        bases.append(cand)
    if region is not None:
        bases = [b for b in bases if region.contains(b)]
        if not bases:
            raise PreconditionError("no grid base points inside the region")
    xis = axis_covectors(n)
    while len(xis) < 2 * n + 4:
        cand = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        if any(cand):
            xis.append(cand)
    return [CovectorSample(b, xi) for b in bases for xi in xis]


# -- exact univariate real-root machinery --------------------------------------------
#
# Polynomials are ascending coefficient lists.  A Sturm sequence is built as
# a primitive pseudo-remainder sequence on ints: each pseudo-division scales
# by a positive integer and each content division is by a positive gcd, so
# every element is a positive multiple of the classical rational Sturm
# chain's and the sign variations are the same.


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_deriv(c):
    return _poly_trim([c[i] * i for i in range(1, len(c))])


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_vector(values):
    """Rationals times their positive common denominator, as ints."""
    fr = [Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in fr))
    return [v.numerator * (d // v.denominator) for v in fr]


def _primitive(p):
    """p divided by the gcd of its coefficients."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _prem(a, b):
    """Remainder of |lc(b)|^k * a by b, b nonzero: a pseudo-division that
    scales by a positive integer only."""
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    scale, sign = abs(lb), (1 if lb > 0 else -1)
    for shift in range(len(a) - 1 - db, -1, -1):
        top = sign * a[shift + db]
        if top:
            if scale != 1:
                a = [scale * c for c in a]
            for i, c in enumerate(b):
                a[shift + i] -= top * c
    return _poly_trim(a[:db])


def _sturm_chain(p):
    """Sturm sequence of an int polynomial of degree >= 1, ending in a
    multiple of gcd(p, p')."""
    chain = [_primitive(p), _primitive(_poly_deriv(p))]
    while True:
        r = _prem(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append([-c for c in _primitive(r)])


def _real_root_count(chain):
    """Distinct real roots of chain[0]: sign variations at -inf minus +inf."""
    at_plus = [1 if q[-1] > 0 else -1 for q in chain]
    at_minus = [s if len(q) % 2 else -s for s, q in zip(at_plus, chain)]
    return _variations(at_minus) - _variations(at_plus)


def _variations(signs):
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _real_rooted(p, strict):
    if len(p) <= 1:
        return bool(p)  # nonzero constants have no roots to fail
    chain = _sturm_chain(p)
    # p has deg p - deg gcd(p, p') distinct complex roots
    distinct = len(p) - 1 - (0 if strict else len(chain[-1]) - 1)
    return _real_root_count(chain) == distinct


def sturm_distinct_real_roots(coeffs):
    """Number of distinct real roots via a Sturm chain, exact arithmetic."""
    p = _poly_trim(_int_vector(coeffs))
    return _real_root_count(_sturm_chain(p)) if len(p) > 1 else 0


# -- the symbol over Z --------------------------------------------------------------


class _IntSymbol:
    """Polynomials in (x, xi) with integer coefficients, specialised at base
    points x on demand.

    Each polynomial is a list of terms (x exponents, xi exponents, re, im),
    re and im integers over one common denominator.  At x = (p_i / q_i)
    every term is multiplied by the same positive constant, the denominator
    times prod q_i^top_i (top_i the largest exponent of x_i), so the
    specialised xi-coefficients are integers.  A positive constant changes
    no zero test, no definiteness test and no real-root count.
    Specialisations are cached per x.
    """

    def __init__(self, polys, n):
        """polys: per polynomial, (x exponents, xi exponents, coefficient) triples."""
        den = lcm(*(v.denominator for p in polys for _, _, c in p for v in (c.real, c.imag)))
        self.polys = [
            [(xe, ke, c.real.numerator * (den // c.real.denominator),
              c.imag.numerator * (den // c.imag.denominator)) for xe, ke, c in p]
            for p in polys
        ]
        self.tops = [max((xe[i] for p in self.polys for xe, _, _, _ in p), default=0)
                     for i in range(n)]
        self._cache = {}

    def at(self, point):
        """Per polynomial, its nonzero terms (xi exponents, re, im) at the
        point given by its _rational_key."""
        spec = self._cache.get(point)
        if spec is None:
            powers = [[p**e * q ** (top - e) for e in range(top + 1)]
                      for (p, q), top in zip(point, self.tops)]
            spec = self._cache[point] = [_specialise(poly, powers) for poly in self.polys]
        return spec


def _specialise(terms, powers):
    acc = {}
    for xe, ke, re, im in terms:
        f = 1
        for table, e in zip(powers, xe):
            f *= table[e]
        c = acc.setdefault(ke, [0, 0])
        c[0] += re * f
        c[1] += im * f
    return [(ke, re, im) for ke, (re, im) in acc.items() if re or im]


def _rational_key(values):
    """Rationals as (numerator, denominator) pairs: a cheap exact dict key."""
    return tuple((v.numerator, v.denominator) for v in values)


def _poly_terms(poly, n):
    """Terms (x exponents, xi exponents, coefficient) of a polynomial over (x, xi)."""
    return [(m[:n], m[n:], c) for m, c in poly.terms.items()]


def _equation_terms(eq):
    """The same for the full symbol of a scalar equation, every order included."""
    return [(m, alpha, c) for (_, alpha), coeff in eq.terms.items()
            for m, c in coeff.terms.items()]


def _vanishes(terms, xi):
    """Whether integer terms (xi exponents, re, im) sum to 0 at the int covector xi."""
    re = im = 0
    for e, a, b in terms:
        m = 1
        for v, k in zip(xi, e):
            if k:
                m *= v**k
        re += a * m
        im += b * m
    return not re and not im


# -- ellipticity ------------------------------------------------------------------------


def _scalar_symbol(sys: PdeSystem):
    rows = principal_symbol_entries(sys)
    if sys.m != 1 or len(rows) != 1:
        return None
    return rows[0][0]


def _definiteness(terms):
    """"positive" or "negative" for a definite real quadratic form given as
    nonempty integer terms (xi exponents, re, im), "" for any other real
    quadratic form, None if the terms are not a real quadratic form."""
    if any(im or sum(e) != 2 for e, _, im in terms):
        return None
    n = len(terms[0][0])
    gram = [[0] * n for _ in range(n)]  # twice the Gram matrix
    for e, re, _ in terms:
        i, j = [i for i, k in enumerate(e) for _ in range(k)]
        gram[i][j] += re
        gram[j][i] += re
    for sign, tag in ((1, "positive"), (-1, "negative")):
        if positive_definite([[sign * v for v in row] for row in gram]):
            return tag
    return ""


def _ellipticity(quadratic, samples, saturates, count):
    """The one ellipticity ladder: (verdict, certificate).

    quadratic: the integer terms of the one frozen principal symbol, or
    None.  samples: (x, xi, integer generators at x, integer xi) tuples,
    read lazily.  saturates: the saturation test, called only when no
    sample is a counterexample.  count: the samples a grid verdict covers.

    Exact definiteness decides a real quadratic form in both directions (a
    non-definite one always has a real zero off the origin, rational or
    not).  Otherwise the first sample where every generator vanishes
    refutes ellipticity.  Such a real zero off xi = 0 also rules out the
    exact saturation certificate V(I) inside V(|xi|^2), which is why the
    grid runs first.  A grid pass is an honest 'verified on grid' verdict.
    """
    sign = None if quadratic is None else _definiteness(quadratic)
    if sign:
        return True, {"kind": "definite", "sign": sign}
    for x, xi, gens, vec in samples:
        if all(_vanishes(g, vec) for g in gens):
            return False, {"kind": "counterexample", "x": [str(v) for v in x],
                           "xi": [str(v) for v in xi]}
    if sign is not None:  # not definite: a real characteristic covector exists
        return False, {"kind": "indefinite"}
    if saturates():
        return True, {"kind": "saturation"}
    return True, {"kind": "grid", "samples": count}


def _saturates(cv: CharVariety):
    """Whether saturating the characteristic ideal by |xi|^2 gives the unit ideal."""
    amb = cv.ambient
    norm2 = MultiPoly.zero(amb)
    for xi in cv.xi_vars:
        v = MultiPoly.variable(amb, xi)
        norm2 = norm2 + v * v
    return saturation_is_unit(cv.ideal, norm2)


def is_elliptic(sys: PdeSystem, grid=None, seed=0):
    """(verdict, certificate): no real characteristic covectors off xi = 0,
    decided by _ellipticity over the grid.  Only a constant-coefficient
    single scalar equation has a frozen quadratic symbol to test for
    definiteness."""
    if grid is None:
        grid = default_grid(sys, seed=seed)
    if not grid:
        raise PreconditionError("is_elliptic needs a nonempty grid")
    cv = characteristic_ideal(sys)
    symbol = _IntSymbol([_poly_terms(g, sys.n) for g in cv.ideal.generators], sys.n)
    quadratic = None
    if sys.m == 1 and len(sys.equations) == 1 and sys.constant_coefficient:
        # the one generator is the principal symbol
        quadratic = symbol.at(_rational_key(sys.base_point))[0]
    samples = ((s.x, s.xi, symbol.at(_rational_key(s.x)), _int_vector(s.xi)) for s in grid)
    return _ellipticity(quadratic, samples, lambda: _saturates(cv), len(grid))


def frozen_system(sys: PdeSystem, x) -> PdeSystem:
    """Constant-coefficient system with coefficients evaluated at x."""
    point = {v: Fraction(p) for v, p in zip(sys.indep_vars, x)}
    from .systems import Equation

    eqs = []
    for eq in sys.equations:
        terms = {}
        for key, coeff in eq.terms.items():
            val = coeff.evaluate(point)
            if val:
                terms[key] = MultiPoly.constant(sys.indep_vars, val)
        if terms:
            eqs.append(Equation(terms))
    order = max((eq.order() for eq in eqs), default=sys.order)
    return PdeSystem(sys.indep_vars, sys.unknowns, max(order, 1), eqs,
                     base_point=x, name=sys.name)


# -- hyperbolicity -------------------------------------------------------------------------


# value: True, False or None (degenerate); status: "hyperbolic",
# "not_hyperbolic" or "degenerate"
HyperbolicityReport = namedtuple("HyperbolicityReport", "value status certificate")


def _direction_polynomial(terms, theta, eta):
    """sigma(t*theta + eta) as an ascending coefficient list in t, for sigma
    given as terms (xi exponents, re, im): each term expands as its
    coefficient times the product of (eta_i + theta_i*t)^alpha_i.  Exact on
    ints and on Fractions alike."""
    lines = [[e, th] for e, th in zip(eta, theta)]
    re, im = [], []
    for mono, cre, cim in terms:
        prod = [1]
        for line, e in zip(lines, mono):
            for _ in range(e):
                prod = _poly_mul(prod, line)
        for acc, part in ((re, cre), (im, cim)):
            if part:
                acc.extend([0] * (len(prod) - len(acc)))
                for j, x in enumerate(prod):
                    acc[j] += part * x
    if _poly_trim(im):
        raise PreconditionError("real coefficients required for root counting")
    return _poly_trim(re)


def _transverse_part(eta, theta):
    dot = sum(Fraction(a) * Fraction(b) for a, b in zip(eta, theta))
    nn = sum(Fraction(b) ** 2 for b in theta)
    return tuple(Fraction(a) - dot / nn * Fraction(b) for a, b in zip(eta, theta))


def is_hyperbolic(sys: PdeSystem, direction, grid=None, seed=0, strict=False, x=None):
    """Real-rootedness of t -> sigma(t*theta + eta') over transverse grid
    covectors, by exact Sturm counts.

    Degenerate (value None) when sigma(theta) = 0: either the symbol does
    not involve the direction or the direction itself is characteristic.
    """
    theta = tuple(Fraction(v) for v in direction)
    if not any(theta):
        raise PreconditionError("direction covector must be nonzero")
    if grid is None:
        grid = default_grid(sys, seed=seed)
    sym = _scalar_symbol(sys)
    if sym is None:
        raise PreconditionError("hyperbolicity test implemented for single scalar equations")
    point = _rational_key(Fraction(v) for v in (sys.base_point if x is None else x))
    frozen = _IntSymbol([_poly_terms(sym, sys.n)], sys.n).at(point)[0]
    return _hyperbolicity(frozen, theta, [(s.xi, _int_vector(s.xi)) for s in grid], strict)


def _hyperbolicity(frozen, theta, covectors, strict):
    """is_hyperbolic for a frozen symbol given as integer terms (xi exponents,
    re, im), over (xi, xi scaled to an int vector) pairs.  theta and every
    transverse part are scaled to integer vectors by positive factors, which
    rescale t and leave the root counts as they are."""
    th = _int_vector(theta)
    k = max((sum(e) for e, _, _ in frozen), default=-1)
    lead = _direction_polynomial(frozen, th, [0] * len(th))
    if len(lead) - 1 < k or not lead:
        reason = (
            "principal symbol independent of the direction coordinate"
            if all(e[i] == 0 for e, _, _ in frozen for i in range(len(th)) if th[i])
            else "direction is characteristic"
        )
        return HyperbolicityReport(None, "degenerate", {"reason": reason})
    nn = sum(t * t for t in th)
    tested = 0
    for xi, v in covectors:
        dot = sum(a * b for a, b in zip(v, th))
        eta = [nn * a - dot * b for a, b in zip(v, th)]  # |theta|^2 times the transverse part
        if not any(eta):
            continue
        coeffs = _direction_polynomial(frozen, th, eta)
        tested += 1
        if not _real_rooted(coeffs, strict):
            return HyperbolicityReport(
                False,
                "not_hyperbolic",
                {
                    "kind": "sturm_counterexample",
                    "eta": [str(v) for v in _transverse_part(xi, theta)],
                    "distinct_real_roots": sturm_distinct_real_roots(coeffs),
                    "degree": len(coeffs) - 1,
                },
            )
    if tested == 0:
        return HyperbolicityReport(
            None, "degenerate", {"reason": "no transverse covectors in grid"}
        )
    return HyperbolicityReport(True, "hyperbolic", {"kind": "sturm", "samples": tested})


# -- cones ------------------------------------------------------------------------------------


class ConeSpec(namedtuple("ConeSpec", "generators kind")):
    __slots__ = ()

    def __new__(cls, generators, kind="closed"):  # kind: closed or open-convex
        generators = [tuple(Fraction(v) for v in g) for g in generators]
        if not generators:
            raise PreconditionError("cones need at least one generator")
        if kind not in ("closed", "open-convex"):
            raise PreconditionError(f"unknown cone kind {kind!r}")
        if kind == "open-convex":
            if ExactMatrix(generators).rank() != len(generators):
                raise PreconditionError("open-convex cones need independent generators")
            for g, h in combinations(generators, 2):
                if _opposite(g, h):
                    raise PreconditionError("open-convex cone contains an opposite pair")
        return super().__new__(cls, generators, kind)

    def contains(self, xi):
        xi = [Fraction(v) for v in xi]
        if not any(xi):
            return True
        gens = self.generators
        n = len(xi)
        for size in range(1, min(len(gens), n) + 1):
            for subset in combinations(gens, size):
                sol = ExactMatrix(list(subset)).transpose().solve_right(xi)
                if sol is None:
                    continue
                if all(c >= 0 for c in sol):
                    if self.kind == "closed" or all(c > 0 for c in sol):
                        return True
        return False


def _opposite(g, h):
    ratios = set()
    for a, b in zip(g, h):
        if a == 0 and b == 0:
            continue
        if a == 0 or b == 0:
            return False
        ratios.add(Fraction(a) / Fraction(b))
    return len(ratios) == 1 and next(iter(ratios)) < 0


def cones_intersect_trivially(a: ConeSpec, b: ConeSpec):
    """Generator-level test that the only shared point is the origin."""
    for g in a.generators:
        if any(g) and b.contains(g):
            return False
    for h in b.generators:
        if any(h) and a.contains(h):
            return False
    return True


# -- mixed-type classification -------------------------------------------------------------------


class Region(namedtuple("Region", "conditions")):
    """Polynomial sign conditions over the base variables: (MultiPoly over
    the base variables, op in {gt, ge, lt, le}) pairs."""

    __slots__ = ()

    def contains(self, x):
        for poly, op in self.conditions:
            val = poly.evaluate({v: Fraction(p) for v, p in zip(poly.vars, x)})
            if val.imag:
                raise PreconditionError("region polynomials must be real")
            ok = {"gt": val > 0, "ge": val >= 0, "lt": val < 0, "le": val <= 0}[op]
            if not ok:
                return False
        return True

    @staticmethod
    def everywhere():
        return Region([])


# labels: per sample, a dict with its label and details; strata: label -> count
ClassificationReport = namedtuple("ClassificationReport",
                                  "labels strata counterexamples cone_check")


def classify_mixed(
    sys: PdeSystem,
    region: Region,
    grid,
    directions=None,
    cones=None,
):
    """Label every (x; xi): characteristic / elliptic / hyperbolic(theta) /
    degenerate, with per-point frozen-symbol decisions.

    Hyperbolic labels use the strict Sturm test (simple real roots), so
    parabolic degeneracies like the fold line of a mixed-type model report
    as degenerate rather than weakly hyperbolic.
    """
    if directions is None:
        directions = axis_covectors(sys.n)[::2]  # +e_i directions
    # samples share their base and covector tuples (default_grid builds them
    # so), and the grid keeps each alive: key each tuple object once
    key_of = {}

    def rational_key(values):
        key = key_of.get(id(values))
        if key is None:
            key = key_of[id(values)] = _rational_key(values)
        return key

    keys = [(rational_key(s.x), rational_key(s.xi)) for s in grid]
    bases, pool = {}, {}
    for (xk, xik), s in zip(keys, grid):
        bases.setdefault(xk, s.x)
        pool.setdefault(xik, s.xi)
    for base in bases.values():
        if not region.contains(base):
            raise PreconditionError(f"grid sample {base} lies outside the region")
    cv = characteristic_ideal(sys)
    gens = cv.ideal.generators
    scalar = sys.m == 1
    # one integer symbol: the characteristic generators, then (scalar
    # systems) the full symbol of each equation, all orders, for freezing
    symbol = _IntSymbol([_poly_terms(g, sys.n) for g in gens]
                        + [_equation_terms(eq) for eq in sys.equations if scalar], sys.n)
    # a single scalar equation has a principal symbol to test for hyperbolicity
    principal_order = sys.equations[0].order() if scalar and len(sys.equations) == 1 else None
    xi_pool = list(pool.values())
    xi_int = {k: _int_vector(xi) for k, xi in pool.items()}
    covectors = [(xi, xi_int[k]) for k, xi in pool.items()]
    thetas = [tuple(Fraction(t) for t in theta) for theta in directions]
    elliptic_cache = {}
    hyperbolic_cache = {}

    def elliptic_at(key, x):
        """is_elliptic(frozen_system(sys, x)) over the pool.  A scalar system
        freezes per equation: one whose top-order coefficients vanish at x
        keeps its highest nonvanishing order."""
        if key not in elliptic_cache:
            try:
                if scalar:
                    rows = []
                    for terms in symbol.at(key)[len(gens):]:
                        if terms:
                            k = max(sum(e) for e, _, _ in terms)
                            rows.append([t for t in terms if sum(t[0]) == k])
                    elliptic_cache[key] = _ellipticity(
                        rows[0] if len(rows) == 1 else None,
                        ((x, xi, rows, vec) for xi, vec in covectors),
                        lambda: _saturates(characteristic_ideal(frozen_system(sys, x))),
                        len(covectors),
                    )
                else:
                    elliptic_cache[key] = is_elliptic(
                        frozen_system(sys, x), [CovectorSample(x, xi) for xi in xi_pool])
            except PreconditionError:  # PdeSystem rejects a frozen order of 0
                elliptic_cache[key] = False, {"kind": "skipped"}
        return elliptic_cache[key]

    def hyperbolic_at(key, j):
        """Whether is_hyperbolic(sys, thetas[j], strict=True, x=x) over the pool
        says True.  That depends on x only through the frozen principal
        symbol, so base points that freeze to the same terms share it."""
        if principal_order is None:
            return False
        frozen = tuple(t for t in symbol.at(key)[len(gens)] if sum(t[0]) == principal_order)
        if (frozen, j) not in hyperbolic_cache:
            try:
                value = _hyperbolicity(frozen, thetas[j], covectors, True).value is True
            except PreconditionError:
                value = False
            hyperbolic_cache[frozen, j] = value
        return hyperbolic_cache[frozen, j]

    def classify_sample(idx, sample):
        key, xi = keys[idx][0], xi_int[keys[idx][1]]
        if gens and all(_vanishes(g, xi) for g in symbol.at(key)[: len(gens)]):
            return {"index": idx, "label": "characteristic"}
        verdict, cert = elliptic_at(key, sample.x)
        if verdict:
            return {"index": idx, "label": "elliptic", "certificate": cert}
        for j, theta in enumerate(directions):
            if hyperbolic_at(key, j):
                return {
                    "index": idx,
                    "label": "hyperbolic",
                    "direction": [str(t) for t in theta],
                }
        return {"index": idx, "label": "degenerate"}

    labels = [classify_sample(idx, sample) for idx, sample in enumerate(grid)]
    strata = {}
    for lab in labels:
        strata[lab["label"]] = strata.get(lab["label"], 0) + 1
    counterexamples = []
    cone_check = None
    if cones is not None:
        lam, lam_prime = cones
        inside = True
        for lab, sample in zip(labels, grid):
            if lab["label"] != "characteristic":
                continue
            if not (lam.contains(sample.xi) or lam_prime.contains(sample.xi)):
                inside = False
                counterexamples.append(
                    {"x": [str(v) for v in sample.x], "xi": [str(v) for v in sample.xi]}
                )
        cone_check = {
            "union_covers_characteristics": inside,
            "trivial_intersection": cones_intersect_trivially(lam, lam_prime),
        }
    return ClassificationReport(labels, strata, counterexamples, cone_check)


# -- non-characteristic restriction ------------------------------------------------------------------


def noncharacteristic_restrict(sys: PdeSystem, embedding_columns, grid_seed=0):
    """Restrict along a rational linear embedding L -> R^n.

    embedding_columns: list of d column vectors spanning L.  Returns
    (restricted system or None, noncharacteristic flag, certificate).
    """
    n = sys.n
    cols = [tuple(Fraction(v) for v in c) for c in embedding_columns]
    d = len(cols)
    emb = ExactMatrix([[cols[j][i] for j in range(d)] for i in range(n)])
    if emb.rank() != d:
        raise PreconditionError("embedding must be injective")
    conormals = emb.transpose().kernel_basis()  # functionals killing L
    cv = characteristic_ideal(sys)
    amb = cv.ambient

    # substitute x = E xbar, xi = sum s_a * conormal_a
    par_vars = tuple(f"s{i+1}" for i in range(len(conormals))) + tuple(
        f"xb{i+1}" for i in range(d)
    )
    subs = {}
    for i, v in enumerate(sys.indep_vars):
        expr = MultiPoly.zero(par_vars)
        for j in range(d):
            expr = expr + MultiPoly.variable(par_vars, f"xb{j+1}") * cols[j][i]
        subs[v] = expr
    for i, v in enumerate(sys.indep_vars):
        expr = MultiPoly.zero(par_vars)
        for a, nu in enumerate(conormals):
            expr = expr + MultiPoly.variable(par_vars, f"s{a+1}") * nu[i]
        subs[xi_name(v)] = expr
    substituted = [g.extend(amb).substitute(subs) if g.vars != amb else g.substitute(subs)
                   for g in cv.ideal.generators]
    substituted = [g for g in substituted if g]

    restricted_ideal = PolyIdeal(par_vars, substituted)
    s_norm = MultiPoly.zero(par_vars)
    for a in range(len(conormals)):
        v = MultiPoly.variable(par_vars, f"s{a+1}")
        s_norm = s_norm + v * v
    certificate = None
    ok = False
    if not conormals:
        ok, certificate = True, {"kind": "full-dimensional"}
    elif restricted_ideal.generators and saturation_is_unit(restricted_ideal, s_norm):
        ok, certificate = True, {"kind": "saturation"}
    else:
        # grid falsification over conormal parameters and base points
        rng = random.Random(grid_seed)
        found = None
        trials = []
        for a in range(len(conormals)):
            unit = [Fraction(0)] * len(conormals)
            unit[a] = Fraction(1)
            trials.append(unit)
        for _ in range(40):
            trials.append(
                [Fraction(rng.randint(-3, 3)) for _ in range(len(conormals))]
            )
        for s_vals in trials:
            if not any(s_vals):
                continue
            for _ in range(5):
                xb = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
                point = {f"s{a+1}": s_vals[a] for a in range(len(conormals))}
                point.update({f"xb{j+1}": xb[j] for j in range(d)})
                if all(not g.evaluate(point) for g in restricted_ideal.generators):
                    found = (s_vals, xb)
                    break
            if found:
                break
        if found is not None:
            s_vals, xb = found
            nu = [
                sum(Fraction(s_vals[a]) * conormals[a][i] for a in range(len(conormals)))
                for i in range(n)
            ]
            return None, False, {
                "kind": "violating-conormal",
                "conormal": [str(v) for v in nu],
                "base": [str(v) for v in xb],
            }
        ok, certificate = True, {"kind": "grid", "samples": len(trials)}

    restricted = _pullback_system(sys, cols) if ok else None
    return restricted, ok, certificate


def _pullback_system(sys: PdeSystem, cols):
    """Scalar pullback: substitute the rational splitting xi = E (E^T E)^-1 eta."""
    if sys.m != 1:
        raise PreconditionError("restriction implemented for scalar systems")
    n, d = sys.n, len(cols)
    e = ExactMatrix([[cols[j][i] for j in range(d)] for i in range(n)])
    et_e = e.transpose() @ e
    # columns of the lift: solve (E^T E) w = eta basis vectors
    lift_cols = []
    for a in range(d):
        rhs = [1 if i == a else 0 for i in range(d)]
        w = et_e.solve_right(rhs)
        lift_cols.append([
            sum(e[i, j] * w[j] for j in range(d)) for i in range(n)
        ])
    new_vars = tuple(f"y{i+1}" for i in range(d))
    amb_new = new_vars + tuple(f"xi_{v}" for v in new_vars)
    subs = {}
    for i, v in enumerate(sys.indep_vars):
        xexpr = MultiPoly.zero(amb_new)
        for j in range(d):
            xexpr = xexpr + MultiPoly.variable(amb_new, new_vars[j]) * cols[j][i]
        subs[v] = xexpr
        xiexpr = MultiPoly.zero(amb_new)
        for a in range(d):
            xiexpr = xiexpr + MultiPoly.variable(amb_new, f"xi_{new_vars[a]}") * lift_cols[a][i]
        subs[xi_name(v)] = xiexpr
    eq_specs = []
    for row in principal_symbol_entries(sys):
        pulled = row[0].substitute(subs)
        if not pulled:
            continue
        spec = []
        for mono, c in pulled.terms.items():
            xpart = mono[:d]
            xipart = mono[d:]
            coeff = MultiPoly.monomial(new_vars, xpart, c)
            spec.append((coeff, 0, xipart))
        eq_specs.append(spec)
    if not eq_specs:
        # the symbol does not see the subspace: restriction imposes nothing
        return PdeSystem(new_vars, sys.unknowns, sys.order, [],
                         name=f"{sys.name}_restricted")
    return make_system(new_vars, sys.unknowns, eq_specs, name=f"{sys.name}_restricted")


# -- external products and factorization ----------------------------------------------------------------


def _kunneth_equal(cv: CharVariety, factors):
    """Whether the characteristic ideal of an external product equals the
    join of its factors' ideals, each renamed onto the next block of the
    product's variables: two ideals are equal exactly when their reduced
    Groebner bases are.  The join's basis is the union of the factors'
    (PolyIdeal.join); the product's ideal is completed on its own, so the
    two sides stay independent computations."""
    parts, at = [], 0
    for f in factors:
        k = len(f.base_vars)
        parts.append((f.ideal, cv.base_vars[at : at + k] + cv.xi_vars[at : at + k]))
        at += k
    return PolyIdeal.join(cv.ambient, parts).groebner() == cv.ideal.groebner()


def external_product_char(a: PdeSystem, b: PdeSystem):
    """Characteristic ideal of the external product plus the Kunneth check
    against the join of the factors."""
    from .systems import external_product

    cv = characteristic_ideal(external_product(a, b))
    return cv, _kunneth_equal(cv, [characteristic_ideal(a), characteristic_ideal(b)])


def factorization_check(sys: PdeSystem, max_copies=3):
    """Disjoint-partition factorization and diagonal-pullback containment
    for external powers of a single scalar generator system."""
    from .systems import external_product

    report = {"partition_checks": [], "diagonal_checks": [], "all_passed": True}
    chars = {s: characteristic_ideal(external_product(*[sys] * s))
             for s in range(1, max_copies + 1)}
    for s in range(2, max_copies + 1):
        for cut in range(1, s):
            ok = _kunneth_equal(chars[s], [chars[cut], chars[s - cut]])
            report["partition_checks"].append(
                {"copies": s, "partition": [list(range(1, cut + 1)),
                                            list(range(cut + 1, s + 1))], "equal": ok}
            )
            report["all_passed"] = report["all_passed"] and ok
    # diagonal pullback: collapse all copies onto one, covectors restricted to
    # the equal-component lift of eta (xi_i = eta / s)
    for s in range(2, max_copies + 1):
        cv = chars[s]
        target = chars[1]
        amb_t = target.ambient
        subs = {}
        for i in range(1, s + 1):
            for v in sys.indep_vars:
                subs[f"{v}{i}"] = MultiPoly.variable(amb_t, f"{v}1")
                subs[xi_name(f"{v}{i}")] = MultiPoly.variable(
                    amb_t, xi_name(f"{v}1")
                ) * Fraction(1, s)
        ok = True
        for g in cv.ideal.generators:
            pulled = g.substitute(subs)
            if not target.ideal.contains(pulled):
                ok = False
        report["diagonal_checks"].append({"copies": s, "target": 1, "contained": ok})
        report["all_passed"] = report["all_passed"] and ok
    return report
