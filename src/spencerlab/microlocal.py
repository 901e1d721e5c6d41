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

A grid is a pair (bases, covectors) of rational points and nonzero rational
covectors; its samples, and the labels of a classification, are every
(x; xi), base-major.  Grid classification runs over Z[i]: on ints, and on
QQis with int parts for complex symbols.  The symbol is compiled once per
system into such coefficients in (x, xi) over one common denominator
(`_IntSymbol`) and specialised once per base point, or in
`classify_mixed` once per distinct base key, the coordinates its
coefficients read; covectors are scaled to integers.
Sturm sequences are primitive pseudo-remainder sequences on int lists
(Collins 1967), which differ from the rational Sturm chain only by
positive factors and so give the same root counts.  A classification
freezes every system at x from that one symbol and saturates over xi alone.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd, lcm

from .errors import PreconditionError
from .groebner import PolyIdeal, saturation_is_unit
from .linalg import ExactMatrix, positive_definite
from .poly import MultiPoly
from .scalars import gaussian
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


class CharVariety(namedtuple("CharVariety", "base_vars xi_vars ideal")):
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
    ideal = PolyIdeal(amb, _generators(principal_symbol_entries(sys), sys.m))
    xi_positions = list(range(sys.n, 2 * sys.n))
    if not all(g.is_homogeneous_in(xi_positions) for g in ideal.generators):
        raise AssertionError("characteristic generators must be xi-homogeneous")
    return CharVariety(tuple(sys.indep_vars), amb[sys.n :], ideal)


def _generators(rows, m):
    """The characteristic generators of a symbol matrix, rows over m unknowns:
    its nonzero maximal minors, or every nonzero entry if it has rows < m."""
    if len(rows) < m:
        gens = [entry for row in rows for entry in row]
    else:
        gens = [poly_det([rows[i] for i in subset])
                for subset in combinations(range(len(rows)), m)]
    return [g for g in gens if g]


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


# -- grids ----------------------------------------------------------------------------

# Largest default grid, in samples: base points times the 2n + 4 covectors.  A
# larger --grid exits 3 before any draw, as JET_BUDGET, LATTICE_BUDGET and
# CROSSCHECK_BUDGET guard their layers.  The tests and the benchmark use at
# most 3,200 samples.  As a fresh command on the wave system, --grid 8192
# (65,536 samples) takes 0.37-0.5 s and writes a 3.9 MB report (Python 3.11,
# 2 vCPUs); the report grows linearly with the samples, the work with the
# distinct base keys and covectors.  A region draw stops after GRID_BUDGET
# candidates, which bounds an empty region: with the one condition
# t^2 + x^2 + 1 < 0, --grid 8192 exits 3 after 0.6 s as a fresh command on
# the same host.
GRID_BUDGET = 2**16


def _grid(grid):
    """A grid (bases, covectors) as two lists of Fraction tuples.  Every
    covector must be nonzero."""
    bases, covectors = grid
    bases = [tuple(Fraction(v) for v in x) for x in bases]
    covectors = [tuple(Fraction(v) for v in xi) for xi in covectors]
    if not all(any(xi) for xi in covectors):
        raise PreconditionError("covector samples need xi != 0")
    return bases, covectors


def axis_covectors(n):
    return [tuple(Fraction(s if j == i else 0) for j in range(n))
            for i in range(n) for s in (1, -1)]


def default_grid(sys: PdeSystem, base_count=4, seed=0, region=None):
    """Deterministic rational grid (bases, covectors): the origin plus seeded
    random base points, and the 2n axis covectors plus 4 seeded random ones.
    More than GRID_BUDGET samples is a PreconditionError, raised before any
    draw; in a region, the draw stops after 200 candidates per base point or
    GRID_BUDGET candidates, whichever is fewer."""
    n = sys.n
    if base_count * (2 * n + 4) > GRID_BUDGET:
        raise PreconditionError(
            f"a grid of {base_count} base points times {2 * n + 4} covectors is past "
            f"the work budget of {GRID_BUDGET} samples")
    rng = random.Random(seed)
    bases = [tuple(Fraction(0) for _ in range(n))]
    attempts = 0
    while len(bases) < base_count and attempts < min(200 * base_count, GRID_BUDGET):
        attempts += 1
        cand = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
        if region is not None and not region.contains(cand):
            continue
        bases.append(cand)
    if region is not None and not region.contains(bases[0]):
        bases = bases[1:]  # the origin, placed untested, still held its slot in the draw
    if not bases:
        raise PreconditionError("no grid base points inside the region")
    xis = axis_covectors(n)
    while len(xis) < 2 * n + 4:
        cand = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        if any(cand):
            xis.append(cand)
    return bases, xis


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
    """Polynomials in (x, xi) with coefficients over Z[i], specialised at
    base points x on demand.

    Each polynomial is a list of terms (x exponents, xi exponents, c), c an
    int or a QQi with int parts, over one common denominator.  At
    x = (p_i / q_i) every term is multiplied by the same positive constant,
    the denominator times prod q_i^top_i (top_i the largest exponent of
    x_i), so the specialised xi-coefficients are over Z[i] too.  A positive
    constant changes no zero test, no definiteness test and no real-root
    count.  `at` caches its specialisations per x; `specialise` does not.
    """

    def __init__(self, polys, n):
        """polys: per polynomial, (x exponents, xi exponents, coefficient) triples."""
        den = lcm(*(v.denominator for p in polys for _, _, c in p for v in (c.real, c.imag)))
        self.polys = [
            [(xe, ke, gaussian(c.real.numerator * (den // c.real.denominator),
                               c.imag.numerator * (den // c.imag.denominator)))
             for xe, ke, c in p]
            for p in polys
        ]
        self.tops = [max((xe[i] for p in self.polys for xe, _, _ in p), default=0)
                     for i in range(n)]
        self._cache = {}

    def at(self, point):
        """Per polynomial, its nonzero terms (xi exponents, c) at the point
        given by its _rational_key."""
        spec = self._cache.get(point)
        if spec is None:
            spec = self._cache[point] = self.specialise(point)
        return spec

    def specialise(self, point):
        powers = [[p**e * q ** (top - e) for e in range(top + 1)]
                  for (p, q), top in zip(point, self.tops)]
        return [_specialise(poly, powers) for poly in self.polys]


def _specialise(terms, powers):
    acc = {}
    for xe, ke, c in terms:
        f = 1
        for table, e in zip(powers, xe):
            f *= table[e]
        acc[ke] = acc.get(ke, 0) + c * f
    return [(ke, c) for ke, c in acc.items() if c]


def _rational_key(values):
    """Rationals as (numerator, denominator) pairs: a cheap exact dict key."""
    return tuple((v.numerator, v.denominator) for v in values)


def _poly_terms(poly, n):
    """Terms (x exponents, xi exponents, coefficient) of a polynomial over (x, xi)."""
    return [(m[:n], m[n:], c) for m, c in poly.terms.items()]


def _entry_terms(eq, a):
    """The same for the full symbol of eq at unknown a, every order included."""
    return [(m, alpha, c) for (b, alpha), coeff in eq.terms.items() if b == a
            for m, c in coeff.terms.items()]


def _vanishes(terms, xi):
    """Whether terms (xi exponents, c) over Z[i] sum to 0 at the int covector xi."""
    total = 0
    for e, c in terms:
        m = 1
        for v, k in zip(xi, e):
            if k:
                m *= v**k
        total += c * m
    return not total


# -- ellipticity ------------------------------------------------------------------------


def _definiteness(terms):
    """"positive" or "negative" for a definite real quadratic form given as
    nonempty terms (xi exponents, c) over Z[i], "" for any other real
    quadratic form, None if the terms are not a real quadratic form."""
    if any(c.imag or sum(e) != 2 for e, c in terms):
        return None
    n = len(terms[0][0])
    gram = [[0] * n for _ in range(n)]  # twice the Gram matrix
    for e, c in terms:
        i, j = [i for i, k in enumerate(e) for _ in range(k)]
        gram[i][j] += c
        gram[j][i] += c
    for sign, tag in ((1, "positive"), (-1, "negative")):
        if positive_definite([[sign * v for v in row] for row in gram]):
            return tag
    return ""


def _ellipticity(quadratic, samples, saturates, count):
    """The one ellipticity ladder: (verdict, certificate).  is_elliptic,
    classify_mixed (per label row) and noncharacteristic_restrict
    (on the restricted variety) all decide through it.

    quadratic: the Z[i] terms of the one frozen principal symbol, or
    None.  samples: (x, xi, Z[i] generators at x, integer xi) tuples,
    read lazily; the test uses the integer xi, and xi is only the covector
    a counterexample certificate names.  saturates: the saturation test,
    called only when no sample is a counterexample.  count: the samples a
    grid verdict covers.

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


def _saturates(ideal: PolyIdeal, xi_vars):
    """Whether saturating a characteristic ideal by |xi|^2 gives the unit ideal."""
    norm2 = MultiPoly.zero(ideal.ambient)
    for xi in xi_vars:
        v = MultiPoly.variable(ideal.ambient, xi)
        norm2 = norm2 + v * v
    return saturation_is_unit(ideal, norm2)


def is_elliptic(sys: PdeSystem, grid=None, seed=0):
    """(verdict, certificate): no real characteristic covectors off xi = 0,
    decided by _ellipticity over every sample of the grid, and a grid
    certificate counts them all, repeats included.  Only a constant-coefficient
    single scalar equation has a frozen quadratic symbol to test for
    definiteness."""
    bases, covectors = _grid(default_grid(sys, seed=seed) if grid is None else grid)
    if not bases or not covectors:
        raise PreconditionError("is_elliptic needs a nonempty grid")
    cv = characteristic_ideal(sys)
    symbol = _IntSymbol([_poly_terms(g, sys.n) for g in cv.ideal.generators], sys.n)
    quadratic = None
    if sys.m == 1 and len(sys.equations) == 1 and sys.constant_coefficient:
        # the one generator is the principal symbol
        quadratic = symbol.at(_rational_key(sys.base_point))[0]
    samples = ((x, xi, symbol.at(_rational_key(x)), _int_vector(xi))
               for x in bases for xi in covectors)
    return _ellipticity(quadratic, samples, lambda: _saturates(cv.ideal, cv.xi_vars),
                        len(bases) * len(covectors))


# -- hyperbolicity -------------------------------------------------------------------------


# value: True, False or None (degenerate); status: "hyperbolic",
# "not_hyperbolic" or "degenerate"
HyperbolicityReport = namedtuple("HyperbolicityReport", "value status certificate")


def _direction_polynomial(terms, theta, eta):
    """sigma(t*theta + eta) as an ascending coefficient list in t, for sigma
    given as terms (xi exponents, c): each term expands as its coefficient
    times the product of (eta_i + theta_i*t)^alpha_i.  Exact on Z[i] and on
    Q(i) alike."""
    lines = [[e, th] for e, th in zip(eta, theta)]
    acc = []
    for mono, c in terms:
        prod = [1]
        for line, e in zip(lines, mono):
            for _ in range(e):
                prod = _poly_mul(prod, line)
        acc.extend([0] * (len(prod) - len(acc)))
        for j, x in enumerate(prod):
            acc[j] += c * x
    if any(x.imag for x in acc):
        raise PreconditionError("real coefficients required for root counting")
    return _poly_trim(acc)


def _transverse_part(eta, theta):
    dot = sum(Fraction(a) * Fraction(b) for a, b in zip(eta, theta))
    nn = sum(Fraction(b) ** 2 for b in theta)
    return tuple(Fraction(a) - dot / nn * Fraction(b) for a, b in zip(eta, theta))


def is_hyperbolic(sys: PdeSystem, direction, grid=None, seed=0, strict=False, x=None):
    """Real-rootedness of t -> sigma(t*theta + eta') over the transverse
    parts of the grid's covectors, by exact Sturm counts.  The symbol is
    frozen at x (default: the base point), so each covector is tested once
    and a Sturm certificate counts it once per base point of the grid.

    Degenerate (value None) when sigma(theta) = 0: either the symbol does
    not involve the direction or the direction itself is characteristic.
    """
    theta = tuple(Fraction(v) for v in direction)
    if not any(theta):
        raise PreconditionError("direction covector must be nonzero")
    bases, covectors = _grid(default_grid(sys, seed=seed) if grid is None else grid)
    if sys.m != 1 or len(sys.equations) != 1:
        raise PreconditionError("hyperbolicity test implemented for single scalar equations")
    eq = sys.equations[0]
    principal = [t for t in _entry_terms(eq, 0) if sum(t[1]) == eq.order()]
    point = _rational_key(Fraction(v) for v in (sys.base_point if x is None else x))
    frozen = _IntSymbol([principal], sys.n).at(point)[0]
    pairs = [(xi, _int_vector(xi)) for xi in covectors] if bases else []  # else no sample
    return _hyperbolicity(frozen, theta, pairs, strict, len(bases))


def _hyperbolicity(frozen, theta, covectors, strict, copies=1):
    """is_hyperbolic for a frozen symbol given as terms (xi exponents, c)
    over Z[i], over (xi, xi scaled to an int vector) pairs that a Sturm
    certificate counts `copies` times each.  theta and every transverse part
    are scaled to integer vectors by positive factors, which rescale t and
    leave the root counts as they are."""
    th = _int_vector(theta)
    k = max((sum(e) for e, _ in frozen), default=-1)
    lead = _direction_polynomial(frozen, th, [0] * len(th))
    if len(lead) - 1 < k or not lead:
        reason = (
            "principal symbol independent of the direction coordinate"
            if all(e[i] == 0 for e, _ in frozen for i in range(len(th)) if th[i])
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
    return HyperbolicityReport(True, "hyperbolic", {"kind": "sturm", "samples": copies * tested})


# -- cones ------------------------------------------------------------------------------------


def farkas(rows, rhs):
    """Farkas' lemma, decided: (x, None) with x >= 0 and rows x = rhs, or
    (None, y) with y rows >= 0 and y rhs < 0; exactly one of them exists.
    Phase I of the simplex method over Fractions from the artificial basis,
    with Bland's smallest-index rule, which cannot cycle; at its optimum y
    is read off the artificial columns of the reduced costs (Schrijver,
    Theory of Linear and Integer Programming, 1986, ch. 7 and 11)."""
    m, k = len(rows), len(rows[0])
    sign = [-1 if b < 0 else 1 for b in rhs]
    t = [[s * Fraction(v) for v in row] + [Fraction(int(i == r)) for r in range(m)]
         + [s * Fraction(b)] for i, (row, b, s) in enumerate(zip(rows, rhs, sign))]
    # reduced costs of the sum of the artificials; the last entry is minus that sum
    cost = [int(k <= j < k + m) - sum(col) for j, col in enumerate(zip(*t))]
    basis = list(range(k, k + m))
    while (j := next((j for j, c in enumerate(cost[:-1]) if c < 0), None)) is not None:
        r = min((t[i][-1] / t[i][j], basis[i], i) for i in range(m) if t[i][j] > 0)[2]
        t[r] = [v / t[r][j] for v in t[r]]
        for row in t + [cost]:
            if row is not t[r] and (f := row[j]):
                row[:] = [v - f * p for v, p in zip(row, t[r])]
        basis[r] = j
    if cost[-1]:
        return None, [s * (c - 1) for s, c in zip(sign, cost[k:k + m])]
    value = {b: row[-1] for b, row in zip(basis, t)}
    return [value.get(j, Fraction(0)) for j in range(k)], None


class ConeSpec(namedtuple("ConeSpec", "generators kind")):
    __slots__ = ()

    def __new__(cls, generators, kind="closed"):  # kind: closed or open-convex
        generators = [tuple(Fraction(v) for v in g) for g in generators]
        if len({len(g) for g in generators}) != 1:
            raise PreconditionError("cones need at least one generator, all of one length")
        if kind not in ("closed", "open-convex"):
            raise PreconditionError(f"unknown cone kind {kind!r}")
        if kind == "open-convex":
            if ExactMatrix(generators).rank() != len(generators):
                raise PreconditionError("open-convex cones need independent generators")
        return super().__new__(cls, generators, kind)

    def contains(self, xi):
        """Membership of xi, by one `farkas` call on (generators^T, xi).  A
        closed cone holds every nonnegative combination of its generators,
        the origin included.  An open-convex cone, whose generators are
        independent and so give xi at most one combination, holds exactly
        those with every coefficient positive: neither its boundary nor the
        origin."""
        x, _ = farkas(list(zip(*self.generators)), xi)
        return x is not None and (self.kind == "closed" or all(c > 0 for c in x))


def cone_intersection(a: ConeSpec, b: ConeSpec):
    """(trivial, certificate): whether the cones share no point but the
    origin, decided by `farkas` on A alpha = B beta for the generator
    matrices A, B.  Two closed cones take one call per signed axis, with
    the row e_k^T A alpha = -1, then +1, added: a feasible call gives a
    common point p != 0; else the Farkas covector of each call writes +e_k,
    then -e_k, as y + z with y >= 0 on A and z >= 0 on B, so the dual cones
    sum to R^n, which holds exactly when the cones meet only at 0, pointed
    or not.  An open cone's
    coefficients are positive, so by scaling >= 1: shifted by 1, one call
    decides, and its Farkas covector is >= 0 on A, <= 0 on B and strict on
    an open cone."""
    ga, gb = a.generators, b.generators
    n = len(ga[0])
    lhs = [[g[i] for g in ga] + [-h[i] for h in gb] for i in range(n)]
    if "open-convex" in (a.kind, b.kind):
        shift = [int(a.kind != "closed")] * len(ga) + [int(b.kind != "closed")] * len(gb)
        x, y = farkas(lhs, [-sum(v * s for v, s in zip(row, shift)) for row in lhs])
        if x is None:
            return True, {"kind": "separating", "covector": y}
        x = [c + s for c, s in zip(x, shift)]
    else:
        splits = []
        for k, s in product(range(n), (-1, 1)):
            x, y = farkas(lhs + [[g[k] for g in ga] + [0] * len(gb)], [0] * n + [s])
            if x is not None:
                break
            u, t = y[:n], abs(y[n])
            splits.append([[(v + y[n] * (i == k)) / t for i, v in enumerate(u)],
                           [-v / t for v in u]])
        else:
            return True, {"kind": "dual_cover", "covectors": splits}
    alpha, beta = x[:len(ga)], x[len(ga):]
    point = [sum(c * g[i] for c, g in zip(alpha, ga)) for i in range(n)]
    return False, {"kind": "common_point", "point": point, "coefficients": [alpha, beta]}


# -- mixed-type classification -------------------------------------------------------------------


class Region(namedtuple("Region", "conditions")):
    """Polynomial sign conditions over the base variables: (MultiPoly, op in
    {gt, ge, lt, le}) pairs, read positionally (classify extends them by name
    onto the system's variables).  They are compiled on first use into one
    _IntSymbol with no xi, whose positive scale at a point keeps every sign."""

    @cached_property
    def _symbol(self):
        n = max((len(poly.vars) for poly, _ in self.conditions), default=0)
        return _IntSymbol([[(m + (0,) * (n - len(m)), (), c) for m, c in poly.terms.items()]
                           for poly, _ in self.conditions], n)

    def contains(self, x):
        values = self._symbol.specialise(_rational_key(x))
        for (_, op), terms in zip(self.conditions, values):
            val = terms[0][1] if terms else 0  # the one term has no xi
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
    """Label every sample (x; xi) of the grid: characteristic / elliptic /
    hyperbolic(theta) / degenerate, from one label row per distinct base
    key and one cone verdict per distinct covector.

    The key of x is its coordinates at the base variables that some
    coefficient of some equation reads.  The frozen system and every
    specialisation of the compiled symbol depend on x only through them, and
    no label names x (an elliptic label prints only a definite, saturation
    or grid certificate), so base points with one key share one row: the
    labels over the grid's covectors, with the frozen decisions reading each
    distinct covector once, in first-occurrence order.

    Hyperbolic labels use the strict Sturm test (simple real roots), so
    parabolic degeneracies like the fold line of a mixed-type model report
    as degenerate rather than weakly hyperbolic.
    """
    if directions is None:
        directions = axis_covectors(sys.n)[::2]  # +e_i directions
    bases, covectors = _grid(grid)
    for base in bases:
        if not region.contains(base):
            raise PreconditionError(f"grid sample {base} lies outside the region")
    cv = characteristic_ideal(sys)
    gens, m, xi_vars = cv.ideal.generators, sys.m, cv.xi_vars
    # one integer symbol: the characteristic generators, then the full symbol
    # of every (equation, unknown) entry, all orders, for freezing
    symbol = _IntSymbol([_poly_terms(g, sys.n) for g in gens]
                        + [_entry_terms(eq, a) for eq in sys.equations for a in range(m)],
                        sys.n)
    # a single scalar equation has a principal symbol to test for hyperbolicity
    principal_order = sys.equations[0].order() if m == 1 and len(sys.equations) == 1 else None
    read = sorted({i for eq in sys.equations for coeff in eq.terms.values()
                   for mono in coeff.terms for i, e in enumerate(mono) if e})
    pool = [(xi, _int_vector(xi)) for xi in dict.fromkeys(covectors)]
    vectors = [_int_vector(xi) for xi in covectors]
    thetas = [tuple(Fraction(t) for t in theta) for theta in directions]
    hyperbolic_cache = {}

    def elliptic_at(spec, x):
        """is_elliptic of the system frozen at x, over the pool.  Each
        equation keeps its highest order that does not vanish at x, and one
        that vanishes at x drops out.  A frozen order of 0 is skipped: no
        system has order 0."""
        rows, order = [], -1
        for at in range(len(gens), len(spec), m):
            k = max((sum(e) for terms in spec[at:at + m] for e, _ in terms), default=-1)
            if k >= 0:
                rows.append([MultiPoly(xi_vars, {e: c for e, c in terms if sum(e) == k},
                                       _clean=False) for terms in spec[at:at + m]])
                order = max(order, k)
        if order == 0:
            return False, {"kind": "skipped"}
        frozen = _generators(rows, m)
        return _ellipticity(
            list(frozen[0].terms.items()) if m == 1 and len(rows) == 1 else None,
            ((x, xi, [g.terms.items() for g in frozen], vec) for xi, vec in pool),
            # over xi alone; scalar() keeps monic from dividing int coefficients into floats
            lambda: _saturates(PolyIdeal(xi_vars, [MultiPoly(xi_vars, g.terms) for g in frozen]),
                               xi_vars),
            len(pool))

    def hyperbolic_at(spec, j):
        """Whether is_hyperbolic(sys, thetas[j], strict=True, x=x) over the pool
        says True.  That depends on x only through the frozen principal
        symbol, so rows that freeze to the same terms share it."""
        if principal_order is None:
            return False
        frozen = tuple(t for t in spec[len(gens)] if sum(t[0]) == principal_order)
        if (frozen, j) not in hyperbolic_cache:
            try:
                value = _hyperbolicity(frozen, thetas[j], pool, True).value is True
            except PreconditionError:
                value = False
            hyperbolic_cache[frozen, j] = value
        return hyperbolic_cache[frozen, j]

    def label_row(x):
        """The labels at x over `vectors`; the frozen decisions run only if
        some covector is not characteristic, as each sample would run them."""
        spec = symbol.specialise(_rational_key(x))
        char = [bool(gens) and all(_vanishes(g, vec) for g in spec[:len(gens)])
                for vec in vectors]
        other = None
        if not all(char):
            verdict, cert = elliptic_at(spec, x)
            if verdict:
                other = {"label": "elliptic", "certificate": cert}
            else:
                j = next((j for j in range(len(thetas)) if hyperbolic_at(spec, j)), None)
                other = ({"label": "degenerate"} if j is None else
                         {"label": "hyperbolic", "direction": [str(t) for t in directions[j]]})
        return [{"label": "characteristic"} if c else other for c in char]

    keys = [tuple((x[i].numerator, x[i].denominator) for i in read) for x in bases]
    rows = {}
    for key, x in zip(keys, bases):
        if key not in rows:
            rows[key] = label_row(x)
    labels = [{"index": idx, **entry}
              for idx, entry in enumerate(entry for key in keys for entry in rows[key])]
    strata = {}
    for lab in labels:
        strata[lab["label"]] = strata.get(lab["label"], 0) + 1
    counterexamples = []
    cone_check = None
    if cones is not None:
        lam, lam_prime = cones
        inside = True
        covered = {}  # covector -> in the union, decided when first met
        for lab, (x, xi) in zip(labels, product(bases, covectors)):
            if lab["label"] != "characteristic":
                continue
            if xi not in covered:
                covered[xi] = lam.contains(xi) or lam_prime.contains(xi)
            if not covered[xi]:
                inside = False
                counterexamples.append({"x": [str(v) for v in x], "xi": [str(v) for v in xi]})
        trivial, certificate = cone_intersection(lam, lam_prime)
        cone_check = {"union_covers_characteristics": inside,
                      "trivial_intersection": trivial, "certificate": certificate}
    return ClassificationReport(labels, strata, counterexamples, cone_check)


# -- non-characteristic restriction ------------------------------------------------------------------


def noncharacteristic_restrict(sys: PdeSystem, embedding_columns, grid_seed=0):
    """Restrict a scalar system along a rational linear embedding L -> R^n.

    embedding_columns: d column vectors spanning L.  Returns (restricted
    system or None, noncharacteristic flag, certificate).  L is
    noncharacteristic iff Char(P) meets its conormal bundle only in the zero
    section (Kashiwara-Schapira 1990, 5.4), that is iff Char(P) pulled back
    to (xbar in L, xi = sum s_a nu_a), nu_a a basis of the conormals, is
    elliptic in s; _ellipticity decides it.  Certificates: full-dimensional
    (L = R^n), violating-conormal (a real conormal and base point on
    Char(P)), saturation or grid.
    """
    if sys.m != 1:
        raise PreconditionError("restriction implemented for scalar systems")
    n = sys.n
    cols = [tuple(Fraction(v) for v in c) for c in embedding_columns]
    d = len(cols)
    emb = ExactMatrix([[cols[j][i] for j in range(d)] for i in range(n)])
    if emb.rank() != d:
        raise PreconditionError("embedding must be injective")
    conormals = emb.transpose().kernel_basis()  # functionals killing L
    if not conormals:
        return _pullback_system(sys, cols), True, {"kind": "full-dimensional"}
    k = len(conormals)
    xb = tuple(f"xb{j+1}" for j in range(d))
    s = tuple(f"s{a+1}" for a in range(k))
    subs = _linear_substitution(sys, xb + s, cols, conormals)
    gens = [g.substitute(subs) for g in characteristic_ideal(sys).ideal.generators]
    ideal = PolyIdeal(xb + s, gens)
    symbol = _IntSymbol([_poly_terms(g, d) for g in ideal.generators], d)

    def samples():
        """The unit parameters, then 40 seeded ones (all drawn before any
        base point), each nonzero one at 5 seeded base points in [-2, 2]^d."""
        rng = random.Random(grid_seed)
        units = [[int(a == b) for b in range(k)] for a in range(k)]
        for vec in units + [[rng.randint(-3, 3) for _ in range(k)] for _ in range(40)]:
            if any(vec):
                for _ in range(5):
                    base = tuple(rng.randint(-2, 2) for _ in range(d))
                    # the conormal, computed only if a certificate reads it
                    nu = (sum(c * conormals[a][i] for a, c in enumerate(vec)) for i in range(n))
                    yield base, nu, symbol.at(_rational_key(base)), vec

    ok, cert = _ellipticity(None, samples(), lambda: _saturates(ideal, s), k + 40)
    if not ok:
        return None, False, {"kind": "violating-conormal", "conormal": cert["xi"],
                             "base": cert["x"]}
    return _pullback_system(sys, cols), True, cert


def _linear_substitution(sys: PdeSystem, amb, cols, covectors):
    """x = sum_j amb[j] cols[j] and xi = sum_a amb[len(cols) + a] covectors[a],
    as polynomials over amb."""
    def combination(names, vectors, i):
        return sum((MultiPoly.variable(amb, name) * vec[i] for name, vec in zip(names, vectors)),
                   MultiPoly.zero(amb))

    base, fibre = amb[: len(cols)], amb[len(cols):]
    subs = {}
    for i, v in enumerate(sys.indep_vars):
        subs[v], subs[xi_name(v)] = combination(base, cols, i), combination(fibre, covectors, i)
    return subs


def _pullback_system(sys: PdeSystem, cols):
    """Scalar pullback: substitute the rational splitting xi = E (E^T E)^-1 eta."""
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
    subs = _linear_substitution(sys, new_vars + tuple(f"xi_{v}" for v in new_vars),
                                cols, lift_cols)
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
