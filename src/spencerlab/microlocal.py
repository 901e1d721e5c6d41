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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import PreconditionError
from .groebner import PolyIdeal, saturation_is_unit
from .linalg import ExactMatrix, gram_is_positive_definite
from .poly import MultiPoly
from .scalars import QQi
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


@dataclass
class CharVariety:
    base_vars: tuple
    xi_vars: tuple
    ideal: PolyIdeal
    conic: bool
    dimension: object  # natural, or None for the empty variety

    @property
    def ambient(self):
        return self.base_vars + self.xi_vars


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
    return CharVariety(tuple(sys.indep_vars), amb[sys.n :], ideal, conic, ideal.dimension())


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


@dataclass
class CovectorSample:
    x: tuple
    xi: tuple

    def __post_init__(self):
        self.x = tuple(Fraction(v) for v in self.x)
        self.xi = tuple(Fraction(v) for v in self.xi)
        if not any(self.xi):
            raise PreconditionError("covector samples need xi != 0")


def axis_covectors(n):
    out = []
    for i in range(n):
        for s in (1, -1):
            out.append(tuple(Fraction(s if j == i else 0) for j in range(n)))
    return out


def default_grid(sys: PdeSystem, base_count=4, xi_count=4, seed=0, region=None):
    """Deterministic rational grid: axis covectors plus seeded random ones."""
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
    while len(xis) < 2 * n + xi_count:
        cand = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        if any(cand):
            xis.append(cand)
    return [CovectorSample(b, xi) for b in bases for xi in xis]


# -- exact univariate real-root machinery --------------------------------------------


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_deriv(c):
    return _poly_trim([c[i] * i for i in range(1, len(c))])


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    """(quotient, remainder) of ascending coefficient lists, b nonzero."""
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * (len(a) - db)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        f = a[-1] / lb
        q[shift] = f
        for i in range(len(b)):
            a[shift + i] -= f * b[i]
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_gcd(a, b):
    a, b = a[:], b[:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return a


def sturm_distinct_real_roots(coeffs):
    """Number of distinct real roots via a Sturm chain, exact arithmetic."""
    p = _poly_trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        return 0
    chain = [p, _poly_deriv(p)]
    while chain[-1]:
        r = _poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])

    def variations(at_plus):
        signs = []
        for q in chain:
            if not q:
                continue
            lc = q[-1]
            deg = len(q) - 1
            s = lc if at_plus else lc * (-1) ** deg
            if s:
                signs.append(1 if s > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(False) - variations(True)


def all_roots_real(coeffs, strict=False):
    """Real-rootedness: strict demands simple roots; weak allows multiplicity."""
    p = _poly_trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        return bool(p)  # nonzero constants have no roots to fail
    if strict:
        return sturm_distinct_real_roots(p) == len(p) - 1
    g = _poly_gcd(p, _poly_deriv(p))
    q = _poly_divmod(p, g)[0] if len(g) > 1 else p
    return sturm_distinct_real_roots(q) == len(q) - 1


# -- ellipticity ------------------------------------------------------------------------


def _scalar_symbol(sys: PdeSystem):
    rows = principal_symbol_entries(sys)
    if sys.m != 1 or len(rows) != 1:
        return None
    return rows[0][0]


def _xi_gram(symbol: MultiPoly, n):
    """Exact Gram matrix of a real quadratic form in the xi block, or None."""
    gram = [[Fraction(0)] * n for _ in range(n)]
    for mono, c in symbol.terms.items():
        if any(mono[:len(mono) - n][i] for i in range(len(mono) - n)):
            return None  # variable coefficients
        if not c.is_real:
            return None
        xi = mono[len(mono) - n :]
        if sum(xi) != 2:
            return None
        hot = [i for i, e in enumerate(xi) if e]
        if len(hot) == 1:
            gram[hot[0]][hot[0]] += c.re
        else:
            i, j = hot
            gram[i][j] += c.re / 2
            gram[j][i] += c.re / 2
    return gram


def is_elliptic(sys: PdeSystem, grid=None, seed=0):
    """(verdict, certificate): no real characteristic covectors off xi = 0.

    Decision ladder: exact definiteness decides constant real quadratic
    scalar symbols in both directions (a non-definite quadratic form always
    has a real zero off the origin, rational or not); then an exact
    saturation certificate V(I) inside V(|xi|^2); then grid falsification.
    A grid pass is an honest 'verified on grid' verdict.
    """
    if grid is None:
        grid = default_grid(sys, seed=seed)
    if not grid:
        raise PreconditionError("is_elliptic needs a nonempty grid")
    cv = characteristic_ideal(sys)
    n = sys.n
    sym = _scalar_symbol(sys)
    if sym is not None and sys.constant_coefficient:
        gram = _xi_gram(sym, n)
        if gram is not None:
            for signed, tag in ((gram, "positive"), ([[-x for x in row] for row in gram], "negative")):
                if gram_is_positive_definite(ExactMatrix(signed)):
                    return True, {"kind": "definite", "sign": tag}
            # not definite: a real characteristic covector exists
            return False, _grid_counterexample(sys, grid, cv) or {"kind": "indefinite"}
    amb = cv.ambient
    norm2 = MultiPoly.zero(amb)
    for xi in cv.xi_vars:
        v = MultiPoly.variable(amb, xi)
        norm2 = norm2 + v * v
    if cv.ideal.generators and saturation_is_unit(cv.ideal, norm2):
        return True, {"kind": "saturation"}
    cert = _grid_counterexample(sys, grid, cv)
    return (False, cert) if cert else (True, {"kind": "grid", "samples": len(grid)})


def _grid_counterexample(sys, grid, cv):
    """Certificate for the first grid covector where every generator vanishes."""
    for sample in grid:
        point = _sample_point(sys, sample)
        if all(not g.evaluate(point) for g in cv.ideal.generators):
            return {
                "kind": "counterexample",
                "x": [str(v) for v in sample.x],
                "xi": [str(v) for v in sample.xi],
            }
    return None


def _sample_point(sys, sample):
    point = {v: Fraction(p) for v, p in zip(sys.indep_vars, sample.x)}
    point.update(
        {xi_name(v): Fraction(p) for v, p in zip(sys.indep_vars, sample.xi)}
    )
    return point


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


@dataclass
class HyperbolicityReport:
    value: object  # True / False / None (degenerate)
    status: str  # "hyperbolic" / "not_hyperbolic" / "degenerate"
    certificate: dict = field(default_factory=dict)


def _frozen_scalar_symbol(sys: PdeSystem, x=None):
    sym = _scalar_symbol(sys)
    if sym is None:
        raise PreconditionError("hyperbolicity test implemented for single scalar equations")
    point = sys.point_map(x)
    xi_vars = tuple(xi_name(v) for v in sys.indep_vars)
    frozen = MultiPoly.zero(xi_vars)
    for mono, c in sym.terms.items():
        xpart = mono[: sys.n]
        xipart = mono[sys.n :]
        val = c
        for e, v in zip(xpart, sys.indep_vars):
            for _ in range(e):
                val = val * QQi(point[v])
        if val:
            frozen = frozen + MultiPoly.monomial(xi_vars, xipart, val)
    return frozen


def _direction_polynomial(frozen, theta, eta):
    """sigma(t*theta + eta) as an ascending coefficient list in t: each term
    c*xi^alpha expands as c times the product of (eta_i + theta_i*t)^alpha_i."""
    lines = [[Fraction(eta[i]), Fraction(theta[i])] for i in range(len(frozen.vars))]
    re, im = [], []
    for mono, c in frozen.terms.items():
        prod = [Fraction(1)]
        for line, e in zip(lines, mono):
            for _ in range(e):
                prod = _poly_mul(prod, line)
        for acc, part in ((re, c.re), (im, c.im)):
            if part:
                acc.extend([Fraction(0)] * (len(prod) - len(acc)))
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
    frozen = _frozen_scalar_symbol(sys, x)
    k = frozen.total_degree()
    lead = _direction_polynomial(frozen, theta, tuple(Fraction(0) for _ in theta))
    if len(lead) - 1 < k or not lead:
        reason = (
            "principal symbol independent of the direction coordinate"
            if all(m[i] == 0 for m in frozen.terms
                   for i in range(len(theta)) if theta[i])
            else "direction is characteristic"
        )
        return HyperbolicityReport(None, "degenerate", {"reason": reason})
    tested = 0
    for sample in grid:
        eta = _transverse_part(sample.xi, theta)
        if not any(eta):
            continue
        coeffs = _direction_polynomial(frozen, theta, eta)
        tested += 1
        if not all_roots_real(coeffs, strict=strict):
            return HyperbolicityReport(
                False,
                "not_hyperbolic",
                {
                    "kind": "sturm_counterexample",
                    "eta": [str(v) for v in eta],
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


@dataclass
class ConeSpec:
    generators: list
    kind: str = "closed"  # or "open-convex"

    def __post_init__(self):
        self.generators = [tuple(Fraction(v) for v in g) for g in self.generators]
        if not self.generators:
            raise PreconditionError("cones need at least one generator")
        if self.kind not in ("closed", "open-convex"):
            raise PreconditionError(f"unknown cone kind {self.kind!r}")
        if self.kind == "open-convex":
            mat = ExactMatrix(self.generators)
            if mat.rank() != len(self.generators):
                raise PreconditionError("open-convex cones need independent generators")
            for g, h in combinations(self.generators, 2):
                if _opposite(g, h):
                    raise PreconditionError("open-convex cone contains an opposite pair")

    def contains(self, xi):
        xi = [Fraction(v) for v in xi]
        if not any(xi):
            return True
        gens = self.generators
        n = len(xi)
        for size in range(1, min(len(gens), n) + 1):
            for subset in combinations(gens, size):
                sol = ExactMatrix(list(subset)).transpose().solve_right(
                    [QQi(v) for v in xi]
                )
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


@dataclass
class Region:
    """Polynomial sign conditions over the base variables."""

    conditions: list  # (MultiPoly over base vars, op in {gt, ge, lt, le})

    def contains(self, x):
        for poly, op in self.conditions:
            val = poly.evaluate({v: Fraction(p) for v, p in zip(poly.vars, x)})
            if not val.is_real:
                raise PreconditionError("region polynomials must be real")
            v = val.re
            ok = {"gt": v > 0, "ge": v >= 0, "lt": v < 0, "le": v <= 0}[op]
            if not ok:
                return False
        return True

    @staticmethod
    def everywhere():
        return Region([])


@dataclass
class ClassificationReport:
    labels: list  # per sample: dict with label and details
    strata: dict  # label -> count
    counterexamples: list
    cone_check: dict = None

    def label_of(self, i):
        return self.labels[i]["label"]


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
    for s in grid:
        if not region.contains(s.x):
            raise PreconditionError(f"grid sample {s.x} lies outside the region")
    cv = characteristic_ideal(sys)
    elliptic_cache = {}
    hyperbolic_cache = {}
    xi_pool = []
    seen_xi = set()
    for s in grid:
        if s.xi not in seen_xi:
            seen_xi.add(s.xi)
            xi_pool.append(s.xi)

    def elliptic_at(x):
        if x not in elliptic_cache:
            sub_grid = [CovectorSample(x, xi) for xi in xi_pool]
            try:
                frozen = frozen_system(sys, x)
                verdict, cert = is_elliptic(frozen, sub_grid)
            except PreconditionError:
                verdict, cert = False, {"kind": "skipped"}
            elliptic_cache[x] = (verdict, cert)
        return elliptic_cache[x]

    def hyperbolic_at(x, theta):
        key = (x, theta)
        if key not in hyperbolic_cache:
            sub_grid = [CovectorSample(x, xi) for xi in xi_pool]
            try:
                rep = is_hyperbolic(sys, theta, grid=sub_grid, strict=True, x=x)
            except PreconditionError:
                rep = HyperbolicityReport(None, "degenerate", {"reason": "skipped"})
            hyperbolic_cache[key] = rep
        return hyperbolic_cache[key]

    def classify_sample(idx, sample):
        point = _sample_point(sys, sample)
        if cv.ideal.generators and all(
            not g.evaluate(point) for g in cv.ideal.generators
        ):
            return {"index": idx, "label": "characteristic"}
        verdict, cert = elliptic_at(sample.x)
        if verdict:
            return {"index": idx, "label": "elliptic", "certificate": cert}
        for theta in directions:
            rep = hyperbolic_at(sample.x, tuple(Fraction(t) for t in theta))
            if rep.value is True:
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
        rhs = [QQi(1 if i == a else 0) for i in range(d)]
        w = et_e.solve_right(rhs)
        lift_cols.append([
            sum((e[i, j] * w[j] for j in range(d)), QQi(0)) for i in range(n)
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


def _extend_char_to(cv: CharVariety, amb, base_map, xi_map):
    out = []
    for g in cv.ideal.generators:
        renamed = g.rename(
            tuple(base_map[v] for v in cv.base_vars)
            + tuple(xi_map[v] for v in cv.xi_vars)
        )
        out.append(renamed.extend(amb))
    return out


def external_product_char(a: PdeSystem, b: PdeSystem):
    """Characteristic ideal of the external product plus a Kunneth check:
    two-sided Groebner containment against the join of the factors."""
    from .systems import external_product

    prod = external_product(a, b)
    cv_prod = characteristic_ideal(prod)
    amb = cv_prod.ambient

    def block_maps(sys, suffix):
        base_map = {v: f"{v}{suffix}" for v in sys.indep_vars}
        ximap = {xi_name(v): xi_name(f"{v}{suffix}") for v in sys.indep_vars}
        return base_map, ximap

    cv_a, cv_b = characteristic_ideal(a), characteristic_ideal(b)
    join_gens = _extend_char_to(cv_a, amb, *block_maps(a, 1)) + _extend_char_to(
        cv_b, amb, *block_maps(b, 2)
    )
    join = PolyIdeal(amb, join_gens)
    kunneth_ok = cv_prod.ideal.contains_ideal(join) and join.contains_ideal(
        cv_prod.ideal
    )
    return cv_prod, kunneth_ok


def factorization_check(sys: PdeSystem, max_copies=3):
    """Disjoint-partition factorization and diagonal-pullback containment
    for external powers of a single scalar generator system."""
    from .systems import external_power

    report = {"partition_checks": [], "diagonal_checks": [], "all_passed": True}
    powers = {s: external_power(sys, s) for s in range(1, max_copies + 1)}
    chars = {s: characteristic_ideal(powers[s]) for s in powers}
    for s in range(2, max_copies + 1):
        cv = chars[s]
        amb = cv.ambient
        blocks = list(range(1, s + 1))
        for cut in range(1, s):
            left, right = blocks[:cut], blocks[cut:]
            gens = []
            for part in (left, right):
                cv_part = chars[len(part)]
                base_map, xi_map = {}, {}
                for bi, block in enumerate(part):
                    for v in sys.indep_vars:
                        base_map[f"{v}{bi+1}"] = f"{v}{block}"
                        xi_map[xi_name(f"{v}{bi+1}")] = xi_name(f"{v}{block}")
                gens.extend(_extend_char_to(cv_part, amb, base_map, xi_map))
            join = PolyIdeal(amb, gens)
            ok = cv.ideal.contains_ideal(join) and join.contains_ideal(cv.ideal)
            report["partition_checks"].append(
                {"copies": s, "partition": [left, right], "equal": ok}
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
