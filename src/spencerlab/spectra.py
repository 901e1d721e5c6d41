"""Explicit Laplacian spectra: circles, flat tori, rectangles, direct sums,
scalings, and user-supplied lists.

Eigenvalues carry multiplicities; zero modes are excluded from the zeta
function (primed-determinant convention) and reported separately via
zero_modes.  Lattice-backed kinds expose their quadratic forms so the zeta
machinery can run the theta/Mellin continuation exactly on Q(v) = v^T M v.

Normalization: flat_torus(tau) is the lattice torus on Z + tau Z (area
Im tau) with eigenvalues pi^2 |m + n tau|^2 / (Im(tau) lattice_scale)^2.
In this convention det' = 4 (Im tau)^2 |eta(tau)|^4 for every tau (by the
Kronecker limit formula), which at tau = i equals Gamma(1/4)^4 / (4 pi^3);
all torsion values in this package are pinned to it.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from math import ceil, floor

from .errors import PreconditionError
from .special import PI, to_decimal, working_precision

# candidate points (rows times widest row) lattice_points may visit
LATTICE_BUDGET = 10**6


@working_precision
def lattice_points(M, d, cutoff):
    """(q, k) for the nonzero v in Z^d with q = v^T M v <= cutoff, sorted by q.

    Each pair +-v is visited once, on the half-lattice a > 0 or (a = 0,
    b > 0), and carries k = 2.  Rows a run up to the ellipse bound
    |a| <= sqrt(cutoff (M^-1)_00); within a row, b runs over the interval
    where |m11 b + m01 a| <= sqrt(m11 cutoff - det(M) a^2).  Both bounds get
    one unit of slack for rounding, which the q <= cutoff test removes.
    A form that needs more than LATTICE_BUDGET candidates (a thin, huge or
    tiny lattice), or whose determinant cancels to 0 at the working
    precision, raises PreconditionError before anything is enumerated.
    """
    if d == 1:
        m00 = M[0][0]
        rows, width = int((cutoff / m00).sqrt()) + 2, 1
    else:
        (m00, m01), (_, m11) = M
        det = m00 * m11 - m01 * m01
        if det <= 0:
            raise PreconditionError("lattice form is degenerate at the working precision")
        rows, width = int((cutoff * m11 / det).sqrt()) + 2, int(2 * (cutoff / m11).sqrt()) + 2
    if rows * width > LATTICE_BUDGET:
        raise PreconditionError(
            f"lattice sum needs more than {LATTICE_BUDGET} candidate points: "
            "the form is too thin, too large or too small"
        )
    if d == 1:
        cands = [m00 * a * a for a in range(1, rows)]
    else:
        cands = []
        for a in range(rows):
            centre = -m01 * a / m11
            half = (m11 * cutoff - det * a * a).max(0).sqrt() / m11
            lo = floor(centre - half) if a else 1
            for b in range(lo, ceil(centre + half) + 1):
                cands.append(m00 * a * a + 2 * m01 * a * b + m11 * b * b)
    return sorted((q, 2) for q in cands if q <= cutoff)


class SpectrumModel(namedtuple("SpectrumModel", "kind params children", defaults=((),))):
    __slots__ = ()

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def circle(length):
        length = to_decimal(length)
        if length <= 0:
            raise PreconditionError("circle length must be positive")
        return SpectrumModel("circle", {"length": length})

    @staticmethod
    def flat_torus(tau, lattice_scale=1):
        tau = complex(tau)
        if tau.imag <= 0:
            raise PreconditionError("tau must lie in the upper half plane")
        c = to_decimal(lattice_scale)
        if c <= 0:
            raise PreconditionError("lattice scale must be positive")
        return SpectrumModel("flat_torus", {"tau": tau, "lattice_scale": c})

    @staticmethod
    def rectangle(a, b):
        a, b = to_decimal(a), to_decimal(b)
        if a <= 0 or b <= 0:
            raise PreconditionError("rectangle sides must be positive")
        return SpectrumModel("rectangle", {"a": a, "b": b})

    @staticmethod
    def explicit(values, multiplicities=None):
        values = [to_decimal(v) for v in values]
        if multiplicities is None:
            multiplicities = [1] * len(values)
        if len(multiplicities) != len(values):
            raise PreconditionError(
                f"{len(multiplicities)} multiplicities for {len(values)} values"
            )
        if any(v < 0 for v in values):
            raise PreconditionError("eigenvalues must be >= 0")
        if any(m < 1 for m in multiplicities):
            raise PreconditionError("multiplicities must be >= 1")
        pairs = sorted(zip(values, multiplicities))
        return SpectrumModel(
            "explicit",
            {
                "values": [p[0] for p in pairs if p[0] > 0],
                "multiplicities": [p[1] for p in pairs if p[0] > 0],
                "zero_modes": sum(m for v, m in pairs if v == 0),
            },
        )

    @staticmethod
    def direct_sum(*specs):
        if not specs:
            raise PreconditionError("a direct sum needs at least one part")
        return SpectrumModel("sum", {}, list(specs))

    @working_precision
    def scaled(self, c):
        c = to_decimal(c)
        if c <= 0:
            raise PreconditionError("scaling factor must be positive")
        if self.kind == "scaled":
            return SpectrumModel("scaled", {"factor": self.params["factor"] * c},
                                 self.children)
        return SpectrumModel("scaled", {"factor": c}, [self])

    # -- structure --------------------------------------------------------------

    @property
    def zero_modes(self):
        if self.kind in ("circle", "flat_torus"):
            return 1
        if self.kind == "rectangle":
            return 0
        if self.kind == "explicit":
            return self.params["zero_modes"]
        if self.kind == "scaled":
            return self.children[0].zero_modes
        if self.kind == "sum":
            return sum(c.zero_modes for c in self.children)
        raise PreconditionError(f"unknown spectrum kind {self.kind}")

    @working_precision
    def lattice_form(self):
        """(M, d) with eigenvalues {v^T M v : v in Z^d, v != 0}, if lattice-backed."""
        if self.kind == "circle":
            L = self.params["length"]
            return [[(2 * PI / L) ** 2]], 1
        if self.kind == "flat_torus":
            tau = self.params["tau"]
            c = self.params["lattice_scale"]
            # tau - round(Re tau) spans the same lattice Z + tau Z
            re, im = Decimal(tau.real) - round(tau.real), Decimal(tau.imag)
            base = PI**2 / (im * c) ** 2
            return [
                [base, base * re],
                [base * re, base * (re**2 + im**2)],
            ], 2
        return None

    @working_precision
    def lattice_terms(self):
        """(terms, divisor) with zeta = sum(sign * zeta_M) / divisor over the
        (sign, M, d) terms, if the spectrum is a signed combination of
        lattice forms.  The Dirichlet rectangle is 4 Z_rect = Z_2d - Z_a - Z_b:
        the full lattice less its two axis circles."""
        if self.kind == "rectangle":
            ma, mb = (PI / self.params["a"]) ** 2, (PI / self.params["b"]) ** 2
            zero = Decimal(0)
            return [(1, [[ma, zero], [zero, mb]], 2), (-1, [[ma]], 1), (-1, [[mb]], 1)], 4
        form = self.lattice_form()
        return None if form is None else ([(1, *form)], 1)
