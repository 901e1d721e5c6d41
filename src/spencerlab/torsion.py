"""Torsion invariants assembled from regularized determinants.

Two torsion conventions appear in the literature this follows, differing in
normalization, and both are implemented behind explicit tags:

  exp_full:      log T = sum_q (-1)^q q log det' Delta_q
                 (the exponential form exp{-sum (-1)^q q zeta'_q(0)})
  product_half:  log T = sum_i (-1)^i (i/2) log det' Delta_i
                 (the weighted product of determinants)

No canonical choice is asserted; reports always carry the tag.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from math import ulp

from .errors import PreconditionError
from .reports import to_float
from .special import to_decimal, working_precision
from .spectra import SpectrumModel
from .zeta import regularized_det, zeta_at_zero, zeta_prime_at_zero

CONVENTIONS = ("exp_full", "product_half")


TorsionReport = namedtuple("TorsionReport", "torsion convention per_degree error_bound inputs")


def _degree_data(spec):
    """(zeta'(0) as a Decimal, the per-degree report entry)."""
    zp0, err, method = zeta_prime_at_zero(spec)
    return zp0, {
        "zeta0": float(zeta_at_zero(spec)),
        "zeta_prime0": float(zp0),
        "log_det": float(-zp0),
        "method": method,
        "error_bound": float(err),
        "zero_modes": spec.zero_modes,
    }


def _torsion_report(terms, convention, inputs, weight_type):
    """exp(sum_k w_k log det'_k) over (key, w_k, spectrum) terms; each
    per-degree entry carries its weight as weight_type.  The sum runs in
    Decimal on each -zeta'_k(0) as computed: the doubles in the entries are for
    display, and rounding them first would put an error of up to
    |log T| 2^-53 into T that the bound does not count.  A nonzero bound
    too small for a double is reported as the least positive double."""
    per_degree = {}
    log_t = Decimal(0)
    err = Decimal(0)
    for key, weight, spec in terms:
        zp0, data = _degree_data(spec)
        data["weight"] = weight_type(weight)
        per_degree[key] = data
        log_t -= weight * zp0
        err += abs(weight) * Decimal(data["error_bound"])
    torsion = log_t.exp()
    bound = float(err * torsion * 2) or (ulp(0.0) if err else 0.0)
    return TorsionReport(to_float(torsion), convention, per_degree, bound, inputs)


@working_precision
def ray_singer_torsion(spectra, convention="exp_full") -> TorsionReport:
    """Weighted combination of log-determinants across the degree range.

    spectra: {degree: SpectrumModel}; the convention fixes the weights.
    """
    if convention not in CONVENTIONS:
        raise PreconditionError(f"unknown convention {convention!r}; know {CONVENTIONS}")
    if not spectra:
        raise PreconditionError("need at least one degree")
    degrees = sorted(spectra)

    def weight(k):
        if convention == "exp_full":
            return Decimal((-1) ** k * k)
        return Decimal((-1) ** k * k) / 2

    return _torsion_report(
        [(k, weight(k), spectra[k]) for k in degrees],
        convention,
        {"degrees": degrees},
        float,
    )


@working_precision
def bcov_torsion(hodge_spectra) -> TorsionReport:
    """exp{- sum (-1)^{p+q} p q zeta'_{p,q}(0)} over a complete rectangular
    (p,q) range."""
    if not hodge_spectra:
        raise PreconditionError("need a nonempty (p,q) family")
    ps = sorted({p for p, _ in hodge_spectra})
    qs = sorted({q for _, q in hodge_spectra})
    expected = {(p, q) for p in range(max(ps) + 1) for q in range(max(qs) + 1)}
    if set(hodge_spectra) != expected:
        raise PreconditionError(
            f"(p,q) range must be the full rectangle {max(ps)}x{max(qs)}"
        )
    # weight * log_det = -(-1)^{p+q} p q zeta'(0), the term of log T
    return _torsion_report(
        [(f"{p},{q}", (-1) ** (p + q) * p * q, spec)
         for (p, q), spec in sorted(hodge_spectra.items())],
        "bcov",
        {"p_max": max(ps), "q_max": max(qs)},
        int,
    )


@working_precision
def bcov_invariant_model(tau, area=1.0, chi=0, lattice_scale=1):
    """Diagnostic assembly Vol^e * Vol_L2^{-1} * T_BCOV * A with A = 1 (flat
    metric) and e = -3 + chi/12; itemizes every factor.  Vol_L2 = 1, the
    covolume of Z under the Gram matrix [[1]].  This is the model
    combination on the flat one-dimensional complex torus, not a threefold
    invariant.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise PreconditionError("tau must lie in the upper half plane")
    vol = to_decimal(area)
    if vol <= 0:
        raise PreconditionError("area must be positive")
    spec = SpectrumModel.flat_torus(tau, lattice_scale)
    hodge = {(p, q): spec for p in (0, 1) for q in (0, 1)}
    t_bcov = bcov_torsion(hodge)
    exponent = Fraction(-3) + Fraction(chi, 12)
    combination = vol ** to_decimal(exponent) * Decimal(t_bcov.torsion)
    det_value, det_err, det_method = regularized_det(spec)
    # the exploratory comparison: de Rham torsion of the same model, reported
    # alongside the Dolbeault-weighted combination without claiming equality
    de_rham = ray_singer_torsion(
        {0: spec, 1: SpectrumModel.direct_sum(spec, spec), 2: spec},
        convention="exp_full",
    )
    return {
        "tau": [tau.real, tau.imag],
        "volume": float(vol),
        "volume_exponent": str(exponent),
        "vol_l2": "1",
        "t_bcov": t_bcov.torsion,
        "de_rham_torsion": de_rham.torsion,
        "det_prime": float(det_value),
        "det_method": det_method,
        "correction_factor": 1.0,
        "combination": float(combination),
        "per_degree": t_bcov.per_degree,
    }


@working_precision
def quillen_norm(l2_norm, dets) -> float:
    """l2 * exp[(1/2) sum (-1)^{k+1} k log det'_k]; a norm below the double
    range is a NumericError, as for det' and torsion."""
    l2_norm = to_decimal(l2_norm)
    if l2_norm <= 0:
        raise PreconditionError("l2 norm must be positive")
    total = Decimal(0)
    for k, det in sorted(dets.items()):
        det = to_decimal(det)
        if det <= 0:
            raise PreconditionError("determinants must be positive")
        total += (-1) ** (k + 1) * k * det.ln()
    return to_float(l2_norm * (total / 2).exp())
