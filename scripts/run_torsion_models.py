#!/usr/bin/env python3
"""Tabulate regularized determinants and torsion values on the model spectra.

Usage: python scripts/run_torsion_models.py [--tau RE,IM]

spencerlab returns determinants as decimal.Decimal and zeta(0) as an exact
Fraction; the Gamma(1/4) reference at tau = i comes from mpmath.
"""

import argparse
import math

from mpmath import gamma, mp, mpf, pi

from spencerlab.spectra import SpectrumModel
from spencerlab.torsion import bcov_torsion, quillen_norm, ray_singer_torsion
from spencerlab.zeta import regularized_det, zeta_at_zero


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--tau", default="0,1", help="torus modulus re,im")
    args = parser.parse_args()
    re, im = (float(x) for x in args.tau.split(","))
    tau = complex(re, im)

    print("== circle ==")
    for length in (2 * math.pi, 2.0, 1.0, 0.5):
        spec = SpectrumModel.circle(length)
        det, err, method = regularized_det(spec)
        rs = ray_singer_torsion({0: spec, 1: spec}, convention="exp_full")
        print(
            f"L = {length:10.6f}  det' = {float(det):14.9f} ({method})  "
            f"zeta(0) = {float(zeta_at_zero(spec)):5.1f}  "
            f"torsion(exp_full) = {rs.torsion:.9f}  expected L^-2 = {length ** -2:.9f}"
        )
    print()

    print(f"== flat torus, tau = {tau} ==")
    spec = SpectrumModel.flat_torus(tau)
    det, err, method = regularized_det(spec)
    print(f"det' = {float(det):.10f}  ({method}, err <= {err:.2e})")
    if tau == 1j:
        with mp.workdps(40):
            target = gamma(mpf(1) / 4) ** 4 / (4 * pi**3)
            rel = abs(mpf(str(det)) - target) / target
        print(f"Gamma(1/4)^4/(4 pi^3) = {float(target):.10f}  "
              f"(relative difference {float(rel):.1e})")
    hodge = {(p, q): spec for p in (0, 1) for q in (0, 1)}
    bcov = bcov_torsion(hodge)
    rs = ray_singer_torsion(
        {0: spec, 1: SpectrumModel.direct_sum(spec, spec), 2: spec},
        convention="exp_full",
    )
    print(f"BCOV combination      = {bcov.torsion:.10f}")
    print(f"de Rham torsion       = {rs.torsion:.10f}  (cancellation -> 1)")
    print()

    print("== Quillen norm on the circle determinant line ==")
    length = 1.7
    dets = {0: length**2, 1: length**2}
    print(f"l2 = 1, dets = (L^2, L^2), L = {length}: "
          f"norm = {quillen_norm(1.0, dets):.9f}  (= L)")


if __name__ == "__main__":
    main()
