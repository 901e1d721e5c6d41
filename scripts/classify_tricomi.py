#!/usr/bin/env python3
"""Grid classification of the mixed-type desk model y u_xx + u_yy = 0.

Prints the strata split across the fold line y = 0.
"""

import argparse
from fractions import Fraction
from itertools import product

from spencerlab.microlocal import Region, classify_mixed
from spencerlab.systems import tricomi_system


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--nx", type=int, default=10)
    parser.add_argument("--ny", type=int, default=10)
    parser.add_argument("--covectors", type=int, default=8)
    args = parser.parse_args()

    xis = [
        (1, 0), (-1, 0), (0, 1), (0, -1),
        (1, 1), (1, -1), (2, 1), (1, 2),
    ][: args.covectors]
    bases = [
        (Fraction(i), Fraction(j - args.ny // 2, 2))
        for i in range(args.nx)
        for j in range(args.ny)
    ]
    report = classify_mixed(
        tricomi_system(), Region.everywhere(), (bases, xis), directions=[(0, 1)]
    )
    print(f"samples: {len(bases) * len(xis)}")
    for label, count in sorted(report.strata.items()):
        print(f"  {label:15s} {count}")
    by_sign = {}
    # the labels run base-major: every covector at the first base, then the next
    for lab, (x, _) in zip(report.labels, product(bases, xis)):
        y = x[1]
        key = "y>0" if y > 0 else ("y<0" if y < 0 else "y=0")
        by_sign.setdefault(key, {}).setdefault(lab["label"], 0)
        by_sign[key][lab["label"]] += 1
    for key in ("y>0", "y=0", "y<0"):
        print(f"{key}: {by_sign.get(key, {})}")


if __name__ == "__main__":
    main()
