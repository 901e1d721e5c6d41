#!/usr/bin/env python3
"""Riemann-Roch numbers on the model rings and the classical index examples."""

from spencerlab.chern import MODELS, twist_class
from spencerlab.index import atiyah_singer_index, de_rham_class, grr_index
from spencerlab.systems import cauchy_riemann_system, laplace_system


def main():
    for model_name, twists in (("P1", range(0, 6)), ("P2", range(0, 5))):
        model = MODELS[model_name]
        row = [grr_index(twist_class(model, d)).index for d in twists]
        print(f"chi(O(d)) on {model_name}: {row}")

    print(
        "chi(O) on the elliptic curve:",
        grr_index(MODELS["elliptic_curve"].unit()).index,
    )

    cr = cauchy_riemann_system()
    print(
        "Cauchy-Riemann on P1 (zero-section pullback):",
        atiyah_singer_index(cr, MODELS["P1"].unit()).index,
    )
    print(
        "de Rham class on S2:",
        atiyah_singer_index(laplace_system(), de_rham_class(MODELS["S2"])).index,
    )


if __name__ == "__main__":
    main()
