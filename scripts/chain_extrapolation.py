#!/usr/bin/env python3
"""Finite-size trend of the isotropic chain energy and its 1/L limit.

Solves periodic chains at delta = 1, each in the ground state's sector of
translations and spin flip, prints E0/N per size, and fits a
quadratic polynomial in 1/L. The extrapolated constant is compared with
the exact thermodynamic value 1/4 - ln 2 known for the integrable chain.
"""

import argparse
import math

from xxzent import analysis, ed
from xxzent.lattice import LatticeSpec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 10, 12, 14])
    ap.add_argument("--degree", type=int, default=2)
    args = ap.parse_args()

    pairs = []
    print(f"{'L':>4} {'E0':>20} {'E0/N':>20}")
    for linear in args.sizes:
        gs = ed.lanczos_ground(ed.build_ground_sector(LatticeSpec(1, linear)).h.at(1.0))
        pairs.append((linear, gs.energy / linear))
        print(f"{linear:>4} {gs.energy:>20.12f} {gs.energy / linear:>20.12f}")

    fit = analysis.polynomial_inverse_l_fit(pairs, degree=args.degree)
    exact = 0.25 - math.log(2.0)
    a0 = fit.coefficients[0]
    print(f"\ndegree-{args.degree} fit in 1/L: {fit.coefficients}")
    print(f"extrapolated E0/N = {a0:.8f}")
    print(f"exact limit       = {exact:.8f}  (1/4 - ln 2)")
    print(f"difference        = {abs(a0 - exact):.2e}")
    if fit.low_confidence:
        print("warning: no degrees of freedom left; add sizes or lower the degree")


if __name__ == "__main__":
    main()
