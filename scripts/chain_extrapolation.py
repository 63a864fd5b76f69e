#!/usr/bin/env python3
"""Finite-size trend of the isotropic chain energy and its 1/L limit.

Solves periodic chains at delta = 1, each in the ground state's sector of
translations and spin flip, prints E0/N per size, and fits a
quadratic polynomial in 1/L. The extrapolated constant is compared with
the exact thermodynamic value 1/4 - ln 2 known for the integrable chain.
"""

import argparse
import math

import numpy as np

from xxzent import ed
from xxzent.lattice import LatticeSpec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 10, 12, 14])
    ap.add_argument("--degree", type=int, default=2)
    args = ap.parse_args()
    if args.degree < 0:
        ap.error("--degree must be >= 0")
    if len(set(args.sizes)) < args.degree + 1:
        ap.error(f"a degree-{args.degree} fit needs {args.degree + 1} distinct --sizes")

    energies = []
    print(f"{'L':>4} {'E0':>20} {'E0/N':>20}")
    for linear in args.sizes:
        gs = ed.lanczos_ground(ed.build_ground_sector(LatticeSpec(1, linear)).h.at(1.0))
        energies.append(gs.energy / linear)
        print(f"{linear:>4} {gs.energy:>20.12f} {gs.energy / linear:>20.12f}")

    # value(L) = sum_n a_n (1/L)^n; a_0 is the extrapolated limit
    coefficients = np.polynomial.polynomial.polyfit(1.0 / np.array(args.sizes), energies,
                                                    args.degree)
    exact = 0.25 - math.log(2.0)
    a0 = coefficients[0]
    print(f"\ndegree-{args.degree} fit in 1/L: {tuple(coefficients.tolist())}")
    print(f"extrapolated E0/N = {a0:.8f}")
    print(f"exact limit       = {exact:.8f}  (1/4 - ln 2)")
    print(f"difference        = {abs(a0 - exact):.2e}")
    if len(args.sizes) <= args.degree + 1:
        print("warning: no degrees of freedom left; add sizes or lower the degree")


if __name__ == "__main__":
    main()
