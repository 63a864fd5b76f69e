#!/usr/bin/env python3
"""Produce the headline concurrence curves as CSV files plus a summary table.

Writes three curves into --outdir:
  ed_2d_L4.csv        exact 4x4-lattice curve, delta in [0, 2]
  spinwave_d2.csv     thermodynamic-limit curve for the square lattice
  spinwave_d3.csv     same for the cubic lattice

The 6x6 lattice is deliberately absent: its zero-magnetization sector has
comb(36, 18) ~ 9.1e9 states, far past desk-scale exact diagonalization.
The 4x4 curve is the finite-lattice reference here.
"""

import argparse
import os

from xxzent import analysis, cli, ed, spinwave
from xxzent.analysis import delta_grid, extremum_and_derivative
from xxzent.lattice import LatticeSpec


def summarize(name: str, curve: analysis.ConcurrenceCurve) -> None:
    rep = extremum_and_derivative(curve)
    c = curve.concurrences()
    print(
        f"{name:>14}: peak C={c.max():.6f} at delta={rep.delta_star:.2f}, "
        f"one-sided slopes {rep.left_slope:+.4f} / {rep.right_slope:+.4f}"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--ed-step", type=float, default=0.05)
    ap.add_argument("--sw-step", type=float, default=0.01)
    ap.add_argument("--kgrid-2d", type=int, default=None)  # None: spinwave.DEFAULT_K_POINTS
    ap.add_argument("--kgrid-3d", type=int, default=None)  # None: spinwave.DEFAULT_K_POINTS
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    ed_grid = delta_grid(0.0, 2.0, args.ed_step)
    sw_grid = delta_grid(0.0, 2.0, args.sw_step)

    curves = {
        "ed_2d_L4": (analysis.scan_ed(ed.build_sector(LatticeSpec(2, 4)), ed_grid),
                     args.ed_step),
        "spinwave_d2": (analysis.scan_spinwave(spinwave.gamma_grid(2, args.kgrid_2d), sw_grid),
                        args.sw_step),
        "spinwave_d3": (analysis.scan_spinwave(spinwave.gamma_grid(3, args.kgrid_3d), sw_grid),
                        args.sw_step),
    }
    for name, (curve, step) in curves.items():
        path = os.path.join(args.outdir, f"{name}.csv")
        cli.write_curve(curve, (0.0, 2.0, step), path)
        summarize(name, curve)
        print(f"{'':>14}  wrote {path}")

    print("\nnote: the finite-lattice curve is smooth through delta=1 (its")
    print("slope jump shrinks linearly with the scan step), while both")
    print("thermodynamic-limit curves keep a finite kink there.")


if __name__ == "__main__":
    main()
