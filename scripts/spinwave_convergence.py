#!/usr/bin/env python3
"""Convergence study for the spin-wave zone integrals.

Documents where the frozen regression constants in the test suite come
from: per-site energies on a sequence of doubling midpoint grids, with a
Richardson extrapolation of the error order read from the last two drifts
(N^-(d+1) with N points per axis: the integrand has a conical kink at the
zone centre and corner, so N^-3 for d = 2 and N^-4 for d = 3).

Run:  python3 scripts/spinwave_convergence.py [--max-points-2d 4096] [--max-points-3d 384]
"""

import argparse
import math

from xxzent import spinwave as sw


def richardson(coarse: float, fine: float, order: int) -> float:
    # fine grid has twice the points per axis
    return fine + (fine - coarse) / (2**order - 1)


def observed_order(energies: list[float]) -> int:
    """Error order p of N^-p from the last two drifts; 3 with fewer than three grids."""
    if len(energies) < 3:
        return 3
    ratio = (energies[-2] - energies[-3]) / (energies[-1] - energies[-2])
    return round(math.log2(abs(ratio)))


def study(delta: float, zones: list[sw.ZoneGrid]) -> None:
    branch = "ising" if delta >= 1 else "planar"
    print(f"\nd={zones[0].dimension}, delta={delta} ({branch} branch)")
    print(f"{'points/axis':>12} {'e_site':>22} {'drift from previous':>22}")
    energies = []
    for zone in zones:
        e = sw.energy_per_site(delta, zone)
        drift = f"{e - energies[-1]:+.3e}" if energies else ""
        print(f"{zone.k_points:>12} {e:>22.15f} {drift:>22}")
        energies.append(e)
    if len(energies) >= 2:
        order = observed_order(energies)
        extrap = richardson(energies[-2], energies[-1], order)
        print(f"{'extrapolated':>12} {extrap:>22.12f}   (N^-{order} Richardson)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-points-2d", type=int, default=4096)
    ap.add_argument("--max-points-3d", type=int, default=384,
                    help="the zone wedge holds C(points/2 + 2, 3) points; "
                         "384 gives 1.2M points, ~10 MB per array")
    args = ap.parse_args()

    # one zone per grid size, shared by the studies on that dimension
    zones2 = [sw.gamma_grid(2, n) for n in (64, 128, 256, 512, 1024, 2048, 4096)
              if n <= args.max_points_2d]
    zones3 = [sw.gamma_grid(3, n) for n in (24, 48, 96, 192, 384) if n <= args.max_points_3d]

    study(1.0, zones2)
    study(1.0, zones3)
    study(0.0, zones2)

    print("\nproduction grids: 512 points/axis (d=2), 96 (d=3);")
    print("both sit within 1e-7 of the extrapolated values above, which is")
    print("what the regression tests freeze.")


if __name__ == "__main__":
    main()
