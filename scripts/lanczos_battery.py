#!/usr/bin/env python3
"""Dense battery for the Lanczos solver: lattices x delta x tol against eigvalsh.

Each solve runs `ed.lanczos_ground` on one sector, or `ed.lanczos_level` on
a gap block as `xxzent ed` does, and compares its E0 with the lowest
eigenvalue of the same sector from a dense `eigvalsh`. A solve fails when it
raises LanczosError, or when its energy misses the dense one by more than
the threshold it applied (`tolerance`): a Ritz value lies within its
residual of an eigenvalue. Every failed solve is printed, and the exit code
is 1 if any failed.

A lattice with an even number of sites is solved at M = 0 in the ground
state's flip parity and in each block `xxzent ed` takes its gap from
(`ed.gap_basis`: the other parity, split on a periodic lattice into the
half-shift sectors sigma = +-1), and a periodic one also in the ground
state's orbits of translations and the flip, the sector `scan`, `verify` and
the ground state of `xxzent ed` solve; an odd open chain is solved at M = 1/2.
Lattices are named as in the tests: d1L8 is the periodic 8-site ring,
d1L9open the open 9-site chain, d2L2 the periodic 2x2 square.

    PYTHONPATH=src python scripts/lanczos_battery.py
    PYTHONPATH=src python scripts/lanczos_battery.py --lattices d1L8 --tols 1e-14
"""

import argparse
import re
import warnings
from functools import partial
from typing import Callable

import numpy as np

from xxzent import ed
from xxzent.lattice import LatticeSpec, build_lattice

LATTICES = ["d1L4", "d1L6", "d1L8", "d1L10", "d1L12", "d1L14",
            "d1L7open", "d1L8open", "d1L9open", "d2L2"]
DELTAS = [-3.0, -1.5, -0.99, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0,
          1e2, 1e3, 1e4, 1e6]
TOLS = [1e-11, 1e-12, 1e-13, 1e-14]


def parse_lattice(name: str) -> LatticeSpec:
    match = re.fullmatch(r"d([123])L(\d+)(open)?", name)
    if match is None:
        raise argparse.ArgumentTypeError(f"lattice names look like d1L8 or d1L9open, got {name!r}")
    return LatticeSpec(int(match[1]), int(match[2]), periodic=match[3] is None)


def tolerance(text: str) -> float:
    """argparse type: a residual threshold, finite and > 0 as lanczos_ground takes it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def sector_operators(spec: LatticeSpec) -> list[tuple[str, ed.SparseHamiltonian, Callable]]:
    """The delta-free operators the battery solves: (sector, operator, solver)."""
    if spec.n_sites % 2:
        lattice = build_lattice(spec)
        basis = ed.enumerate_basis(spec.n_sites, 0.5)
        return [("M=0.5", ed.build_hamiltonian(lattice, basis), partial(ed.lanczos_ground, m=0.5))]
    ground = ed.build_ground_sector(spec)
    cases = [("parity", ed.build_sector(spec).h, ed.lanczos_ground)]
    if spec.periodic:
        cases.append(("ground", ground.h, ed.lanczos_ground))
    for block in ed.gap_basis(ground.basis):  # solved as `xxzent ed` solves them
        name = "gap" if block.half_shift is None else f"gap sigma={block.half_shift:+d}"
        cases.append((name, ed.build_hamiltonian(ground.lattice, block), ed.lanczos_level))
    return cases


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--lattices", type=parse_lattice, nargs="+",
                    default=[parse_lattice(n) for n in LATTICES])
    ap.add_argument("--deltas", type=float, nargs="+", default=DELTAS)
    ap.add_argument("--tols", type=tolerance, nargs="+", default=TOLS)
    args = ap.parse_args()

    warnings.simplefilter("ignore")  # the L = 2 wrap-around warning
    solves = failed = 0
    for spec in args.lattices:
        name = f"d{spec.dimension}L{spec.linear_size}{'' if spec.periodic else 'open'}"
        for sector, h0, solve in sector_operators(spec):
            for delta in args.deltas:
                h = h0.at(delta)
                dense = h.offdiag.toarray()
                dense[np.diag_indices(h.dimension)] += h.diagonal
                e0 = float(np.linalg.eigvalsh(dense)[0])
                for tol in args.tols:
                    solves += 1
                    case = f"{name} {sector} delta={delta:g} tol={tol:g}"
                    try:
                        run = solve(h, tol=tol)
                    except ed.LanczosError as exc:
                        failed += 1
                        print(f"FAIL {case}: {exc}")
                        continue
                    error = abs(run.energy - e0)
                    if not error <= run.tolerance:
                        failed += 1
                        print(f"FAIL {case}: |E - E0| = {error:.3e} above {run.tolerance:.3e} "
                              f"after {run.iterations} iterations")
    print(f"{solves} solves, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
