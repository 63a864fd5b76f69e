#!/usr/bin/env python3
"""Wall and CPU time per stage of the `xxzent ed` flow.

Runs the stages of `xxzent ed` in process and in its order: the lattice,
the M = 0 basis, the ground state's orbits of translations and the flip
with their assembly, the ground Lanczos run (with its iterations), the
bond correlators, the other flip parity's block and its Lanczos run. The
flow is run --repeat times and each stage's median is printed. CPU time is
the process's, over all its threads, so a stage that wakes BLAS threads
shows more CPU than wall time.
The peak_rss_mb column is the process's peak resident set (ru_maxrss) at
the end of each stage of the first run, so it includes the interpreter and
the imports.

    PYTHONPATH=src python scripts/stage_times.py --dim 1 --size 22 --repeat 3
"""

import argparse
import resource
import statistics
import sys
import time
from dataclasses import replace

from xxzent import ed, entanglement
from xxzent.lattice import LatticeSpec, build_lattice


def _iterations(gs: ed.GroundState) -> str:
    return f"{gs.iterations} iterations"


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def run_flow(spec: LatticeSpec, delta: float) -> list[tuple[str, float, float, float, str]]:
    """One pass of the ed flow: (stage, wall s, CPU s, peak RSS MB, note) per stage."""
    stages = []

    def timed(name, fn, *args, note=lambda out: ""):
        wall, cpu = time.perf_counter(), time.process_time()
        out = fn(*args)
        stages.append((name, time.perf_counter() - wall, time.process_time() - cpu,
                       _peak_rss_mb(), note(out)))
        return out

    lattice = timed("lattice", build_lattice, spec)
    basis = timed("basis", ed.enumerate_basis, lattice.n_sites, note=lambda b: f"{len(b)} states")

    def assemble(translations, parity):
        block = replace(basis, translations=translations, parity=parity)
        return ed.build_hamiltonian(lattice, block).at(delta)

    def rows_nnz(h):
        return f"{h.dimension} rows, {h.nnz} nnz"

    p = basis.parity
    h = timed("assembly ground", assemble, spec, p, note=rows_nnz)  # orbits included
    gs = timed("lanczos ground", ed.lanczos_ground, h, note=_iterations)
    timed("correlators", entanglement.operator_bond_correlators, gs, h, lattice)
    del h  # freed before the other block is built, as in `xxzent ed`
    other = timed(f"assembly parity {-p:+d}", assemble, None, -p, note=rows_nnz)
    timed(f"lanczos parity {-p:+d}", ed.lanczos_ground, other, note=_iterations)
    return stages


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--dim", type=int, choices=(1, 2, 3), default=1)
    ap.add_argument("--size", type=int, default=22)
    ap.add_argument("--delta", type=float, default=1.0)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    try:
        spec = LatticeSpec(args.dim, args.size)
    except ValueError as exc:  # an odd periodic size
        ap.error(str(exc))
    runs = [run_flow(spec, args.delta) for _ in range(args.repeat)]
    print(f"d={args.dim} L={args.size} periodic delta={args.delta:g}: "
          f"median of {args.repeat} run(s)")
    print(f"{'stage':<20} {'wall_s':>8} {'cpu_s':>8} {'peak_rss_mb':>12}  note")
    for i, (name, _, _, rss, note) in enumerate(runs[0]):
        wall = statistics.median(run[i][1] for run in runs)
        cpu = statistics.median(run[i][2] for run in runs)
        print(f"{name:<20} {wall:>8.3f} {cpu:>8.3f} {rss:>12.1f}  {note}")
    wall = statistics.median(sum(s[1] for s in run) for run in runs)
    cpu = statistics.median(sum(s[2] for s in run) for run in runs)
    print(f"{'total':<20} {wall:>8.3f} {cpu:>8.3f}")


if __name__ == "__main__":
    main()
