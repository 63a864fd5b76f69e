#!/usr/bin/env python3
"""Wall and CPU time per stage of `xxzent ed`.

Runs `xxzent ed` in process, with the flags that follow --repeat, and times
the calls it makes: the lattice, the M = 0 basis, the ground sector's
assembly (its orbits of translations and the flip included), the ground
Lanczos run, the bond correlators, the gap runs' start (w |GS> on the M = 0
states, see ed.staggered_guess; its projections onto the gap blocks, made
next, count only in the total), then each gap block's assembly and its
ed.lanczos_level run from the block's projection of that start: gap 1 and
gap 2 are the half-shift sectors sigma = +1 and -1 of a periodic lattice, an
open lattice has gap 1 alone. xxzent.cli is imported before numpy, so the command
runs under its own BLAS thread setting. Its report is not printed.

The command is run --repeat times and each stage's median is printed; the
total is the whole command's. CPU time is the process's, over all its
threads, so a stage that wakes BLAS threads shows more CPU than wall time.
The peak_rss_mb column is the process's peak resident set (ru_maxrss) at
the end of each stage of the first run, so it includes the interpreter and
the imports.

    PYTHONPATH=src python scripts/stage_times.py --repeat 3 --dim 1 --size 22
"""

import argparse
import contextlib
import io
import resource
import statistics
import sys
import time

from xxzent import cli, ed, entanglement  # cli first: it sets the BLAS threads

STAGES = [  # (module, function, the stage of each call, note on its result)
    (ed, "build_lattice", ["lattice"], None),
    (ed, "enumerate_basis", ["basis"], lambda b: f"{len(b)} states"),
    (ed, "build_hamiltonian", ["assembly ground", "assembly gap 1", "assembly gap 2"],
     lambda h: f"{h.dimension} rows, {h.nnz} nnz"),
    (ed, "lanczos_ground", ["lanczos ground"], lambda gs: f"{gs.iterations} iterations"),
    (ed, "lanczos_level", ["lanczos gap 1", "lanczos gap 2"],
     lambda level: f"{level.iterations} iterations"),
    (entanglement, "operator_bond_correlators", ["correlators"], None),
    (ed, "staggered_guess", ["start"], None),
]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _timed(stages: list, fn, names: list[str], note):
    """fn, appending (stage, wall s, CPU s, peak RSS MB, note) to stages at each call."""
    def wrapper(*args, **kwargs):
        name = names[sum(s[0] in names for s in stages)]
        wall, cpu = time.perf_counter(), time.process_time()
        out = fn(*args, **kwargs)
        stages.append((name, time.perf_counter() - wall, time.process_time() - cpu,
                       _peak_rss_mb(), note(out) if note else ""))
        return out
    return wrapper


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                 usage="%(prog)s [--repeat N] [xxzent ed flags]")
    ap.add_argument("--repeat", type=int, default=3)
    args, ed_flags = ap.parse_known_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    stages: list = []
    for module, attr, names, note in STAGES:
        setattr(module, attr, _timed(stages, getattr(module, attr), names, note))
    runs, totals = [], []
    for _ in range(args.repeat):
        stages.clear()
        wall, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["ed", *ed_flags])
        if rc != cli.EXIT_OK:
            return rc
        totals.append((time.perf_counter() - wall, time.process_time() - cpu))
        runs.append(list(stages))
    print(f"xxzent ed {' '.join(ed_flags)}: median of {args.repeat} run(s)")
    print(f"{'stage':<20} {'wall_s':>8} {'cpu_s':>8} {'peak_rss_mb':>12}  note")
    for i, (name, _, _, rss, note) in enumerate(runs[0]):
        wall = statistics.median(run[i][1] for run in runs)
        cpu = statistics.median(run[i][2] for run in runs)
        print(f"{name:<20} {wall:>8.3f} {cpu:>8.3f} {rss:>12.1f}  {note}".rstrip())
    wall, cpu = (statistics.median(t) for t in zip(*totals))
    print(f"{'total':<20} {wall:>8.3f} {cpu:>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
