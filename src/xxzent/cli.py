"""Command-line interface.

Subcommands: ed (single ground-state report), scan (C(delta) curves from
either engine), spinwave (single thermodynamic-limit evaluation), verify
(every machine check; it takes no option). Lanczos runs at ed.DEFAULT_TOL
(or the residual floor above it); verify runs on the default spin-wave zones.

Exit codes: 0 success, 2 usage error (an --out that cannot be written
included, and an unphysical spin-wave result), 3 an M = 0 sector above
DEFAULT_BASIS_CAP states at any lattice size, refused before it is built,
4 a failed point (a solver failure in ed or verify, reported on one
`solver failure:` line with nothing on stdout, or a scan's `:failed`
rows), 5 verification failure.

The CLI runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is already
set. No kernel on its paths is a threaded BLAS call (the sparse matvec is
scipy's own loop, stebz/stein are serial, every reduction is numpy's loop,
the RDMs are 4x4), but the worker that scipy's OpenBLAS starts spins through
a short run and doubles its CPU time. Code that imports the library modules
directly keeps its own BLAS settings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings

# before numpy and scipy load OpenBLAS: its idle workers only burn CPU here
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, analysis, ed, entanglement, spinwave, verify  # noqa: E402
from .lattice import DegenerateLatticeWarning, LatticeSpec  # noqa: E402

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5

DEFAULT_BASIS_CAP = 20_000_000  # states in the M = 0 sector

# flags that only exact diagonalization reads, with their defaults; `scan`
# parses them as None so that one passed to the spin-wave engine is caught
ED_FLAG_DEFAULTS = {"size": 8, "boundary": "periodic", "seed": ed.DEFAULT_SEED}

CSV_HEADER = "delta,concurrence,energy_per_bond,gzz,engine"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor +-inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type: an integer >= 0, as numpy's generator takes for a seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxzent",
        description="Nearest-neighbor concurrence of the spin-1/2 XXZ antiferromagnet",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ed_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", type=int, choices=(1, 2, 3), default=1)
        p.add_argument("--size", type=int, default=ED_FLAG_DEFAULTS["size"],
                       help="linear size L")
        p.add_argument("--boundary", choices=("periodic", "open"),
                       default=ED_FLAG_DEFAULTS["boundary"])
        p.add_argument("--seed", type=_seed, default=ED_FLAG_DEFAULTS["seed"],
                       help="Lanczos start-vector seed")

    p_ed = sub.add_parser("ed", help="exact diagonalization at a single delta")
    add_ed_flags(p_ed)
    p_ed.add_argument("--delta", type=_finite_float, default=1.0)

    p_scan = sub.add_parser("scan", help="C(delta) over a uniform grid")
    p_scan.add_argument("--engine", choices=("ed", "spinwave"), default="ed")
    add_ed_flags(p_scan)
    p_scan.add_argument("--from", dest="delta_from", type=_finite_float, default=0.0)
    p_scan.add_argument("--to", dest="delta_to", type=_finite_float, default=2.0)
    p_scan.add_argument("--step", type=_finite_float, default=0.05)
    p_scan.add_argument("--kgrid", type=int, default=None,
                        help="spin-wave quadrature points per direction")
    p_scan.set_defaults(**dict.fromkeys(ED_FLAG_DEFAULTS))
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    p_sw = sub.add_parser("spinwave", help="spin-wave evaluation at a single delta")
    p_sw.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p_sw.add_argument("--delta", type=_finite_float, default=1.0)
    p_sw.add_argument("--kgrid", type=int, default=None)

    sub.add_parser("verify", help="run the machine-check suites")
    return parser


class Infeasible(Exception):
    """An M = 0 sector above DEFAULT_BASIS_CAP; main maps it to EXIT_INFEASIBLE."""


def _ed_sector(args: argparse.Namespace) -> ed.Sector:
    """The flags' ground sector, refused above the cap; its build's warnings print plainly."""
    spec = LatticeSpec(args.dim, args.size, periodic=args.boundary == "periodic")
    n = spec.n_sites
    if n % 2 == 0 and n // 2 > math.log2(DEFAULT_BASIS_CAP):
        # comb(n, n/2) > 2^(n/2): neither built nor printed, nor is n (it may be huge)
        count = f"more than 2^(N/2) states (N = L^{spec.dimension} sites)"
    else:
        dim = ed.sector_dimension(n, 0.0)
        count = f"{dim} states (~{dim:.2e})"
        if dim <= DEFAULT_BASIS_CAP:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", DegenerateLatticeWarning)
                sector = ed.build_ground_sector(spec)
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
            return sector
    raise Infeasible(f"refusing {spec.dimension}D L={spec.linear_size}: M=0 sector has "
                     f"{count}, above the cap {DEFAULT_BASIS_CAP} "
                     f"(~{DEFAULT_BASIS_CAP:.0e}); not desk-feasible")


def _require_antiferromagnet(delta: float, flag: str) -> None:
    """ED solves the M = 0 sector, which holds the lowest level only for
    delta > -1; from -1 on, the fully polarized states tie with it or undercut it."""
    if not delta > -1:
        raise ValueError(f"{flag}: ED needs delta > -1, got {_fmt(delta)}")


def cmd_ed(args: argparse.Namespace) -> int:
    _require_antiferromagnet(args.delta, "--delta")
    sector = _ed_sector(args)
    lattice, basis, n_states = sector.lattice, sector.basis, len(sector.basis)
    h = sector.h.at(args.delta)
    try:  # main reports a LanczosError, for ed and verify alike
        gs = ed.lanczos_ground(h, seed=args.seed)
        g = entanglement.operator_bond_correlators(gs, h, lattice)
        blocks = ed.gap_basis(basis)
        start = ed.staggered_guess(lattice, basis, gs.vector)
        guesses = [block.project(start) for block in blocks]
        del sector, h, basis, start  # the ground block and start go before a gap block is built
        runs = []
        while blocks:  # one gap block at a time, freed with its orbit map before its run
            block, guess = blocks.pop(0), guesses.pop(0)
            h = ed.build_hamiltonian(lattice, block).at(args.delta)
            del block
            runs.append(ed.lanczos_level(h, seed=args.seed, guess=guess))
            del h, guess  # and its operator before the next block's assembly
    except ed.ScaleError as exc:
        print(f"error: --delta: {exc}", file=sys.stderr)
        return EXIT_USAGE
    other = min(runs, key=lambda run: run.energy)
    gap = other.energy - gs.energy
    c = entanglement.concurrence_corr(g)
    rows = [
        ("dimension", args.dim),
        ("linear_size", args.size),
        ("boundary", args.boundary),
        ("delta", _fmt(args.delta)),
        ("sector_m", _fmt(gs.m)),
        ("sector_dimension", n_states),
        ("energy", _fmt(gs.energy)),
        ("energy_per_bond", _fmt(gs.energy / lattice.n_bonds)),
        ("gxx", _fmt(g.gxx)),
        ("gyy", _fmt(g.gyy)),
        ("gzz", _fmt(g.gzz)),
        ("concurrence", _fmt(c)),
        # each level lies within its residual of an eigenvalue, so a gap no
        # larger than the two residuals together is round-off, sign included
        ("gap", _fmt(gap) if gap > gs.residual + other.residual else "unresolved"),
        ("solver", "lanczos"),
        ("iterations", gs.iterations + sum(run.iterations for run in runs)),
        ("residual", _fmt(max(run.residual for run in [gs, *runs]))),
        ("seed", args.seed),
    ]
    tolerance = max(run.tolerance for run in [gs, *runs])
    if tolerance > ed.DEFAULT_TOL:  # the residual floor replaced DEFAULT_TOL
        rows.append(("tolerance", _fmt(tolerance)))
    for key, val in rows:
        print(f"{key}: {val}")
    return EXIT_OK


def _write_csv(curve: analysis.ConcurrenceCurve, meta, stream) -> None:
    for key, val in meta:
        stream.write(f"# {key}: {val}\n")
    stream.write(CSV_HEADER + "\n")
    for s in curve.samples:
        engine = curve.engine if s.ok else f"{curve.engine}:failed"
        stream.write(
            f"{_fmt(s.delta)},{_fmt(s.concurrence)},{_fmt(s.energy_per_bond)},"
            f"{_fmt(s.gzz)},{engine}\n"
        )


def _json_number(value):
    """JSON has no nan or infinity: a missing number is written as null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(curve: analysis.ConcurrenceCurve, meta, stream) -> None:
    payload = {
        "metadata": {k: v for k, v in meta},
        "samples": [{k: _json_number(v) for k, v in dataclasses.asdict(s).items()}
                    for s in curve.samples],
    }
    json.dump(payload, stream, indent=2, sort_keys=True, allow_nan=False)
    stream.write("\n")


def write_curve(curve: analysis.ConcurrenceCurve, grid, out: str | None,
                fmt: str = "csv") -> None:
    """Write the curve after its metadata block to the path out (stdout if None).

    grid is the (from, to, step) triple the deltas were made from.
    """
    start, stop, step = grid
    meta = [
        ("engine", curve.engine),
        ("model", curve.provenance),
        ("grid", f"from={_fmt(start)} to={_fmt(stop)} step={_fmt(step)}"),
        ("version", __version__),
    ]
    writer = _write_csv if fmt == "csv" else _write_json
    if out:
        with open(out, "w") as fh:
            writer(curve, meta, fh)
    else:
        writer(curve, meta, sys.stdout)


def cmd_scan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    foreign = ED_FLAG_DEFAULTS if args.engine == "spinwave" else ("kgrid",)
    given = [f"--{k.replace('_', '-')}" for k in foreign if getattr(args, k) is not None]
    if given:
        parser.error(f"{', '.join(given)}: not used by --engine {args.engine}")
    try:
        grid = analysis.delta_grid(args.delta_from, args.delta_to, args.step)
    except ValueError as exc:
        parser.error(f"--from/--to/--step: {exc}")
    if args.engine == "ed":
        for key, default in ED_FLAG_DEFAULTS.items():
            if getattr(args, key) is None:
                setattr(args, key, default)
        _require_antiferromagnet(args.delta_from, "--from")
        sector = _ed_sector(args)
        try:
            curve = analysis.scan_ed(sector, grid, seed=args.seed)
        except ed.ScaleError as exc:
            parser.error(f"--from/--to: {exc}")
    else:
        if args.dim < 2:
            parser.error("spin-wave engine needs --dim 2 or 3")
        curve = analysis.scan_spinwave(spinwave.gamma_grid(args.dim, args.kgrid), grid)
    try:
        write_curve(curve, (args.delta_from, args.delta_to, args.step), args.out, args.format)
    except OSError as exc:
        if args.out is None:
            raise
        parser.error(f"--out: {exc}")
    if not curve.all_ok():
        failed = sum(1 for s in curve.samples if not s.ok)
        print(f"warning: {failed} of {len(curve.samples)} points failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_spinwave(args: argparse.Namespace) -> int:
    zone = spinwave.gamma_grid(args.dim, args.kgrid)
    s = analysis.scan_spinwave(zone, [args.delta]).samples[0]
    if not s.ok:
        raise ValueError(s.error)
    for key, val in (
        ("dimension", args.dim),
        ("delta", _fmt(args.delta)),
        ("branch", "ising" if args.delta >= 1.0 else "planar"),
        ("kgrid", zone.k_points),
        ("quad_points", zone.gamma.size),
        ("spin", _fmt(spinwave.SPIN)),
        ("energy_per_site", _fmt(s.energy_per_bond * args.dim)),
        ("energy_per_bond", _fmt(s.energy_per_bond)),
        ("gzz", _fmt(s.gzz)),
        ("concurrence", _fmt(s.concurrence)),
    ):
        print(f"{key}: {val}")
    return EXIT_OK


def cmd_verify() -> int:
    results = verify.run_suites()
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"[{tag}] {r.name}: measured={_fmt(r.measured)} tol={_fmt(r.tolerance)} ({r.detail})")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "ed":
            return cmd_ed(args)
        if args.command == "scan":
            return cmd_scan(args, parser)
        if args.command == "spinwave":
            return cmd_spinwave(args)
        if args.command == "verify":
            return cmd_verify()
    except Infeasible as exc:
        print(exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except ed.LanczosError as exc:  # from cmd_ed, or verify.solve_lattice
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:  # ed.SectorError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
