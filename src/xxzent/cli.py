"""Command-line interface.

Subcommands: ed (single ground-state report), scan (C(delta) curves from
either engine), spinwave (single thermodynamic-limit evaluation), verify
(run the machine-check suites).

Exit codes: 0 success, 2 usage error, 3 infeasible sector size,
4 solver failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__, analysis, ed, entanglement, spinwave, verify
from .lattice import LatticeSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5

DEFAULT_BASIS_CAP = 20_000_000

# flags that only exact diagonalization reads, with their defaults; `scan`
# parses them as None so that one passed to the spin-wave engine is caught
ED_FLAG_DEFAULTS = {
    "size": 8,
    "boundary": "periodic",
    "tol": ed.DEFAULT_TOL,
    "max_iter": ed.DEFAULT_MAX_ITER,
    "seed": ed.DEFAULT_SEED,
    "max_basis": DEFAULT_BASIS_CAP,
}

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxzent",
        description="Nearest-neighbor concurrence of the spin-1/2 XXZ antiferromagnet",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lattice_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", type=int, choices=(1, 2, 3), default=1)
        p.add_argument("--size", type=int, default=ED_FLAG_DEFAULTS["size"],
                       help="linear size L")
        p.add_argument("--boundary", choices=("periodic", "open"),
                       default=ED_FLAG_DEFAULTS["boundary"])

    def add_solver_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=_finite_float, default=ED_FLAG_DEFAULTS["tol"])
        p.add_argument("--max-iter", type=int, default=ED_FLAG_DEFAULTS["max_iter"])
        p.add_argument("--seed", type=int, default=ED_FLAG_DEFAULTS["seed"])
        p.add_argument("--max-basis", type=int, default=ED_FLAG_DEFAULTS["max_basis"],
                       help="refuse sectors larger than this")

    p_ed = sub.add_parser("ed", help="exact diagonalization at a single delta")
    add_lattice_args(p_ed)
    add_solver_args(p_ed)
    p_ed.add_argument("--delta", type=_finite_float, default=1.0)

    p_scan = sub.add_parser("scan", help="C(delta) over a uniform grid")
    p_scan.add_argument("--engine", choices=("ed", "spinwave"), default="ed")
    add_lattice_args(p_scan)
    add_solver_args(p_scan)
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

    p_ver = sub.add_parser("verify", help="run the machine-check suites")
    p_ver.add_argument("--suite", choices=("all",) + tuple(verify.SUITES),
                       default="all")
    p_ver.add_argument("--kgrid", type=int, default=None,
                       help="override spin-wave grid for faster runs")
    return parser


def _check_feasible(spec: LatticeSpec, cap: int) -> int | None:
    dim = ed.sector_dimension(spec.n_sites, 0.0)
    if dim > cap:
        print(
            f"refusing {spec.dimension}D L={spec.linear_size}: M=0 sector has "
            f"{dim} states (~{dim:.2e}), above the cap {cap} "
            f"(~{cap:.0e}); not desk-feasible",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    return None


def _require_antiferromagnet(delta: float, flag: str) -> None:
    """ED solves the M = 0 sector, which holds the lowest level only for
    delta > -1; from -1 on, the fully polarized states tie with it or undercut it."""
    if not delta > -1:
        raise ValueError(f"{flag}: ED needs delta > -1, got {_fmt(delta)}")


def cmd_ed(args: argparse.Namespace) -> int:
    _require_antiferromagnet(args.delta, "--delta")
    spec = LatticeSpec(args.dim, args.size, periodic=args.boundary == "periodic")
    bad = _check_feasible(spec, args.max_basis)
    if bad is not None:
        return bad
    sector = ed.build_sector(spec)
    h = sector.h.at(args.delta)
    solver = {"tol": args.tol, "max_iter": args.max_iter, "seed": args.seed}
    try:
        gs = ed.lanczos_ground(h, **solver)
        # the lowest M = 0 excitation is the other flip parity's ground state
        other = ed.lanczos_ground(h.flipped(), **solver)
    except ed.LanczosError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ed.ScaleError as exc:
        print(f"error: --delta: {exc}", file=sys.stderr)
        return EXIT_USAGE
    gap = other.energy - gs.energy
    g = entanglement.operator_bond_correlators(gs, h, sector.lattice)
    c = entanglement.concurrence_corr(g)
    rows = [
        ("dimension", args.dim),
        ("linear_size", args.size),
        ("boundary", args.boundary),
        ("delta", _fmt(args.delta)),
        ("sector_m", _fmt(gs.m)),
        ("sector_dimension", len(sector.basis)),
        ("energy", _fmt(gs.energy)),
        ("energy_per_bond", _fmt(gs.energy / sector.lattice.n_bonds)),
        ("gxx", _fmt(g.gxx)),
        ("gyy", _fmt(g.gyy)),
        ("gzz", _fmt(g.gzz)),
        ("concurrence", _fmt(c)),
        # each level lies within its residual of an eigenvalue, so a gap no
        # larger than the two residuals together is round-off, sign included
        ("gap", _fmt(gap) if gap > gs.residual + other.residual else "unresolved"),
        ("solver", "lanczos"),
        ("iterations", gs.iterations + other.iterations),
        ("residual", _fmt(max(gs.residual, other.residual))),
        ("seed", args.seed),
    ]
    tolerance = max(gs.tolerance, other.tolerance)
    if tolerance > args.tol:  # the residual floor replaced --tol
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


def _write_json(curve: analysis.ConcurrenceCurve, meta, stream) -> None:
    payload = {
        "metadata": {k: v for k, v in meta},
        "samples": [dataclasses.asdict(s) for s in curve.samples],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
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
        spec = LatticeSpec(args.dim, args.size, periodic=args.boundary == "periodic")
        bad = _check_feasible(spec, args.max_basis)
        if bad is not None:
            return bad
        try:
            curve = analysis.scan_ed(
                ed.build_sector(spec), grid, tol=args.tol, max_iter=args.max_iter, seed=args.seed
            )
        except ed.ScaleError as exc:
            parser.error(f"--from/--to: {exc}")
    else:
        if args.dim < 2:
            parser.error("spin-wave engine needs --dim 2 or 3")
        curve = analysis.scan_spinwave(args.dim, grid, k_points=args.kgrid)
    write_curve(curve, (args.delta_from, args.delta_to, args.step), args.out, args.format)
    if not curve.all_ok():
        failed = sum(1 for s in curve.samples if not s.ok)
        print(f"warning: {failed} of {len(curve.samples)} points failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_spinwave(args: argparse.Namespace) -> int:
    n_k = spinwave.DEFAULT_K_POINTS[args.dim] if args.kgrid is None else args.kgrid
    zone = spinwave.gamma_grid(args.dim, n_k)
    s = analysis.spinwave_sample(args.delta, zone)
    for key, val in (
        ("dimension", args.dim),
        ("delta", _fmt(args.delta)),
        ("branch", "ising" if args.delta >= 1.0 else "planar"),
        ("kgrid", n_k),
        ("quad_points", zone.gamma.size),
        ("spin", _fmt(spinwave.SPIN)),
        ("energy_per_site", _fmt(s.energy_per_bond * args.dim)),
        ("energy_per_bond", _fmt(s.energy_per_bond)),
        ("gzz", _fmt(s.gzz)),
        ("concurrence", _fmt(s.concurrence)),
    ):
        print(f"{key}: {val}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.kgrid is not None:
        kwargs["spinwave"] = {"k_points": args.kgrid}
    results = verify.run_suites(args.suite, **kwargs)
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
            return cmd_verify(args)
    except ValueError as exc:  # ed.SectorError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
