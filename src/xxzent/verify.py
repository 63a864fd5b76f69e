"""Machine checks for the analytic claims, bundled into named suites.

Each check returns CheckResult rows instead of raising, so the CLI can
print one line per check and exit nonzero if any fail. A failed solve is
not a row: solve_lattice raises its LanczosError, which stops `verify`
before any row (the CLI exits 4 on one `solver failure:` line). Suites:

  route-equivalence  four concurrence routes agree on ED ground states
  hellmann-feynman   dE0/ddelta matches N_B Gzz
  concavity          second differences of E0(delta) never positive
  argmax             C(delta) peaks exactly at delta = 1 on the scan grid
  spinwave           Bogoliubov constraints, branch continuity, cusp

run_suites(name) runs one suite, or all, building only the inputs they read.
The ED suites share one sector per lattice, the ground state's orbits under
translations and the flip (ed.build_ground_sector, 441 at 4x4), and one
solve per (lattice, delta): analysis.solve_ed, the loop `scan` uses too,
solves the union of the deltas they read (the step-ED_SCAN_STEP grid on
[0, 2], which holds ROUTE_DELTAS and HF_DELTAS, plus HF_DELTAS -+
HF_STEP), 141 solves for all of them, and solve_lattice names those
deltas. It keeps vectors only at ROUTE_DELTAS and HF_DELTAS, and reads
their bond-averaged correlators once, through the sector's bond tables.
Suites have no settings: they run at fixed deltas and steps, and the
spinwave checks share one default zone per dimension (512^2 and 96^3,
spinwave.DEFAULT_K_POINTS), the sizes BRANCH_TOL and CUSP_STABILITY were
set for.

Three rows pass whatever the pipeline does, so no injected fault fails
them: `branch continuity d=2` and `d=3` compare energy_per_site_ising and
energy_per_site_planar at delta = 1, where both evaluate one floating-point
expression, and `bogoliubov constraints` checks spinwave.bogoliubov_factors,
which no quadrature calls. They stay because the benchmark's recorded
`verify` output lists them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, ed, entanglement, spinwave
from .lattice import LatticeSpec

ROUTE_TOL = 1e-10
HF_TOL = 1e-7
CONCAVITY_TOL = 1e-10
ARGMAX_TOL = 1e-9
BOGOLIUBOV_TOL = 1e-12
BRANCH_TOL = 1e-8
CUSP_FLOOR = 1e-3
CUSP_STABILITY = 0.05

DEFAULT_ED_CASES = (LatticeSpec(1, 4), LatticeSpec(1, 8), LatticeSpec(2, 4))
ROUTE_DELTAS = (0.0, 0.5, 1.0, 1.5, 2.0)
HF_DELTAS = (0.5, 1.0, 1.5)
ED_SCAN_STEP = 0.05
SW_DIMS = (2, 3)
CUSP_STEP = 0.01


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _at_most(name: str, measured: float, tolerance: float, detail: str) -> CheckResult:
    """A row that passes when the measured value does not exceed the tolerance."""
    return CheckResult(name, measured <= tolerance, measured, tolerance, detail)


def _case_label(spec: LatticeSpec) -> str:
    return f"d={spec.dimension} L={spec.linear_size}"


def solve_lattice(sector: ed.Sector, suites) -> analysis.EdSolves:
    """The solves of sector.h that the ED suites named in suites read
    (analysis.solve_ed): the scan grid's curve for concavity and argmax,
    and kept states at ROUTE_DELTAS for route-equivalence and at HF_DELTAS,
    with the energies at HF_DELTAS -+ HF_STEP, for hellmann-feynman. A failed
    solve raises: the lowest failed delta's LanczosError, named by lattice and delta."""
    suites = set(suites)
    grid = analysis.delta_grid(0.0, 2.0, ED_SCAN_STEP) if {"concavity", "argmax"} & suites else ()
    routes = ROUTE_DELTAS if "route-equivalence" in suites else ()
    hf = HF_DELTAS if "hellmann-feynman" in suites else ()
    sides = [d + s for d in hf for s in (-analysis.HF_STEP, analysis.HF_STEP)]
    solves = analysis.solve_ed(sector, grid, keep=routes + hf, extra=sides)
    if solves.failures:
        delta, exc = min(solves.failures.items())
        raise ed.LanczosError(f"{_case_label(sector.lattice.spec)} delta={delta:.12g}: {exc}",
                              best=exc.best) from exc
    return solves


def concurrence_routes(solves: analysis.EdSolves) -> dict[float, dict[str, float]]:
    """The four concurrence routes at each of ROUTE_DELTAS, on the kept states.

    The correlator and energy routes read the correlators off every bond's
    two-site RDM, not off the assembled operator's quadratic forms.
    """
    lattice, basis = solves.sector.lattice, solves.sector.basis
    bond = lattice.bonds[0]
    routes = {}
    for delta in ROUTE_DELTAS:
        gs, g = solves.kept[delta]
        rdm = entanglement.two_site_rdm(gs, basis, bond.i, bond.j)
        eps0 = gs.energy / lattice.n_bonds
        routes[delta] = {
            "block": entanglement.concurrence_block(rdm),
            "correlator": entanglement.concurrence_corr(g),
            "energy": entanglement.concurrence_from_energy(eps0, g.gzz, delta),
            "oracle": entanglement.wootters_oracle(rdm.as_matrix()),
        }
    return routes


def check_route_equivalence(solved: dict[LatticeSpec, analysis.EdSolves]) -> list[CheckResult]:
    results = []
    for spec, solves in solved.items():
        worst = 0.0
        for routes in concurrence_routes(solves).values():
            vals = list(routes.values())
            worst = max(worst, max(vals) - min(vals))
        results.append(_at_most(f"route-equivalence {_case_label(spec)}", worst, ROUTE_TOL,
                                f"max spread over deltas {ROUTE_DELTAS}"))
    return results


def check_hellmann_feynman(solved: dict[LatticeSpec, analysis.EdSolves]) -> list[CheckResult]:
    results = []
    step = analysis.HF_STEP
    for spec, solves in solved.items():
        n_bonds = solves.sector.lattice.n_bonds
        worst = max(
            analysis.hellmann_feynman_residual(solves.energies[d - step], solves.energies[d + step],
                                               solves.kept[d][1].gzz, n_bonds)
            for d in HF_DELTAS
        )
        results.append(_at_most(f"hellmann-feynman {_case_label(spec)}", worst, HF_TOL,
                                f"max |dE0/ddelta - Nb*Gzz| at h={step}"))
    return results


def check_concavity(solved: dict[LatticeSpec, analysis.EdSolves]) -> list[CheckResult]:
    results = []
    for spec, solves in solved.items():
        worst = float(analysis.concavity_check(solves.curve).max())
        results.append(_at_most(f"concavity {_case_label(spec)}", worst, CONCAVITY_TOL,
                                f"max second difference of E0 on step-{ED_SCAN_STEP} grid"))
    return results


def check_argmax(solved: dict[LatticeSpec, analysis.EdSolves]) -> list[CheckResult]:
    results = []
    for spec, solves in solved.items():
        curve = solves.curve
        report = analysis.extremum_and_derivative(curve)
        c = curve.concurrences()
        deltas = curve.deltas()
        i1 = int(np.argmin(np.abs(deltas - 1.0)))
        rising = bool(np.all(np.diff(c[: i1 + 1]) > 0))
        falling = bool(np.all(np.diff(c[i1:]) < 0))
        ok = abs(report.delta_star - 1.0) <= ARGMAX_TOL and rising and falling
        results.append(
            CheckResult(
                name=f"argmax {_case_label(spec)}",
                passed=ok,
                measured=report.delta_star,
                tolerance=ARGMAX_TOL,
                detail=f"monotone rise/fall: {rising}/{falling}",
            )
        )
    return results


def check_bogoliubov() -> list[CheckResult]:
    xg = np.linspace(-0.999, 0.999, 2001)
    u, v = spinwave.bogoliubov_factors(xg)
    norm_err = float(np.max(np.abs(u**2 - v**2 - 1.0)))
    mix_err = float(np.max(np.abs(u * v - 0.5 * xg * (u**2 + v**2))))
    worst = max(norm_err, mix_err)
    return [_at_most("bogoliubov constraints", worst, BOGOLIUBOV_TOL,
                     "u^2-v^2=1 and 2uv=x*gamma*(u^2+v^2) on |x*gamma|<=0.999")]


def check_branch_continuity(zones: list[spinwave.ZoneGrid]) -> list[CheckResult]:
    results = []
    for g in zones:
        gapv = abs(
            spinwave.energy_per_site_ising(1.0, g) - spinwave.energy_per_site_planar(1.0, g)
        )
        results.append(_at_most(f"branch continuity d={g.dimension}", gapv, BRANCH_TOL,
                                f"|ising - planar| at delta=1, {g.k_points} points/direction"))
    return results


def _sw_cusp(zone: spinwave.ZoneGrid) -> float:
    """The slope jump at delta = 1 on the three points its one-sided slopes read."""
    grid = analysis.delta_grid(1.0 - CUSP_STEP, 1.0 + CUSP_STEP, CUSP_STEP)
    return analysis.extremum_and_derivative(analysis.scan_spinwave(zone, grid)).cusp


def check_cusp(zones: list[spinwave.ZoneGrid]) -> list[CheckResult]:
    results = []
    for zone in zones:
        d, n_k = zone.dimension, zone.k_points
        jump = _sw_cusp(zone)
        jump_fine = _sw_cusp(spinwave.gamma_grid(d, 2 * n_k))
        drift = abs(jump_fine - jump) / jump if jump else float("inf")
        results.append(
            CheckResult(
                name=f"cusp positive d={d}",
                passed=jump > CUSP_FLOOR,
                measured=jump,
                tolerance=CUSP_FLOOR,
                detail=f"one-sided slope jump at delta=1, step {CUSP_STEP}, {n_k} points/direction",
            )
        )
        results.append(_at_most(f"cusp grid-stable d={d}", drift, CUSP_STABILITY,
                                f"relative change under k-grid doubling to {2 * n_k}"))
    return results


def check_spinwave(zones: list[spinwave.ZoneGrid]) -> list[CheckResult]:
    return check_bogoliubov() + check_branch_continuity(zones) + check_cusp(zones)


SUITES = {
    "route-equivalence": check_route_equivalence,
    "hellmann-feynman": check_hellmann_feynman,
    "concavity": check_concavity,
    "argmax": check_argmax,
    "spinwave": check_spinwave,
}


def run_suites(name: str = "all") -> list[CheckResult]:
    """Run the suite name (or all of them, in SUITES order) and collect its rows.

    The ED suites share one sector per lattice in DEFAULT_ED_CASES and one
    record of its solves (solve_lattice) over the union of the deltas they
    read; that all goes before the spinwave suite builds its default zones,
    which are built only when it runs. A failed solve raises its
    LanczosError before any row is made.
    """
    selected = list(SUITES) if name == "all" else [name]
    ed_names = [n for n in selected if n != "spinwave"]
    solved = {spec: solve_lattice(ed.build_ground_sector(spec), ed_names)
              for spec in DEFAULT_ED_CASES if ed_names}
    rows = [row for n in ed_names for row in SUITES[n](solved)]
    del solved  # the records and sectors go before the zones set the peak
    if "spinwave" in selected:
        rows += check_spinwave([spinwave.gamma_grid(d) for d in SW_DIMS])
    return rows
