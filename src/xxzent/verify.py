"""Machine checks for the analytic claims, bundled into named suites.

Each check returns CheckResult rows instead of raising, so the CLI can
print one line per check and exit nonzero if any fail. Suites:

  route-equivalence  four concurrence routes agree on ED ground states
  hellmann-feynman   dE0/ddelta matches N_B Gzz
  concavity          second differences of E0(delta) never positive
  argmax             C(delta) peaks exactly at delta = 1 on the scan grid
  spinwave           Bogoliubov constraints, branch continuity, cusp
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
DEFAULT_DELTAS = (0.0, 0.5, 1.0, 1.5, 2.0)
ED_SCAN_STEP = 0.05
DEFAULT_SW_DIMS = (2, 3)


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


def concurrence_routes(sector: ed.Sector, deltas) -> dict[float, dict[str, float]]:
    """The four concurrence routes at each delta, on the sector's one operator.

    The correlator and energy routes measure correlators bond by bond,
    independently of the assembled operator.
    """
    lattice, basis = sector.lattice, sector.basis
    bond = lattice.bonds[0]
    routes = {}
    for delta in map(float, deltas):
        gs = ed.lanczos_ground(sector.h.at(delta))
        rdm = entanglement.two_site_rdm(gs, basis, bond.i, bond.j)
        g = entanglement.mean_bond_correlators(gs, basis, lattice)
        eps0 = gs.energy / lattice.n_bonds
        routes[delta] = {
            "block": entanglement.concurrence_block(rdm),
            "correlator": entanglement.concurrence_corr(g),
            "energy": entanglement.concurrence_from_energy(eps0, g.gzz, delta),
            "oracle": entanglement.wootters_oracle(rdm.as_matrix()),
        }
    return routes


def check_route_equivalence(
    sectors: dict[LatticeSpec, ed.Sector], deltas=DEFAULT_DELTAS
) -> list[CheckResult]:
    results = []
    for spec, sector in sectors.items():
        worst = 0.0
        for routes in concurrence_routes(sector, deltas).values():
            vals = list(routes.values())
            worst = max(worst, max(vals) - min(vals))
        results.append(_at_most(f"route-equivalence {_case_label(spec)}", worst, ROUTE_TOL,
                                f"max spread over deltas {tuple(deltas)}"))
    return results


def check_hellmann_feynman(
    sectors: dict[LatticeSpec, ed.Sector], deltas=(0.5, 1.0, 1.5), h: float = 1e-4
) -> list[CheckResult]:
    results = []
    for spec, sector in sectors.items():
        worst = max(analysis.hellmann_feynman_residual(sector, float(d), h=h) for d in deltas)
        results.append(_at_most(f"hellmann-feynman {_case_label(spec)}", worst, HF_TOL,
                                f"max |dE0/ddelta - Nb*Gzz| at h={h}"))
    return results


def ed_curves(sectors: dict[LatticeSpec, ed.Sector]) -> dict[LatticeSpec, analysis.ConcurrenceCurve]:
    """The delta in [0, 2] scans that the concavity and argmax suites share."""
    grid = analysis.delta_grid(0.0, 2.0, ED_SCAN_STEP)
    return {spec: analysis.scan_ed(sector, grid) for spec, sector in sectors.items()}


def check_concavity(curves: dict[LatticeSpec, analysis.ConcurrenceCurve]) -> list[CheckResult]:
    results = []
    for spec, curve in curves.items():
        worst = float(analysis.concavity_check(curve).max())
        results.append(_at_most(f"concavity {_case_label(spec)}", worst, CONCAVITY_TOL,
                                f"max second difference of E0 on step-{ED_SCAN_STEP} grid"))
    return results


def check_argmax(curves: dict[LatticeSpec, analysis.ConcurrenceCurve]) -> list[CheckResult]:
    results = []
    for spec, curve in curves.items():
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


def check_branch_continuity(dims=DEFAULT_SW_DIMS, k_points: int | None = None) -> list[CheckResult]:
    results = []
    for d in dims:
        n_k = spinwave.DEFAULT_K_POINTS[d] if k_points is None else k_points
        g = spinwave.gamma_grid(d, n_k)
        gapv = abs(
            spinwave.energy_per_site_ising(1.0, g) - spinwave.energy_per_site_planar(1.0, g)
        )
        results.append(_at_most(f"branch continuity d={d}", gapv, BRANCH_TOL,
                                f"|ising - planar| at delta=1, {n_k} points/direction"))
    return results


def _sw_cusp(dimension: int, n_k: int, step: float) -> float:
    grid = analysis.delta_grid(1.0 - 2 * step, 1.0 + 2 * step, step)
    curve = analysis.scan_spinwave(dimension, grid, k_points=n_k)
    return analysis.extremum_and_derivative(curve).cusp


def check_cusp(dims=DEFAULT_SW_DIMS, k_points: int | None = None, step: float = 0.01) -> list[CheckResult]:
    results = []
    for d in dims:
        n_k = spinwave.DEFAULT_K_POINTS[d] if k_points is None else k_points
        jump = _sw_cusp(d, n_k, step)
        jump_fine = _sw_cusp(d, 2 * n_k, step)
        drift = abs(jump_fine - jump) / jump if jump else float("inf")
        results.append(
            CheckResult(
                name=f"cusp positive d={d}",
                passed=jump > CUSP_FLOOR,
                measured=jump,
                tolerance=CUSP_FLOOR,
                detail=f"one-sided slope jump at delta=1, step {step}, {n_k} points/direction",
            )
        )
        results.append(_at_most(f"cusp grid-stable d={d}", drift, CUSP_STABILITY,
                                f"relative change under k-grid doubling to {2 * n_k}"))
    return results


def check_spinwave(dims=DEFAULT_SW_DIMS, k_points: int | None = None) -> list[CheckResult]:
    return (
        check_bogoliubov()
        + check_branch_continuity(dims, k_points)
        + check_cusp(dims, k_points)
    )


SUITES = {
    "route-equivalence": check_route_equivalence,
    "hellmann-feynman": check_hellmann_feynman,
    "concavity": check_concavity,
    "argmax": check_argmax,
    "spinwave": check_spinwave,
}
SECTOR_SUITES = ("route-equivalence", "hellmann-feynman")
CURVE_SUITES = ("concavity", "argmax")


def run_suites(names=("all",), **kwargs) -> list[CheckResult]:
    """Run the named suites (or all of them) and collect their rows.

    The ED suites share one sector per lattice in DEFAULT_ED_CASES, and the
    concavity and argmax suites one set of curves scanned on them; both are
    built here once per call when a suite that reads them is selected.
    """
    if isinstance(names, str):
        names = (names,)
    selected = list(SUITES) if "all" in names else list(names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {unknown}; choose from {list(SUITES)}")
    inputs = {}
    if set(selected) & {*SECTOR_SUITES, *CURVE_SUITES}:
        sectors = {spec: ed.build_sector(spec) for spec in DEFAULT_ED_CASES}
        inputs.update(dict.fromkeys(SECTOR_SUITES, (sectors,)))
        if set(selected) & set(CURVE_SUITES):
            inputs.update(dict.fromkeys(CURVE_SUITES, (ed_curves(sectors),)))
    results: list[CheckResult] = []
    for name in selected:
        results.extend(SUITES[name](*inputs.get(name, ()), **kwargs.get(name, {})))
    return results
