"""End-to-end acceptance suite: ten numbered criteria, one line each.

Each test records a [PASS]/[FAIL] line through the acceptance_log fixture;
the collected lines are echoed in the terminal summary. Tolerances are
frozen from the calibration runs recorded in the scripts/ studies.
"""

import math

import numpy as np
import pytest

from conftest import dense_ground_oracle
from xxzent import analysis, ed, entanglement, spinwave, verify
from xxzent.analysis import delta_grid, extremum_and_derivative
from xxzent.lattice import LatticeSpec

ED_CASES = (LatticeSpec(1, 4), LatticeSpec(1, 8), LatticeSpec(1, 12), LatticeSpec(2, 4))
SW_GRIDS = {2: 512, 3: 96}


@pytest.fixture(scope="module")
def sectors():
    return {spec: ed.build_sector(spec) for spec in ED_CASES}


@pytest.fixture(scope="module")
def ed_records(sectors):
    # the step-0.05 curve on [0, 2] that the concavity and argmax checks read
    grid = delta_grid(0.0, 2.0, verify.ED_SCAN_STEP)
    return {spec: analysis.solve_ed(sector, grid) for spec, sector in sectors.items()}


@pytest.fixture(scope="module")
def sw_curves():
    grid = delta_grid(0.0, 2.0, 0.05)
    return {d: analysis.scan_spinwave(spinwave.gamma_grid(d, n), grid)
            for d, n in SW_GRIDS.items()}


def _sw_jump(dimension: int, step: float, k_points: int) -> float:
    deltas = [1 - 2 * step, 1 - step, 1.0, 1 + step, 1 + 2 * step]
    curve = analysis.scan_spinwave(spinwave.gamma_grid(dimension, k_points), deltas)
    return extremum_and_derivative(curve).cusp


def _ed_jump(sector: ed.Sector, step: float) -> float:
    deltas = [1 - 2 * step, 1 - step, 1.0, 1 + step, 1 + 2 * step]
    curve = analysis.scan_ed(sector, deltas)
    return extremum_and_derivative(curve).cusp


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
def test_criterion_01_exact_small_systems(sectors, acceptance_log):
    two = ed.build_sector(LatticeSpec(1, 2))
    gs2 = ed.lanczos_ground(two.h.at(1.0))
    rdm2 = entanglement.two_site_rdm(gs2, two.basis, 0, 1)
    c2 = entanglement.concurrence_block(rdm2)

    four = sectors[LatticeSpec(1, 4)]
    h4 = four.h.at(1.0)
    gs4 = ed.lanczos_ground(h4)
    dense4 = dense_ground_oracle(h4)
    g4 = entanglement.mean_bond_correlators(gs4, four)
    c4 = entanglement.concurrence_corr(g4)

    errs = {
        "e2": abs(gs2.energy + 0.75),
        "c2": abs(c2 - 1.0),
        "e4": abs(gs4.energy + 2.0),
        "e4_dense": abs(dense4.energy + 2.0),
        "gzz4": abs(g4.gzz + 1.0 / 6.0),
        "c4": abs(c4 - 0.5),
    }
    ok = errs["e2"] <= 1e-12 and errs["c2"] <= 1e-12 and all(
        errs[k] <= 1e-10 for k in ("e4", "e4_dense", "gzz4", "c4")
    )
    acceptance_log(
        "criterion 01 exact small systems",
        ok,
        f"2-site E0 err {errs['e2']:.1e}, C err {errs['c2']:.1e}; "
        f"4-ring E0 err {errs['e4']:.1e} (dense {errs['e4_dense']:.1e}), "
        f"Gzz err {errs['gzz4']:.1e}, C err {errs['c4']:.1e}",
    )


def test_criterion_02_route_equivalence(acceptance_log):
    cases = [LatticeSpec(1, n) for n in (4, 6, 8, 10, 12)] + [LatticeSpec(2, 4)]
    assert verify.ROUTE_DELTAS == (0.0, 0.5, 1.0, 1.5, 2.0)
    worst = 0.0
    worst_at = None
    for spec in cases:
        solves = analysis.solve_ed(ed.build_sector(spec), (), keep=verify.ROUTE_DELTAS)
        for delta, routes in verify.concurrence_routes(solves).items():
            spread = max(routes.values()) - min(routes.values())
            if spread > worst:
                worst, worst_at = spread, (spec.dimension, spec.linear_size, delta)
    ok = worst <= 1e-10
    acceptance_log(
        "criterion 02 route equivalence",
        ok,
        f"max spread {worst:.2e} at d={worst_at[0]} L={worst_at[1]} "
        f"delta={worst_at[2]} (tol 1e-10, 4 routes, 30 ground states)",
    )


def test_criterion_03_argmax_at_isotropy(ed_records, acceptance_log):
    # the argmax must sit on the delta = 1 grid point exactly, tighter than
    # the suite's ARGMAX_TOL; a row passes only if the rise and fall are
    # strictly monotone on each side
    rows = verify.check_argmax(ed_records)
    ok = all(r.passed and r.measured == 1.0 for r in rows)
    details = [
        f"d={spec.dimension} L={spec.linear_size}: argmax {r.measured:.2f}"
        for spec, r in zip(ed_records, rows)
    ]
    acceptance_log(
        "criterion 03 argmax at delta=1",
        ok,
        "; ".join(details) + " (rise/fall strictly monotone on each side)",
    )


def test_criterion_04_concavity_and_hellmann_feynman(sectors, ed_records, acceptance_log):
    concavity = verify.check_concavity(ed_records)
    # the energies at HF_DELTAS -+ HF_STEP and the kept states at HF_DELTAS
    sides = [d + s for d in verify.HF_DELTAS for s in (-analysis.HF_STEP, analysis.HF_STEP)]
    hf = verify.check_hellmann_feynman(
        {spec: analysis.solve_ed(sector, (), keep=verify.HF_DELTAS, extra=sides)
         for spec, sector in sectors.items()}
    )
    worst_d2 = max(r.measured for r in concavity)
    worst_hf = max(r.measured for r in hf)
    ok = all(r.passed for r in concavity + hf)
    acceptance_log(
        "criterion 04 concavity and energy-derivative identity",
        ok,
        f"max second difference {worst_d2:.2e} (tol 1e-10); "
        f"max |dE0/ddelta - Nb*Gzz| {worst_hf:.2e} (tol 1e-7)",
    )


def _slope_identity_residual(curve) -> float:
    """max |dC/ddelta - 2 (delta - 1) d2(eps0)/ddelta2| over the interior points.

    Both derivatives are central differences on the curve's uniform grid,
    so for an exact curve the residual shrinks as O(step^2) while the
    concurrence clamp is inactive (C > 0 with Gxx + Gyy < 0).
    """
    deltas, c = curve.deltas(), curve.concurrences()
    eps = np.array([s.energy_per_bond for s in curve.samples])
    h = deltas[1] - deltas[0]
    dc = (c[2:] - c[:-2]) / (2.0 * h)
    d2e = analysis.second_differences(eps) / h**2
    return float(np.max(np.abs(dc - 2.0 * (deltas[1:-1] - 1.0) * d2e)))


def test_criterion_05_slope_identity_refines(sectors, acceptance_log):
    sector = sectors[LatticeSpec(1, 8)]
    r_coarse = _slope_identity_residual(analysis.scan_ed(sector, delta_grid(0.8, 1.2, 0.01)))
    r_fine = _slope_identity_residual(analysis.scan_ed(sector, delta_grid(0.8, 1.2, 0.005)))
    ratio = r_fine / r_coarse
    ok = r_coarse <= 1e-4 and ratio <= 0.4  # second-order stencils: expect ~0.25
    acceptance_log(
        "criterion 05 concurrence-slope identity",
        ok,
        f"max residual {r_coarse:.2e} at step 1e-2 (tol 1e-4), "
        f"x{ratio:.3f} under step halving (need <= 0.40)",
    )


def test_criterion_06_branch_continuity_and_energy(acceptance_log):
    zones = [spinwave.gamma_grid(d) for d in verify.SW_DIMS]  # the production grids
    rows = verify.check_branch_continuity(zones)
    gaps = dict(zip(verify.SW_DIMS, (r.measured for r in rows)))
    e2 = spinwave.energy_per_site(1.0, zones[0])
    converged = -0.657947420953  # fine-grid study value, scripts/spinwave_convergence.py
    drift = abs(e2 - converged)
    ok = all(r.passed for r in rows) and drift <= 1e-7 and abs(e2 + 0.658) < 1e-3
    acceptance_log(
        "criterion 06 spin-wave branch continuity and energy",
        ok,
        f"branch gap d=2 {gaps[2]:.1e}, d=3 {gaps[3]:.1e} (tol 1e-8); "
        f"per-site energy {e2:.9f} vs converged {converged} (drift {drift:.1e})",
    )


def test_criterion_07_thermodynamic_cusp(sectors, sw_curves, acceptance_log):
    parts = []
    ok = True
    for d, n in SW_GRIDS.items():
        curve = sw_curves[d]
        star = float(curve.deltas()[int(np.argmax(curve.concurrences()))])
        jump = _sw_jump(d, 0.01, n)
        jump_fine_k = _sw_jump(d, 0.01, 2 * n)
        drift = abs(jump_fine_k - jump) / jump
        ratio = _sw_jump(d, 0.005, n) / jump
        ok = ok and star == 1.0 and jump > 1e-3 and drift <= 0.05 and ratio >= 0.56
        parts.append(
            f"d={d}: argmax {star:.2f}, jump {jump:.4f} "
            f"(k-doubling drift {drift:.1%}, step-halving x{ratio:.2f})"
        )
    square = sectors[LatticeSpec(2, 4)]
    ed_ratio = _ed_jump(square, 0.005) / _ed_jump(square, 0.01)
    ok = ok and ed_ratio <= 0.55  # smooth finite-lattice curve: jump is pure step noise
    parts.append(f"ED 4x4 step-halving x{ed_ratio:.3f} (need <= 0.55)")
    acceptance_log("criterion 07 thermodynamic-limit cusp", ok, "; ".join(parts))


def _quadratic_fit(curve) -> tuple[float, float]:
    """Least-squares C ~ c0 - c1 (delta - 1)^2: c1 and the residual norm over |C|."""
    c = curve.concurrences()
    (c1, _), (squares,), *_ = np.polyfit(-((curve.deltas() - 1.0) ** 2), c, 1, full=True)
    return float(c1), math.sqrt(squares) / float(np.linalg.norm(c))


def test_criterion_08_quadratic_fit_contrast(sectors, acceptance_log):
    window = delta_grid(0.9, 1.1, 0.025)
    curvature, r_ed = _quadratic_fit(analysis.scan_ed(sectors[LatticeSpec(1, 12)], window))
    _, r_sw = _quadratic_fit(analysis.scan_spinwave(spinwave.gamma_grid(2, 512), window))
    contrast = r_sw / r_ed
    ok = r_ed < 1e-3 and curvature > 0 and contrast >= 10.0
    acceptance_log(
        "criterion 08 quadratic shape near the peak",
        ok,
        f"ED L=12 relative residual {r_ed:.2e} (curvature {curvature:.4f} > 0); "
        f"spin-wave {r_sw:.2e}, contrast x{contrast:.0f} (need >= 10)",
    )


def test_criterion_09_finite_size_extrapolation(acceptance_log):
    sizes = [8, 10, 12, 14]
    energies = [ed.lanczos_ground(ed.build_sector(LatticeSpec(1, n)).h.at(1.0)).energy / n
                for n in sizes]
    # a quadratic in 1/L; its constant term is the extrapolated limit
    limit = float(np.polynomial.polynomial.polyfit(1.0 / np.array(sizes), energies, 2)[0])
    exact = 0.25 - math.log(2.0)  # integrable-chain closed form
    err = abs(limit - exact)
    ok = err < 5e-3
    acceptance_log(
        "criterion 09 finite-size extrapolation",
        ok,
        f"1/L-extrapolated energy per site {limit:.6f} vs "
        f"{exact:.6f} exact, off by {err:.1e} (tol 5e-3)",
    )


def test_criterion_10_deterministic_output(tmp_path, acceptance_log):
    blobs = {}
    for engine, extra in (
        ("ed", ["--dim", "1", "--size", "8"]),
        ("spinwave", ["--dim", "2", "--kgrid", "64"]),
    ):
        pair = []
        for run in (1, 2):
            out = tmp_path / f"{engine}_{run}.csv"
            rc = __import__("xxzent.cli", fromlist=["main"]).main(
                ["scan", "--engine", engine, *extra,
                 "--from", "0", "--to", "2", "--step", "0.25", "--out", str(out)]
            )
            assert rc == 0
            pair.append(out.read_bytes())
        blobs[engine] = pair[0] == pair[1]
    ok = all(blobs.values())
    acceptance_log(
        "criterion 10 deterministic scans",
        ok,
        f"byte-identical reruns: ed={blobs['ed']}, spinwave={blobs['spinwave']}",
    )
