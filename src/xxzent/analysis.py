"""Delta scans, derivative identities and extremum reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ed, entanglement, spinwave
from .lattice import Lattice

GRID_UNIFORMITY_RTOL = 1e-8
DELTA_MATCH_TOL = 1e-9
MAX_GRID_POINTS = 100_000
HF_STEP = 1e-4


@dataclass(frozen=True)
class ScanSample:
    """One delta point of a concurrence curve.

    Failed solves are kept as explicit gaps: ok=False, NaN payload, and the
    failure reason in `error`.
    """

    delta: float
    concurrence: float
    energy_per_bond: float
    gzz: float
    energy_total: float
    ok: bool = True
    error: str | None = None
    iterations: int = 0
    residual: float = 0.0


@dataclass(frozen=True)
class ConcurrenceCurve:
    """Samples of C(delta) from one engine, deltas strictly increasing."""

    engine: str
    provenance: str
    samples: tuple[ScanSample, ...]

    def __post_init__(self) -> None:
        if self.engine not in ("ed", "spinwave"):
            raise ValueError(f"unknown engine {self.engine!r}")
        d = self.deltas()
        if len(d) and np.any(np.diff(d) <= 0):
            raise ValueError("deltas must be strictly increasing")

    def _column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.samples], dtype=float)

    def deltas(self) -> np.ndarray:
        return self._column("delta")

    def concurrences(self) -> np.ndarray:
        return self._column("concurrence")

    def all_ok(self) -> bool:
        return all(s.ok for s in self.samples)


def delta_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Uniform grid start, start+step, ..., stop (stop included within 1e-9).

    The one place a grid is validated: finite inputs, a positive step,
    stop >= start and at most MAX_GRID_POINTS points, all checked before
    anything is allocated.
    """
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError("start, stop and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError("stop must be >= start")
    steps = (stop - start) / step + 1e-9  # inf when the span overflows
    if not steps < MAX_GRID_POINTS:
        raise ValueError(f"step {step:g} gives {steps + 1:.3g} points, above {MAX_GRID_POINTS}")
    with np.errstate(over="ignore"):
        grid = np.round(start + step * np.arange(int(math.floor(steps)) + 1), 12)
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid values overflow when rounded to 12 decimals")
    return grid


@dataclass(frozen=True)
class EdSolves:
    """One sector's ground states at a set of deltas, each solved once (solve_ed).

    `curve` holds the samples at the deltas asked for, in their order,
    `energies` every solved delta's E0, and `kept` the ground states at the
    kept deltas, the only vectors kept, each with its bond means read off
    the two-site RDMs. A failed solve is a gap in the curve, is missing from
    `energies` and `kept`, and keeps its LanczosError in `failures`.
    """

    sector: ed.Sector
    curve: ConcurrenceCurve
    energies: dict[float, float]
    kept: dict[float, tuple[ed.GroundState, entanglement.BondCorrelators]]
    failures: dict[float, ed.LanczosError]


def _sample(h: ed.SparseHamiltonian, outcome: ed.GroundState | ed.LanczosError,
            lattice: Lattice) -> ScanSample:
    """The sample of the solve of h: the bond means from the operator's
    quadratic forms, or, for a LanczosError, an explicit gap that keeps its
    best estimate's iterations and residual."""
    if isinstance(outcome, ed.LanczosError):
        best = outcome.best
        return ScanSample(h.delta, math.nan, math.nan, math.nan, math.nan,
                          ok=False, error=str(outcome),
                          iterations=best.iterations if best else 0,
                          residual=best.residual if best else math.nan)
    g = entanglement.operator_bond_correlators(outcome, h, lattice)
    return ScanSample(h.delta, entanglement.concurrence_corr(g), outcome.energy / lattice.n_bonds,
                      g.gzz, outcome.energy, iterations=outcome.iterations,
                      residual=outcome.residual)


def solve_ed(sector: ed.Sector, deltas, *, keep=(), extra=(),
             seed: int = ed.DEFAULT_SEED) -> EdSolves:
    """Solve sector.h once at each delta of deltas, keep and extra, in increasing order.

    The curve samples deltas in the order given, so a repeated or
    decreasing delta is refused there. Every solve runs at ed.DEFAULT_TOL,
    which the provenance records with, where the Lanczos residual floor
    replaced it at some delta of the curve, the largest threshold applied
    (tol_applied).
    """
    deltas = np.asarray(deltas, dtype=float).tolist()
    wanted, keep = set(deltas), set(keep)
    samples, energies, kept, failures = {}, {}, {}, {}
    applied = ed.DEFAULT_TOL
    for delta in sorted(wanted | keep | set(extra)):
        h = sector.h.at(delta)
        try:
            outcome = ed.lanczos_ground(h, seed=seed)
        except ed.LanczosError as exc:
            outcome = failures[delta] = exc
        else:
            energies[delta] = outcome.energy
            if delta in keep:
                kept[delta] = (outcome, entanglement.mean_bond_correlators(outcome, sector))
        if delta in wanted:
            samples[delta] = _sample(h, outcome, sector.lattice)
            solved = outcome.best if delta in failures else outcome
            if solved:
                applied = max(applied, solved.tolerance)
    spec = sector.lattice.spec
    bc = "periodic" if spec.periodic else "open"
    lifted = f" tol_applied={applied:.3g}" if applied > ed.DEFAULT_TOL else ""
    prov = (
        f"ed d={spec.dimension} L={spec.linear_size} {bc} m=0.0 dim={sector.h.dimension} "
        f"tol={ed.DEFAULT_TOL}{lifted} seed={seed}"
    )
    curve = ConcurrenceCurve("ed", prov, tuple(samples[d] for d in deltas))
    return EdSolves(sector, curve, energies, kept, failures)


def scan_ed(sector: ed.Sector, deltas, *, seed: int = ed.DEFAULT_SEED) -> ConcurrenceCurve:
    """ED C(delta) curve: sector.h solved once per delta (see solve_ed)."""
    return solve_ed(sector, deltas, seed=seed).curve


def scan_spinwave(zone: spinwave.ZoneGrid, deltas) -> ConcurrenceCurve:
    """Spin-wave C(delta) curve on a prebuilt zone; energy_total is NaN (thermodynamic limit).

    A delta whose result concurrence_from_energy refuses stays as a failed sample.
    """
    samples = []
    for delta in map(float, np.asarray(deltas, dtype=float)):
        eps = spinwave.energy_per_site(delta, zone) / zone.dimension
        gzz = spinwave.gzz_per_bond(delta, zone)
        try:
            c = entanglement.concurrence_from_energy(eps, gzz, delta)
        except ValueError as exc:
            samples.append(ScanSample(delta, *[math.nan] * 4, ok=False, error=str(exc)))
        else:
            samples.append(ScanSample(delta, c, eps, gzz, math.nan))
    prov = (
        f"spinwave d={zone.dimension} kgrid={zone.k_points} spin={spinwave.SPIN} "
        f"h={spinwave.FD_STEP}"
    )
    return ConcurrenceCurve("spinwave", prov, tuple(samples))


def hellmann_feynman_residual(e_minus: float, e_plus: float, gzz: float, n_bonds: int) -> float:
    """|dE0/ddelta - N_B Gzz| at delta, from e_minus and e_plus, the ground
    energies at delta -+ HF_STEP, by a central difference.

    The verify suite takes both energies and Gzz from the solves it shares
    with the other ED suites (solve_ed), and Gzz is the bond-by-bond mean
    (entanglement.mean_bond_correlators), not the operator's own H_zz, so a
    fault in H_zz cannot cancel out.
    """
    de = (e_plus - e_minus) / (2.0 * HF_STEP)
    return abs(de - n_bonds * gzz)


def second_differences(values: np.ndarray) -> np.ndarray:
    """v[i+1] - 2 v[i] + v[i-1] at the interior points, not divided by the step."""
    v = np.asarray(values, dtype=float)
    return v[2:] - 2.0 * v[1:-1] + v[:-2]


def concavity_check(curve: ConcurrenceCurve) -> np.ndarray:
    """Interior second differences of the energy along the curve.

    For a concave ground-state energy every entry is <= 0 up to solver
    noise. ED curves use the total energy; spin-wave curves fall back to
    the per-bond density (no finite total exists) and are only meaningful
    within a single branch.
    """
    steps = np.diff(curve.deltas())
    if len(steps) < 2:
        raise ValueError("need at least 3 samples")
    if np.any(np.abs(steps - steps[0]) > GRID_UNIFORMITY_RTOL * max(abs(steps[0]), 1.0)):
        raise ValueError("grid is not uniform")
    quantity = "energy_total" if curve.engine == "ed" else "energy_per_bond"
    return second_differences(curve._column(quantity))


@dataclass(frozen=True)
class ExtremumReport:
    """Discrete argmax and one-sided slopes of C at delta = 1."""

    delta_star: float
    left_slope: float
    right_slope: float

    @property
    def cusp(self) -> float:
        return abs(self.right_slope - self.left_slope)


def extremum_and_derivative(curve: ConcurrenceCurve) -> ExtremumReport:
    """Argmax at grid resolution plus one-sided slopes about delta = 1.

    The slope estimates use the immediate neighbors of the grid point at
    delta = 1, so their scale is tied to the grid step: for a smooth curve
    the cusp shrinks linearly with the step, for a genuine kink it does not.
    """
    deltas = curve.deltas()
    c = curve.concurrences()
    if np.any(~np.isfinite(c)):
        raise ValueError("curve has failed samples")
    i1 = int(np.argmin(np.abs(deltas - 1.0)))
    if abs(deltas[i1] - 1.0) > DELTA_MATCH_TOL:
        raise ValueError("grid must contain delta = 1")
    if i1 == 0 or i1 == len(deltas) - 1:
        raise ValueError("delta = 1 needs a neighbor on each side")
    delta_star = float(deltas[int(np.argmax(c))])
    left = float((c[i1] - c[i1 - 1]) / (deltas[i1] - deltas[i1 - 1]))
    right = float((c[i1 + 1] - c[i1]) / (deltas[i1 + 1] - deltas[i1]))
    return ExtremumReport(delta_star=delta_star, left_slope=left, right_slope=right)
