"""Delta scans, derivative identities, extremum reports, and least-squares fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ed, entanglement, spinwave

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

    def energies_per_bond(self) -> np.ndarray:
        return self._column("energy_per_bond")

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


class EdSamples:
    """An ED curve built one solved delta at a time.

    `scan_ed` and the verify suites both make their curves here, so a
    delta's sample has one builder: the bond means from the operator's
    quadratic forms, or, for a failed solve, an explicit gap that keeps its
    best estimate's iterations and residual. Every solve runs at
    ed.DEFAULT_TOL, which the provenance records with, where the Lanczos
    residual floor replaced it at some delta, the largest threshold applied
    (tol_applied).
    """

    def __init__(self, sector: ed.Sector, seed: int) -> None:
        self.sector = sector
        self.seed = seed
        self.samples: list[ScanSample] = []
        self.applied = ed.DEFAULT_TOL  # the largest residual threshold a solve was judged at

    def add(self, h: ed.SparseHamiltonian, outcome: ed.GroundState | ed.LanczosError) -> None:
        """Append the sample of the solve of h: its ground state, or its LanczosError."""
        if isinstance(outcome, ed.LanczosError):
            best = outcome.best
            if best:
                self.applied = max(self.applied, best.tolerance)
            self.samples.append(
                ScanSample(h.delta, math.nan, math.nan, math.nan, math.nan,
                           ok=False, error=str(outcome),
                           iterations=best.iterations if best else 0,
                           residual=best.residual if best else math.nan)
            )
            return
        self.applied = max(self.applied, outcome.tolerance)
        n_bonds = self.sector.lattice.n_bonds
        g = entanglement.operator_bond_correlators(outcome, h, self.sector.lattice)
        c = entanglement.concurrence_corr(g)
        self.samples.append(
            ScanSample(h.delta, c, outcome.energy / n_bonds, g.gzz, outcome.energy,
                       iterations=outcome.iterations, residual=outcome.residual)
        )

    def curve(self) -> ConcurrenceCurve:
        spec = self.sector.lattice.spec
        bc = "periodic" if spec.periodic else "open"
        lifted = f" tol_applied={self.applied:.3g}" if self.applied > ed.DEFAULT_TOL else ""
        prov = (
            f"ed d={spec.dimension} L={spec.linear_size} {bc} m=0.0 dim={self.sector.h.dimension} "
            f"tol={ed.DEFAULT_TOL}{lifted} seed={self.seed}"
        )
        return ConcurrenceCurve("ed", prov, tuple(self.samples))


def scan_ed(sector: ed.Sector, deltas, *, seed: int = ed.DEFAULT_SEED) -> ConcurrenceCurve:
    """ED C(delta) curve: sector.h re-pointed and solved once per delta (see EdSamples)."""
    scan = EdSamples(sector, seed)
    for delta in np.asarray(deltas, dtype=float):
        h = sector.h.at(float(delta))
        try:
            outcome = ed.lanczos_ground(h, seed=seed)
        except ed.LanczosError as exc:
            outcome = exc
        scan.add(h, outcome)
    return scan.curve()


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
    with the other ED suites, and Gzz is the bond-by-bond mean
    (entanglement.mean_bond_correlators), not the operator's own H_zz, so a
    fault in H_zz cannot cancel out.
    """
    de = (e_plus - e_minus) / (2.0 * HF_STEP)
    return abs(de - n_bonds * gzz)


def _uniform_step(deltas: np.ndarray) -> float:
    if len(deltas) < 3:
        raise ValueError("need at least 3 samples")
    steps = np.diff(deltas)
    h = float(steps[0])
    if np.any(np.abs(steps - h) > GRID_UNIFORMITY_RTOL * max(abs(h), 1.0)):
        raise ValueError("grid is not uniform")
    return h


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
    quantity = "energy_total" if curve.engine == "ed" else "energy_per_bond"
    _uniform_step(curve.deltas())  # validates uniformity, >= 3 points
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


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit summary."""

    coefficients: tuple[float, ...]
    residual_norm: float
    data_norm: float
    dof: int

    @property
    def relative_residual(self) -> float:
        return self.residual_norm / self.data_norm if self.data_norm else math.inf

    @property
    def low_confidence(self) -> bool:
        return self.dof <= 0


def _least_squares(a: np.ndarray, y: np.ndarray) -> FitResult:
    """Fit y by the columns of a; no norm or product here goes through BLAS."""
    coef = np.linalg.lstsq(a, y, rcond=None)[0]
    return FitResult(
        coefficients=tuple(float(x) for x in coef),
        residual_norm=math.hypot(*(np.einsum("ij,j->i", a, coef) - y)),
        data_norm=math.hypot(*y),
        dof=len(y) - len(coef),
    )


def quadratic_fit_near_iso(curve: ConcurrenceCurve) -> FitResult:
    """Fit C ~ c0 - c1 (delta - 1)^2 to the curve as scanned (needs >= 5 points)."""
    deltas = curve.deltas()
    c = curve.concurrences()
    if len(deltas) < 5:
        raise ValueError(f"need >= 5 points, got {len(deltas)}")
    a = np.column_stack([np.ones_like(deltas), -((deltas - 1.0) ** 2)])
    return _least_squares(a, c)


def polynomial_inverse_l_fit(pairs, degree: int) -> FitResult:
    """Fit value(L) = sum_n a_n (1/L)^n; a_0 is the extrapolated limit."""
    ls = np.array([float(l) for l, _ in pairs])
    ys = np.array([float(v) for _, v in pairs])
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if len(set(ls.tolist())) < degree + 1:
        raise ValueError(f"degree {degree} fit needs {degree + 1} distinct sizes")
    a = np.column_stack([(1.0 / ls) ** n for n in range(degree + 1)])
    return _least_squares(a, ys)


def slope_identity_residuals(curve: ConcurrenceCurve) -> np.ndarray:
    """|dC/ddelta - 2 (delta - 1) d2(eps0)/ddelta2| at interior grid points.

    Both derivatives are central differences on the curve's own grid, so
    for an exact curve the residual shrinks as O(step^2). Meaningful while
    the concurrence clamp is inactive (C > 0 with Gxx + Gyy < 0).
    """
    deltas = curve.deltas()
    h = _uniform_step(deltas)
    c = curve.concurrences()
    eps = curve.energies_per_bond()
    dc = (c[2:] - c[:-2]) / (2.0 * h)
    d2e = second_differences(eps) / h**2
    return np.abs(dc - 2.0 * (deltas[1:-1] - 1.0) * d2e)
