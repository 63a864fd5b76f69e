"""Linear spin-wave theory for the XXZ antiferromagnet on hypercubic lattices.

Two branches around the two classical orders, evaluated in the thermodynamic
limit by Brillouin-zone quadrature (d >= 2):

  Ising-like, delta >= 1: the quadratic boson problem is solved for H/delta
      with x = 1/delta, then rescaled by delta. Energy per site
      e = delta * (-(z/2) S^2 + (z S / 2) <sqrt(1 - x^2 g^2) - 1>).

  Planar, 0 <= delta <= 1: x = (1+delta)/2, y = (1-delta)/2,
      e = -(z/2) S^2 + (z S / 2) <sqrt((1 + y g)^2 - x^2 g^2) - (1 + y g)>.

Here g is the structure factor (2/z) sum_m cos k_m, z = 2d, S = SPIN = 1/2
(concurrence is a two-qubit measure), and <.> is the BZ average on a
midpoint-shifted N^d grid, summed exactly over its irreducible wedge (g is
even in each k_m and symmetric in the axes) with integer multiplicities,
then divided by N^d (Monkhorst & Pack, PRB 13, 5188 (1976)). Both branches
coincide at delta = 1. Gzz per bond is the derivative of the
bond energy within the branch that delta implies (Ising at delta >= 1,
one-sided at the branch edges).

The quadratures take the zone g = gamma_grid(d, k_points) as an argument
and read d from g.dimension, so a caller builds it once for all deltas;
analysis.scan_spinwave does that and turns energy and Gzz into the
nearest-neighbor concurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPIN = 0.5
DEFAULT_K_POINTS = {2: 512, 3: 96}
DEFAULT_FD_STEP = 1e-4
BOGOLIUBOV_EDGE = 1e-12


def bz_axis(k_points: int) -> np.ndarray:
    """Midpoint-shifted momenta k = -pi + pi (2n + 1) / N, n = 0..N-1."""
    if k_points < 2:
        raise ValueError("need at least 2 points per direction")
    n = np.arange(k_points)
    return -np.pi + np.pi * (2 * n + 1) / k_points


@dataclass(frozen=True)
class ZoneGrid:
    """Structure factor on the irreducible wedge of the midpoint BZ grid.

    gamma[i] stands for multiplicity[i] points of the full k_points^dimension
    grid; the multiplicities are positive integers summing to k_points^dimension.
    """

    gamma: np.ndarray
    multiplicity: np.ndarray
    dimension: int
    k_points: int

    def mean(self, f: np.ndarray) -> float:
        """Full-grid average of f, given f on the wedge points.

        numpy's pairwise sum, not a BLAS dot: within a few ulp of the exact
        sum, and the same on any number of BLAS threads.
        """
        return float(np.add.reduce(self.multiplicity * f)) / self.k_points**self.dimension


def gamma_grid(dimension: int, k_points: int) -> ZoneGrid:
    """The zone wedge: sorted index tuples i_1 <= ... <= i_d of the half axis.

    cos k is even, so the first ceil(N/2) axis points carry weight 2 each
    (1 for k = 0 when N is odd). A sorted tuple with runs of equal indices
    r_1, r_2, ... stands for d!/(r_1! r_2! ...) axis permutations.
    """
    half = (k_points + 1) // 2
    cosk = np.cos(bz_axis(k_points)[:half])
    weight = np.full(half, 2, dtype=np.int64)
    weight[-1] -= k_points % 2  # k = 0 is its own mirror
    idx = np.arange(half)[:, None]
    perms = np.ones(half, dtype=np.int64)
    run = np.ones(half, dtype=np.int64)
    for length in range(2, dimension + 1):
        reps = half - idx[:, -1]  # a tuple ending in i extends by i, ..., half - 1
        last = np.repeat(idx[:, -1], reps)
        new = last + np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        run = np.where(new == last, np.repeat(run, reps) + 1, 1)
        # length!/prod(run!) grows by length/run when one index is appended
        perms = np.repeat(perms, reps) * length // run
        idx = np.column_stack([np.repeat(idx, reps, axis=0), new])
    return ZoneGrid(
        gamma=cosk[idx].sum(axis=1) / dimension,
        multiplicity=perms * weight[idx].prod(axis=1),
        dimension=dimension,
        k_points=k_points,
    )


def bogoliubov_factors(x_gamma: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) with u^2 - v^2 = 1 and 2 u v = x_gamma (u^2 + v^2).

    Rejects |x_gamma| >= 1 - 1e-12 where the transformation degenerates.
    """
    xg = np.asarray(x_gamma, dtype=float)
    if np.any(np.abs(xg) >= 1.0 - BOGOLIUBOV_EDGE):
        raise ValueError("|x*gamma| too close to 1: Bogoliubov factors diverge")
    s = np.sqrt(1.0 - xg**2)
    u = np.sqrt((1.0 / s + 1.0) / 2.0)
    # (1/s - 1)/2 cancels catastrophically as xg -> 0; use the identity
    # 1 - s = xg^2 / (1 + s) so v stays accurate down to v ~ xg/2
    v = xg / np.sqrt(2.0 * s * (1.0 + s))
    if np.isscalar(x_gamma):
        return float(u), float(v)
    return u, v


def energy_per_site_ising(delta: float, g: ZoneGrid) -> float:
    """Ising-branch ground-state energy per site (delta >= 1) on the zone g."""
    if delta < 1.0:
        raise ValueError(f"Ising branch needs delta >= 1, got {delta}")
    x = 1.0 / delta
    z = 2 * g.dimension
    fluct = np.sqrt(np.clip(1.0 - (x * g.gamma) ** 2, 0.0, None)) - 1.0
    return delta * (-(z / 2.0) * SPIN**2 + (z * SPIN / 2.0) * g.mean(fluct))


def energy_per_site_planar(delta: float, g: ZoneGrid) -> float:
    """Planar-branch ground-state energy per site (0 <= delta <= 1) on the zone g.

    The integrand sqrt((1+y g)^2 - x^2 g^2) - (1+y g) stays finite at the
    zone corner g = -1, where 1 + y g = x and the root vanishes.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"planar branch needs 0 <= delta <= 1, got {delta}")
    x = (1.0 + delta) / 2.0
    y = (1.0 - delta) / 2.0
    a = 1.0 + y * g.gamma
    term = np.sqrt(np.clip(a**2 - (x * g.gamma) ** 2, 0.0, None)) - a
    z = 2 * g.dimension
    return -(z / 2.0) * SPIN**2 + (z * SPIN / 2.0) * g.mean(term)


def energy_per_site(delta: float, g: ZoneGrid) -> float:
    """Branch-dispatched energy per site; the branches agree at delta = 1."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta >= 1.0:
        return energy_per_site_ising(delta, g)
    return energy_per_site_planar(delta, g)


def gzz_per_bond(delta: float, g: ZoneGrid, *, h: float = DEFAULT_FD_STEP) -> float:
    """d(energy per bond)/d(delta) within the branch delta lies in, by finite differences.

    At exactly delta = 1 the Ising side is the convention; the concurrence
    is insensitive because of its (delta - 1) prefactor. Central differences
    where the stencil fits inside the branch domain, second-order one-sided
    stencils at the edges; steps never straddle delta = 1.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    if delta >= 1.0:
        branch, lo, hi, energy = "ising", 1.0, np.inf, energy_per_site_ising
    else:
        branch, lo, hi, energy = "planar", 0.0, 1.0, energy_per_site_planar

    def f(d: float) -> float:
        return energy(d, g) / g.dimension

    if delta - h >= lo and delta + h <= hi:
        return (f(delta + h) - f(delta - h)) / (2.0 * h)
    if delta + 2.0 * h <= hi:
        return (-3.0 * f(delta) + 4.0 * f(delta + h) - f(delta + 2.0 * h)) / (2.0 * h)
    if delta - 2.0 * h >= lo:
        return (3.0 * f(delta) - 4.0 * f(delta - h) + f(delta - 2.0 * h)) / (2.0 * h)
    raise ValueError(f"step h={h} too large for the {branch} branch at delta={delta}")
