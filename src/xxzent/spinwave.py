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
one-sided at the branch edges), by finite differences of energy_per_site.

The quadratures take the zone g = gamma_grid(d, k_points) as an argument
and read d from g.dimension, so a caller builds it once for all deltas
and passes it to analysis.scan_spinwave, which turns energy and Gzz into
the nearest-neighbor concurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPIN = 0.5
DEFAULT_K_POINTS = {2: 512, 3: 96}
FD_STEP = 1e-4
MAX_ZONE_POINTS = 10_000_000  # wedge points; a build peaks near 100 B per point
BOGOLIUBOV_EDGE = 1e-12


def bz_axis(k_points: int) -> np.ndarray:
    """Midpoint-shifted momenta k = -pi + pi (2n + 1) / N, n = 0..N-1."""
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

    @cached_property
    def _weights(self) -> np.ndarray:
        """The multiplicities as floats, cast once per zone; every one is exact."""
        return self.multiplicity.astype(float)

    def mean(self, f: np.ndarray) -> float:
        """Full-grid average of f, given f on the wedge points.

        numpy's pairwise sum, not a BLAS dot: within a few ulp of the exact
        sum, and the same on any number of BLAS threads.
        """
        return float(np.add.reduce(self._weights * f)) / self.k_points**self.dimension


def gamma_grid(dimension: int, k_points: int | None = None) -> ZoneGrid:
    """The zone wedge: sorted index tuples i_1 <= ... <= i_d of the half axis.

    The one place a zone is checked and sized: d must be 2 or 3, k_points
    None takes d's size from DEFAULT_K_POINTS, and a zone of fewer than 2
    points per direction or more than MAX_ZONE_POINTS wedge points is
    refused before anything is allocated. cos k is even, so
    the first ceil(N/2) axis points carry weight 2 each (1 for k = 0 when N
    is odd). A sorted tuple with runs of equal indices r_1, r_2, ... stands
    for d!/(r_1! r_2! ...) axis permutations.
    """
    if dimension not in DEFAULT_K_POINTS:
        raise ValueError("spin-wave needs d = 2 or 3")
    if k_points is None:
        k_points = DEFAULT_K_POINTS[dimension]
    if k_points < 2:
        raise ValueError("need at least 2 points per direction")
    half = (k_points + 1) // 2
    points = math.comb(half + dimension - 1, dimension)
    if points > MAX_ZONE_POINTS:
        raise ValueError(f"{k_points}^{dimension} zone: {points} wedge points, above {MAX_ZONE_POINTS}")
    cosk = np.cos(bz_axis(k_points)[:half])
    weight = np.full(half, 2, dtype=np.int64)
    weight[-1] -= k_points % 2  # k = 0 is its own mirror
    # each tuple is carried as its last index, the sum of its cosines added
    # column by column (the order of a row sum) and the product of its weights
    last = np.arange(half)
    cos_sum = cosk
    weights = weight
    perms = np.ones(half, dtype=np.int64)
    run = np.ones(half, dtype=np.int64)
    for length in range(2, dimension + 1):
        reps = half - last  # a tuple ending in i extends by i, ..., half - 1
        prev = np.repeat(last, reps)
        last = prev + np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        run = np.where(last == prev, np.repeat(run, reps) + 1, 1)
        # length!/prod(run!) grows by length/run when one index is appended
        perms = np.repeat(perms, reps) * length // run
        cos_sum = np.repeat(cos_sum, reps) + cosk[last]
        weights = np.repeat(weights, reps) * weight[last]
    return ZoneGrid(
        gamma=cos_sum / dimension,
        multiplicity=perms * weights,
        dimension=dimension,
        k_points=k_points,
    )


def bogoliubov_factors(x_gamma: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (u, v) with u^2 - v^2 = 1 and 2 u v = x_gamma (u^2 + v^2), 0-d for a scalar.

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
    return u, v


def energy_per_site_ising(delta: float, g: ZoneGrid) -> float:
    """Ising-branch ground-state energy per site (delta >= 1) on the zone g."""
    if delta < 1.0:
        raise ValueError(f"Ising branch needs delta >= 1, got {delta}")
    x = 1.0 / delta
    z = 2 * g.dimension
    # sqrt(max(1 - (x g)^2, 0)) - 1, in one buffer
    fluct = np.multiply(g.gamma, x)
    np.square(fluct, out=fluct)
    np.subtract(1.0, fluct, out=fluct)
    np.maximum(fluct, 0.0, out=fluct)
    np.sqrt(fluct, out=fluct)
    fluct -= 1.0
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
    # sqrt(max(a^2 - (x g)^2, 0)) - a with a = 1 + y g, in three buffers
    a = np.multiply(g.gamma, y)
    a += 1.0
    term = np.square(a)
    xg = np.multiply(g.gamma, x)
    np.square(xg, out=xg)
    term -= xg
    np.maximum(term, 0.0, out=term)
    np.sqrt(term, out=term)
    term -= a
    z = 2 * g.dimension
    return -(z / 2.0) * SPIN**2 + (z * SPIN / 2.0) * g.mean(term)


def energy_per_site(delta: float, g: ZoneGrid) -> float:
    """Branch-dispatched energy per site; the branches agree at delta = 1."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta >= 1.0:
        return energy_per_site_ising(delta, g)
    return energy_per_site_planar(delta, g)


def gzz_per_bond(delta: float, g: ZoneGrid) -> float:
    """d(energy per bond)/d(delta) within the branch delta lies in, by finite differences.

    Central differences of energy_per_site where the stencil fits inside the
    branch domain ([1, inf) at delta >= 1, the Ising convention at exactly 1,
    else [0, 1]), second-order one-sided stencils at the edges. A planar
    stencil may end on delta = 1, where both branches agree bit for bit.
    With the step FD_STEP one of the three always fits; energy_per_site
    rejects delta < 0 and NaN.
    """
    lo, hi = (1.0, np.inf) if delta >= 1.0 else (0.0, 1.0)
    h = FD_STEP

    def f(d: float) -> float:
        return energy_per_site(d, g) / g.dimension

    if delta - h >= lo and delta + h <= hi:
        return (f(delta + h) - f(delta - h)) / (2.0 * h)
    if delta + 2.0 * h <= hi:
        return (-3.0 * f(delta) + 4.0 * f(delta + h) - f(delta + 2.0 * h)) / (2.0 * h)
    return (3.0 * f(delta) - 4.0 * f(delta - h) + f(delta - 2.0 * h)) / (2.0 * h)
