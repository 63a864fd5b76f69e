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
midpoint-shifted uniform grid. Both branches coincide at delta = 1. Gzz per
bond is the derivative of the bond energy within the branch that delta
implies (Ising at delta >= 1, one-sided at the branch edges).

The quadratures take the grid g = gamma_grid(d, k_points) as an argument
and read d from g.ndim, so a caller builds it once for all deltas;
analysis.scan_spinwave does that and turns energy and Gzz into the
nearest-neighbor concurrence.
"""

from __future__ import annotations

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


def gamma_grid(dimension: int, k_points: int) -> np.ndarray:
    """Structure factor on the full midpoint-shifted BZ grid."""
    cosk = np.cos(bz_axis(k_points))
    g = cosk
    for axis in range(1, dimension):
        shape = [1] * (axis + 1)
        shape[axis] = k_points
        g = g[..., None] + cosk.reshape(shape)
    return g / dimension


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


def energy_per_site_ising(delta: float, g: np.ndarray) -> float:
    """Ising-branch ground-state energy per site (delta >= 1) on the zone grid g."""
    if delta < 1.0:
        raise ValueError(f"Ising branch needs delta >= 1, got {delta}")
    x = 1.0 / delta
    z = 2 * g.ndim
    fluct = np.sqrt(np.clip(1.0 - (x * g) ** 2, 0.0, None)) - 1.0
    return delta * (-(z / 2.0) * SPIN**2 + (z * SPIN / 2.0) * float(fluct.mean()))


def energy_per_site_planar(delta: float, g: np.ndarray) -> float:
    """Planar-branch ground-state energy per site (0 <= delta <= 1) on the zone grid g.

    The integrand sqrt((1+y g)^2 - x^2 g^2) - (1+y g) stays finite at the
    zone corner g = -1, where 1 + y g = x and the root vanishes.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"planar branch needs 0 <= delta <= 1, got {delta}")
    x = (1.0 + delta) / 2.0
    y = (1.0 - delta) / 2.0
    a = 1.0 + y * g
    term = np.sqrt(np.clip(a**2 - (x * g) ** 2, 0.0, None)) - a
    z = 2 * g.ndim
    return -(z / 2.0) * SPIN**2 + (z * SPIN / 2.0) * float(term.mean())


def energy_per_site(delta: float, g: np.ndarray) -> float:
    """Branch-dispatched energy per site; the branches agree at delta = 1."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta >= 1.0:
        return energy_per_site_ising(delta, g)
    return energy_per_site_planar(delta, g)


def gzz_per_bond(delta: float, g: np.ndarray, *, h: float = DEFAULT_FD_STEP) -> float:
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
        return energy(d, g) / g.ndim

    if delta - h >= lo and delta + h <= hi:
        return (f(delta + h) - f(delta - h)) / (2.0 * h)
    if delta + 2.0 * h <= hi:
        return (-3.0 * f(delta) + 4.0 * f(delta + h) - f(delta + 2.0 * h)) / (2.0 * h)
    if delta - 2.0 * h >= lo:
        return (3.0 * f(delta) - 4.0 * f(delta - h) + f(delta - 2.0 * h)) / (2.0 * h)
    raise ValueError(f"step h={h} too large for the {branch} branch at delta={delta}")
