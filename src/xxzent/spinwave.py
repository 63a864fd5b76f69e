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
bond is the derivative of the bond energy within one branch (one-sided at
the branch edges); analysis.scan_spinwave turns the two into the
nearest-neighbor concurrence.
"""

from __future__ import annotations

import numpy as np

SPIN = 0.5
DEFAULT_K_POINTS = {2: 512, 3: 96}
DEFAULT_FD_STEP = 1e-4
BOGOLIUBOV_EDGE = 1e-12


def default_k_points(dimension: int) -> int:
    return DEFAULT_K_POINTS.get(dimension, 32)


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


def energy_per_site_ising(
    delta: float, dimension: int, k_points: int | None = None
) -> float:
    """Ising-branch ground-state energy per site (delta >= 1)."""
    if delta < 1.0:
        raise ValueError(f"Ising branch needs delta >= 1, got {delta}")
    n_k = k_points or default_k_points(dimension)
    g = gamma_grid(dimension, n_k)
    x = 1.0 / delta
    z = 2 * dimension
    fluct = np.sqrt(np.clip(1.0 - (x * g) ** 2, 0.0, None)) - 1.0
    return delta * (-(z / 2.0) * SPIN**2 + (z * SPIN / 2.0) * float(fluct.mean()))


def energy_per_site_planar(
    delta: float, dimension: int, k_points: int | None = None
) -> float:
    """Planar-branch ground-state energy per site (0 <= delta <= 1).

    The integrand sqrt((1+y g)^2 - x^2 g^2) - (1+y g) stays finite at the
    zone corner g = -1, where 1 + y g = x and the root vanishes.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"planar branch needs 0 <= delta <= 1, got {delta}")
    n_k = k_points or default_k_points(dimension)
    g = gamma_grid(dimension, n_k)
    x = (1.0 + delta) / 2.0
    y = (1.0 - delta) / 2.0
    a = 1.0 + y * g
    term = np.sqrt(np.clip(a**2 - (x * g) ** 2, 0.0, None)) - a
    z = 2 * dimension
    return -(z / 2.0) * SPIN**2 + (z * SPIN / 2.0) * float(term.mean())


def energy_per_site(
    delta: float, dimension: int, k_points: int | None = None
) -> float:
    """Branch-dispatched energy per site; the branches agree at delta = 1."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta >= 1.0:
        return energy_per_site_ising(delta, dimension, k_points)
    return energy_per_site_planar(delta, dimension, k_points)


def energy_per_bond(
    delta: float, dimension: int, k_points: int | None = None
) -> float:
    return energy_per_site(delta, dimension, k_points) / dimension


# branch domains for the finite-difference Gzz
_BRANCHES = {
    "planar": (0.0, 1.0, energy_per_site_planar),
    "ising": (1.0, np.inf, energy_per_site_ising),
}


def _resolve_side(delta: float, side: str) -> str:
    if side == "auto":
        # at exactly delta = 1 the Ising side is the convention; the
        # concurrence is insensitive because of its (delta - 1) prefactor
        return "ising" if delta >= 1.0 else "planar"
    if side in ("left", "planar"):
        return "planar"
    if side in ("right", "ising"):
        return "ising"
    raise ValueError(f"side must be auto/left/right, got {side!r}")


def gzz_per_bond(
    delta: float,
    dimension: int,
    k_points: int | None = None,
    *,
    h: float = DEFAULT_FD_STEP,
    side: str = "auto",
) -> float:
    """d(energy per bond)/d(delta) within one branch, by finite differences.

    Central differences where the stencil fits inside the branch domain,
    second-order one-sided stencils at the edges. Steps never straddle
    delta = 1; asking for a delta outside the chosen branch raises.
    """
    branch = _resolve_side(delta, side)
    lo, hi, energy = _BRANCHES[branch]
    if not lo <= delta <= hi:
        raise ValueError(f"delta={delta} outside the {branch} branch [{lo}, {hi}]")
    if h <= 0:
        raise ValueError("finite-difference step must be positive")

    def f(d: float) -> float:
        return energy(d, dimension, k_points) / dimension

    if delta - h >= lo and delta + h <= hi:
        return (f(delta + h) - f(delta - h)) / (2.0 * h)
    if delta + 2.0 * h <= hi:
        return (-3.0 * f(delta) + 4.0 * f(delta + h) - f(delta + 2.0 * h)) / (2.0 * h)
    if delta - 2.0 * h >= lo:
        return (3.0 * f(delta) - 4.0 * f(delta - h) + f(delta - 2.0 * h)) / (2.0 * h)
    raise ValueError(f"step h={h} too large for the {branch} branch at delta={delta}")
