"""Two-site reduced density matrices, bond correlators, and concurrence.

For an Sz-conserving state the two-site RDM in the product basis
(up-up, up-down, down-up, down-down) is block diagonal:

    [[u+, 0,  0,  0 ],
     [0,  w1, z,  0 ],
     [0,  z*, w2, 0 ],
     [0,  0,  0,  u-]]

The bond correlators are read off its entries, and three closed-form
concurrence routes follow from this shape, plus the general
square-root-eigenvalue formula as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ed import GroundState, PairTable, Sector, SectorBasis, SparseHamiltonian, _dot
from .lattice import Lattice

TRACE_TOL = 1e-12
PSD_TOL = 1e-12
DIAG_TOL = 1e-14
CORR_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class TwoSiteRDM:
    """Block-diagonal two-site reduced density matrix."""

    u_plus: float
    w1: float
    w2: float
    u_minus: float
    z: complex

    def validate(self) -> None:
        diag = (self.u_plus, self.w1, self.w2, self.u_minus)
        if min(diag) < -DIAG_TOL:
            raise ValueError(f"negative diagonal entry: {min(diag)}")
        tr = sum(diag)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} not 1 within {TRACE_TOL}")
        if self.w1 * self.w2 - abs(self.z) ** 2 < -PSD_TOL:
            raise ValueError("central block not positive semidefinite")

    def as_matrix(self) -> np.ndarray:
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = self.u_plus
        rho[1, 1] = self.w1
        rho[2, 2] = self.w2
        rho[3, 3] = self.u_minus
        rho[1, 2] = self.z
        rho[2, 1] = np.conj(self.z)
        return rho

    def correlators(self) -> BondCorrelators:
        """Gzz = (u+ + u- - w1 - w2)/4 and Gxx = Gyy = Re z / 2 for the site pair."""
        gxx = self.z.real / 2.0
        return BondCorrelators(gxx=gxx, gyy=gxx,
                               gzz=(self.u_plus + self.u_minus - self.w1 - self.w2) / 4.0)


@dataclass(frozen=True)
class BondCorrelators:
    """Spin-spin correlators <Sa_i Sa_j> for one site pair."""

    gxx: float
    gyy: float
    gzz: float


def _rdm(psi: np.ndarray, p: np.ndarray, table: PairTable) -> TwoSiteRDM:
    """The block of a site pair from the full-sector amplitudes psi, their
    weights p = |psi|^2 and the pair's PairTable."""
    q = np.take(p, table.order)
    b = table.bounds
    u_minus, w2, w1, u_plus = (float(q[b[k]:b[k + 1]].sum()) for k in range(4))
    up_down = np.take(psi, table.order[b[2]:b[3]])
    z = complex(np.sum(up_down * np.conj(np.take(psi, table.partners))))
    return TwoSiteRDM(u_plus=u_plus, w1=w1, w2=w2, u_minus=u_minus, z=z)


def two_site_rdm(state: GroundState, basis: SectorBasis, i: int, j: int) -> TwoSiteRDM:
    """Trace out everything but sites (i, j)."""
    if i == j:
        raise ValueError("two-site RDM needs distinct sites")
    psi = basis.expand(state.vector)
    return _rdm(psi, np.abs(psi) ** 2, basis.pair_table(i, j))


def mean_bond_correlators(state: GroundState, sector: Sector) -> BondCorrelators:
    """Correlators averaged over every nearest-neighbor bond, each read off its RDM.

    The amplitudes are expanded once per state; each bond's classes and
    flip partners come from the sector's bond tables, built on first use.
    """
    psi = sector.basis.expand(state.vector)
    p = np.abs(psi) ** 2
    gx = gy = gz = 0.0
    for table in sector.bond_tables:
        g = _rdm(psi, p, table).correlators()
        gx += g.gxx
        gy += g.gyy
        gz += g.gzz
    nb = sector.lattice.n_bonds
    return BondCorrelators(gxx=gx / nb, gyy=gy / nb, gzz=gz / nb)


def operator_bond_correlators(
    state: GroundState, h: SparseHamiltonian, lattice: Lattice
) -> BondCorrelators:
    """Bond-averaged correlators as two quadratic forms of the assembled H.

    mean Gxx = mean Gyy = <H_xy> / (2 N_B) and mean Gzz = <H_zz> / N_B, with
    H_zz the delta-free Ising diagonal. Exact for the bond average on any
    lattice; `mean_bond_correlators` is the independent bond-by-bond route.
    Both forms commute with the spin flip, so a vector over the
    representatives of a flip-parity basis needs no expansion.
    """
    psi = state.vector
    nb = lattice.n_bonds
    gxx = _dot(psi, h.offdiag @ psi) / (2 * nb)
    gzz = _dot(psi, h.zz * psi) / nb
    return BondCorrelators(gxx=gxx, gyy=gxx, gzz=gzz)


def concurrence_block(rdm: TwoSiteRDM) -> float:
    """Concurrence from the block entries: 2 max(|z| - sqrt(u+ u-), 0)."""
    rdm.validate()
    root = np.sqrt(max(rdm.u_plus, 0.0) * max(rdm.u_minus, 0.0))
    return 2.0 * max(abs(rdm.z) - root, 0.0)


def concurrence_corr(g: BondCorrelators) -> float:
    """Concurrence from correlators: 2 max(|Gxx + Gyy| - Gzz - 1/4, 0)."""
    for name, value in (("gxx", g.gxx), ("gyy", g.gyy), ("gzz", g.gzz)):
        if abs(value) > 0.25 + CORR_BOUND_TOL:
            raise ValueError(f"|{name}| = {abs(value)} exceeds 1/4")
    return 2.0 * max(abs(g.gxx + g.gyy) - g.gzz - 0.25, 0.0)


def concurrence_from_energy(eps0: float, gzz: float, delta: float) -> float:
    """Concurrence from the bond energy density.

    Valid on translation-invariant (periodic) lattices where every bond
    carries the same energy eps0 = Gxx + Gyy + delta Gzz. Raises ValueError
    for |gzz| > 1/4 or C > 1 (beyond CORR_BOUND_TOL), which no state has.
    """
    if abs(gzz) > 0.25 + CORR_BOUND_TOL:
        raise ValueError(f"|gzz| = {abs(gzz)} exceeds 1/4")
    c = 2.0 * max(-eps0 - 0.25 + (delta - 1.0) * gzz, 0.0)
    if c > 1.0 + CORR_BOUND_TOL:
        raise ValueError(f"concurrence {c} exceeds 1")
    return c


def wootters_oracle(rho: np.ndarray) -> float:
    """General two-qubit concurrence via the spin-flipped matrix.

    C = max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy). Used as the
    independent oracle against the closed-form routes.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix not hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("density matrix trace not 1")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
        raise ValueError("density matrix not positive semidefinite")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    r = rho @ yy @ rho.conj() @ yy
    lam = np.sqrt(np.abs(np.real(np.linalg.eigvals(r))))
    lam.sort()
    return max(0.0, lam[3] - lam[2] - lam[1] - lam[0])
