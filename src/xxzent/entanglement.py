"""Two-site reduced density matrices, bond correlators, and concurrence.

For an Sz-conserving state the two-site RDM in the product basis
(up-up, up-down, down-up, down-down) is block diagonal:

    [[u+, 0,  0,  0 ],
     [0,  w1, z,  0 ],
     [0,  z*, w2, 0 ],
     [0,  0,  0,  u-]]

Three closed-form concurrence routes follow from this shape, plus the
general square-root-eigenvalue formula as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ed import GroundState, SectorBasis, SparseHamiltonian, _dot
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


@dataclass(frozen=True)
class BondCorrelators:
    """Spin-spin correlators <Sa_i Sa_j> for one site pair."""

    gxx: float
    gyy: float
    gzz: float


def two_site_rdm(state: GroundState, basis: SectorBasis, i: int, j: int) -> TwoSiteRDM:
    """Trace out everything but sites (i, j)."""
    if i == j:
        raise ValueError("two-site RDM needs distinct sites")
    psi = basis.expand(state.vector)
    p = np.abs(psi) ** 2
    bi = basis.bit(i).astype(bool)
    bj = basis.bit(j).astype(bool)
    u_plus = float(p[bi & bj].sum())
    w1 = float(p[bi & ~bj].sum())
    w2 = float(p[~bi & bj].sum())
    u_minus = float(p[~bi & ~bj].sum())
    sel = bi & ~bj
    mask = np.uint64((1 << i) | (1 << j))
    partners = basis.states[sel] ^ mask
    idx = basis.index_of_many(partners)
    z = complex(np.sum(psi[sel] * np.conj(psi[idx])))
    return TwoSiteRDM(u_plus=u_plus, w1=w1, w2=w2, u_minus=u_minus, z=z)


def correlators(state: GroundState, basis: SectorBasis, i: int, j: int) -> BondCorrelators:
    """<Sx.Sx>, <Sy.Sy>, <Sz.Sz> for one site pair, computed directly."""
    psi = basis.expand(state.vector)
    bi = basis.bit(i).astype(bool)
    bj = basis.bit(j).astype(bool)
    p = np.abs(psi) ** 2
    gzz = 0.25 * float(p[bi == bj].sum() - p[bi != bj].sum())
    anti = bi != bj
    mask = np.uint64((1 << i) | (1 << j))
    flipped = basis.states[anti] ^ mask
    idx = basis.index_of_many(flipped)
    # <S+_i S-_j + S-_i S+_j>: both orderings appear as `anti` runs over
    # up-down and down-up pairs
    flip_sum = float(np.real(np.sum(np.conj(psi[anti]) * psi[idx])))
    gxx = gyy = flip_sum / 4.0
    return BondCorrelators(gxx=gxx, gyy=gyy, gzz=gzz)


def mean_bond_correlators(
    state: GroundState, basis: SectorBasis, lattice: Lattice
) -> BondCorrelators:
    """Correlators averaged over every nearest-neighbor bond."""
    gx = gy = gz = 0.0
    for bond in lattice.bonds:
        g = correlators(state, basis, bond.i, bond.j)
        gx += g.gxx
        gy += g.gyy
        gz += g.gzz
    nb = lattice.n_bonds
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
    carries the same energy eps0 = Gxx + Gyy + delta Gzz.
    """
    return 2.0 * max(-eps0 - 0.25 + (delta - 1.0) * gzz, 0.0)


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
