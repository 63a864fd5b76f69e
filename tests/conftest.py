"""Shared fixtures and brute-force oracles for the test suite.

The dense helpers here rebuild quantities from first principles (full
2^N Hilbert space, explicit partial traces, full eigendecompositions) so
the package's sector-based fast paths are checked against independent
constructions.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from xxzent import ed, spinwave
from xxzent.lattice import LatticeSpec

ACCEPTANCE_LOG: list[str] = []
DENSE_DIM_LIMIT = 4000


@pytest.fixture(scope="session")
def acceptance_log():
    """Recorder for one pass/fail line per acceptance criterion."""

    def record(name: str, ok: bool, detail: str) -> None:
        tag = "PASS" if ok else "FAIL"
        ACCEPTANCE_LOG.append(f"[{tag}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)


def sparse_matrix(h: ed.SparseHamiltonian) -> sp.csr_matrix:
    """The operator H_xy + delta H_zz as one CSR matrix."""
    return (h.offdiag + sp.diags(h.diagonal)).tocsr()


def dense_matrix(h: ed.SparseHamiltonian) -> np.ndarray:
    """The operator as a dense array."""
    return sparse_matrix(h).toarray()


def dense_ground_oracle(h: ed.SparseHamiltonian) -> ed.GroundState:
    """Full eigendecomposition reference; refuses sectors above DENSE_DIM_LIMIT."""
    if h.dimension > DENSE_DIM_LIMIT:
        raise ValueError(
            f"dense oracle refused: dimension {h.dimension} exceeds {DENSE_DIM_LIMIT}"
        )
    w, v = np.linalg.eigh(dense_matrix(h))
    x = v[:, 0]
    k = int(np.argmax(np.abs(x)))
    x = -x if x[k] < 0 else x  # same sign convention as lanczos_ground
    e0 = float(w[0])
    residual = float(np.linalg.norm(h.apply(x) - e0 * x))
    return ed.GroundState(e0, x, 0.0, residual, 0)


def parity_block(sector: ed.Sector, parity: int | None) -> ed.SparseHamiltonian:
    """The sector's M = 0 operator in one flip parity; parity None gives the
    full, unreduced M = 0 block that the parity blocks are checked against."""
    return ed.build_hamiltonian(sector.lattice, replace(sector.basis, parity=parity))


def coo_hamiltonian(lattice, basis: ed.SectorBasis):
    """The spin-flip part collected hop by hop and bond by bond into COO form
    and summed by scipy's COO -> CSR conversion: the reference for the
    row-ordered assembly. Returns (offdiag, mirror), both CSR, with mirror
    the hops onto a flip partner alone."""
    states = basis.representatives
    n, last = len(states), len(basis) - 1
    rows, cols, mirrored = [np.empty(0, np.int32)], [np.empty(0, np.int32)], [np.empty(0, bool)]
    for bond in lattice.bonds:
        anti = ((states >> np.uint64(bond.i)) ^ (states >> np.uint64(bond.j))) & np.uint64(1) == 1
        src = np.nonzero(anti)[0]
        mask = np.uint64((1 << bond.i) | (1 << bond.j))
        targets = basis.index_of_many(states[src] ^ mask)
        flip = targets >= n
        rows.append(src.astype(np.int32))
        cols.append(np.where(flip, last - targets, targets).astype(np.int32))
        mirrored.append(flip)
    r, c, flip = map(np.concatenate, (rows, cols, mirrored))
    vals = np.where(flip, 0.5 * (basis.parity or 1), 0.5)

    def csr(keep=slice(None)):
        return sp.coo_matrix((vals[keep], (r[keep], c[keep])), shape=(n, n)).tocsr()

    return csr(), csr(flip)


def full_gamma_grid(dimension: int, k_points: int) -> np.ndarray:
    """Structure factor on every point of the midpoint BZ grid, shape (N,) * d,
    by broadcasting the axis cosines; the reference the zone wedge is checked
    against."""
    cosk = np.cos(spinwave.bz_axis(k_points))
    g = cosk
    for axis in range(1, dimension):
        shape = [1] * (axis + 1)
        shape[axis] = k_points
        g = g[..., None] + cosk.reshape(shape)
    return g / dimension


def full_zone(dimension: int, k_points: int) -> spinwave.ZoneGrid:
    """The full grid as a zone of unit multiplicities, for the quadratures."""
    g = full_gamma_grid(dimension, k_points).ravel()
    return spinwave.ZoneGrid(g, np.ones(g.size, dtype=np.int64), dimension, k_points)


def embed_full_space(psi: np.ndarray, basis: ed.SectorBasis) -> np.ndarray:
    """Sector vector -> full 2^N vector indexed by the configuration integer."""
    full = np.zeros(2 ** basis.n_sites, dtype=complex)
    full[np.asarray(basis.states, dtype=np.int64)] = psi
    return full


def dense_two_site_rdm(full_psi: np.ndarray, n_sites: int, i: int, j: int) -> np.ndarray:
    """Partial trace of |psi><psi| onto sites (i, j) by explicit summation.

    Row/column order is up-up, up-down, down-up, down-down with bit=1
    meaning up, matching TwoSiteRDM.as_matrix.
    """
    if i == j:
        raise ValueError("need distinct sites")
    mask = (1 << i) | (1 << j)
    configs = np.arange(2**n_sites)
    rests = configs[(configs & mask) == 0]
    patterns = [(1 << i) | (1 << j), 1 << i, 1 << j, 0]
    cols = [full_psi[rests | p] for p in patterns]
    rho = np.empty((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            rho[a, b] = np.sum(cols[a] * np.conj(cols[b]))
    return rho


def dense_pair_correlators(full_psi: np.ndarray, n_sites: int, i: int, j: int):
    """<Sx Sx>, <Sy Sy>, <Sz Sz> from the explicit two-site density matrix."""
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    sy = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    sz = np.array([[0.5, 0.0], [0.0, -0.5]])
    rho = dense_two_site_rdm(full_psi, n_sites, i, j)
    out = []
    for op in (sx, sy, sz):
        # as_matrix order puts site i's state first
        out.append(float(np.real(np.trace(rho @ np.kron(op, op)))))
    return tuple(out)


@pytest.fixture(scope="session")
def ring4():
    """4-site periodic chain with its isotropic ground state."""
    sector = ed.build_sector(LatticeSpec(1, 4))
    return sector.lattice, sector.basis, ed.lanczos_ground(sector.h.at(1.0))


@pytest.fixture(scope="session")
def square44_heisenberg():
    """4x4 periodic square lattice ground state at delta = 1 (Lanczos)."""
    sector = ed.build_sector(LatticeSpec(2, 4))
    return sector.lattice, sector.basis, ed.lanczos_ground(sector.h.at(1.0))
