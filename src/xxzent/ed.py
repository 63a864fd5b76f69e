"""Sector-resolved XXZ Hamiltonians and ground-state solvers.

H = sum over nearest-neighbor bonds of (Sx.Sx + Sy.Sy + delta Sz.Sz) for
spin-1/2. Total Sz is conserved, so everything works inside a fixed
magnetization sector M = n_up - N/2. Configurations are N-bit integers,
bit i = 1 meaning site i is up (sz = +1/2), kept in increasing order.

H(delta) = H_xy + delta H_zz: the spin-flip CSR and the Ising diagonal do
not depend on delta, so a sector operator is assembled once per lattice and
re-pointed with `SparseHamiltonian.at`. Every solve is one `lanczos_ground`
run; with n_low=2 the same Krylov run also converges the second pair and
stores the gap E1 - E0 on the returned `GroundState`. The dense oracle
(at most DENSE_DIM_LIMIT states) is only the reference for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .lattice import Lattice

DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 600
DEFAULT_SEED = 1234
DENSE_DIM_LIMIT = 4000


class SectorError(ValueError):
    """Requested magnetization sector does not exist."""


class LanczosError(RuntimeError):
    """Lanczos failed to converge; carries the best estimate found."""

    def __init__(self, message: str, best: "GroundState | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SectorBasis:
    """All n_sites-bit configurations with a fixed number of up spins."""

    n_sites: int
    n_up: int
    states: np.ndarray  # uint64, strictly increasing

    @property
    def m(self) -> float:
        return self.n_up - self.n_sites / 2

    def __len__(self) -> int:
        return len(self.states)

    def index_of(self, config: int) -> int:
        pos = int(np.searchsorted(self.states, np.uint64(config)))
        if pos == len(self.states) or self.states[pos] != np.uint64(config):
            raise KeyError(f"configuration {config:#x} not in sector")
        return pos

    def index_of_many(self, configs: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.states, configs)

    def bit(self, site: int) -> np.ndarray:
        """0/1 occupation of one site across the whole basis."""
        return ((self.states >> np.uint64(site)) & np.uint64(1)).astype(np.int8)


def sector_dimension(n_sites: int, m: float) -> int:
    n_up = m + n_sites / 2
    n_up_int = round(n_up)
    if abs(n_up - n_up_int) > 1e-9 or not 0 <= n_up_int <= n_sites:
        raise SectorError(f"sector M={m} does not exist for {n_sites} sites")
    return math.comb(n_sites, n_up_int)


def enumerate_basis(n_sites: int, m: float = 0.0) -> SectorBasis:
    """Enumerate the M sector in increasing configuration order."""
    dim = sector_dimension(n_sites, m)  # validates M
    n_up = round(m + n_sites / 2)
    states = np.empty(dim, dtype=np.uint64)
    if n_up == 0:
        states[0] = 0
        return SectorBasis(n_sites, n_up, states)
    v = (1 << n_up) - 1
    for pos in range(dim):
        states[pos] = v
        # Gosper's hack: next integer with the same popcount
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r
    return SectorBasis(n_sites, n_up, states)


@dataclass(frozen=True)
class SparseHamiltonian:
    """H_xy (offdiag, symmetric CSR) + delta * H_zz (zz, Ising diagonal)."""

    dimension: int
    zz: np.ndarray
    offdiag: sp.csr_matrix
    delta: float
    diagonal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "diagonal", self.delta * self.zz)

    def at(self, delta: float) -> "SparseHamiltonian":
        """The same sector operator at another delta, without re-assembly."""
        return replace(self, delta=delta)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.offdiag @ v + self.diagonal * v

    def as_sparse(self) -> sp.csr_matrix:
        return (self.offdiag + sp.diags(self.diagonal)).tocsr()

    def to_dense(self) -> np.ndarray:
        return self.as_sparse().toarray()

    @property
    def nnz(self) -> int:
        return self.offdiag.nnz + self.dimension


def build_hamiltonian(lattice: Lattice, delta: float, basis: SectorBasis) -> SparseHamiltonian:
    """Assemble the sector Hamiltonian bond by bond.

    Diagonal: delta * sum_bonds sz_i sz_j with sz = +-1/2. Off-diagonal: 1/2
    between configurations differing by one antiparallel bond flip.
    """
    if basis.n_sites != lattice.n_sites:
        raise ValueError("basis and lattice disagree on the number of sites")
    states = basis.states
    n = len(states)
    zz = np.zeros(n)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for bond in lattice.bonds:
        bi = basis.bit(bond.i)
        bj = basis.bit(bond.j)
        anti = bi != bj
        zz += np.where(anti, -0.25, 0.25)
        src = np.nonzero(anti)[0]
        if len(src) == 0:
            continue
        mask = np.uint64((1 << bond.i) | (1 << bond.j))
        targets = states[src] ^ mask
        rows.append(src)
        cols.append(basis.index_of_many(targets))
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        vals = np.full(len(r), 0.5)
        off = sp.coo_matrix((vals, (r, c)), shape=(n, n)).tocsr()
    else:
        off = sp.csr_matrix((n, n))
    return SparseHamiltonian(dimension=n, zz=zz, offdiag=off, delta=delta)


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenpair of one sector, with solver provenance."""

    energy: float
    vector: np.ndarray
    m: float
    residual: float
    method: str
    iterations: int
    seed: int | None
    gap: float = math.nan  # E1 - E0 when the solve converged two pairs


def _sign_fix(v: np.ndarray) -> np.ndarray:
    # convention: largest-magnitude amplitude is positive
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def _ritz_vector(qs: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = qs.T @ y
    return x / np.linalg.norm(x)


def lanczos_ground(
    h: SparseHamiltonian,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = DEFAULT_SEED,
    m: float = 0.0,
    n_low: int = 1,
) -> GroundState:
    """Lowest eigenpair by Lanczos with full reorthogonalization.

    The start vector is drawn from a fixed-seed generator so repeated runs
    are bit-identical. Convergence is declared when the residual
    ||H x - E x|| drops below tol (absolute, energy units of the planar
    coupling). With n_low=2 the second Ritz pair is converged in the same
    run and E1 - E0 is stored in `gap` (nan otherwise).

    Raises ValueError for max_iter < 1 or tol <= 0, and LanczosError after
    max_iter without convergence; the exception carries the best estimate.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    n = h.dimension
    if n == 1:
        if n_low == 2:
            raise SectorError("second eigenvalue undefined for dimension 1")
        e = float(h.diagonal[0])
        return GroundState(e, np.ones(1), m, 0.0, "exact", 0, seed)

    rng = np.random.default_rng(seed)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    m_max = min(max_iter, n)
    qs = np.empty((m_max, n))
    alphas: list[float] = []
    betas: list[float] = []
    breakdown = False
    k = 0
    for j in range(m_max):
        qs[j] = q
        w = h.apply(q)
        alpha = float(q @ w)
        alphas.append(alpha)
        w -= alpha * q
        if j > 0:
            w -= betas[-1] * qs[j - 1]
        # full reorthogonalization, two passes
        for _ in range(2):
            w -= qs[: j + 1].T @ (qs[: j + 1] @ w)
        beta = float(np.linalg.norm(w))
        k = j + 1
        scale = max(abs(a) for a in alphas) + (max(betas) if betas else 0.0)
        if beta <= 1e-14 * max(1.0, scale):
            breakdown = True  # invariant subspace: Ritz pairs are exact
            break
        if k >= n_low:
            evals, evecs = eigh_tridiagonal(
                np.asarray(alphas), np.asarray(betas), select="i", select_range=(0, n_low - 1)
            )
            est = beta * np.abs(evecs[-1, :])
            if np.all(est < tol):
                break
        betas.append(beta)
        q = w / beta
    else:
        k = m_max

    evals, evecs = eigh_tridiagonal(
        np.asarray(alphas), np.asarray(betas[: k - 1]), select="i",
        select_range=(0, min(n_low, k) - 1),
    )
    x = _sign_fix(_ritz_vector(qs[:k], evecs[:, 0]))
    e0 = float(evals[0])
    residual = float(np.linalg.norm(h.apply(x) - e0 * x))
    gs = GroundState(e0, x, m, residual, "lanczos", k, seed)
    converged = breakdown or residual < tol
    if n_low == 2:
        if k < 2:
            raise LanczosError("Krylov space exhausted before second eigenvalue", gs)
        if not breakdown:
            # re-check the second pair's true residual
            x1 = _ritz_vector(qs[:k], evecs[:, 1])
            r1 = float(np.linalg.norm(h.apply(x1) - float(evals[1]) * x1))
            converged = converged and r1 < 1e3 * tol
        gs = replace(gs, gap=float(evals[1]) - e0)
    if not converged:
        raise LanczosError(
            f"no convergence after {k} iterations (residual {residual:.3e})", gs
        )
    return gs


def dense_ground_oracle(
    h: SparseHamiltonian, *, max_dimension: int = DENSE_DIM_LIMIT, m: float = 0.0
) -> GroundState:
    """Full eigendecomposition reference; refuses large sectors."""
    if h.dimension > max_dimension:
        raise ValueError(
            f"dense oracle refused: dimension {h.dimension} exceeds {max_dimension}"
        )
    w, v = np.linalg.eigh(h.to_dense())
    x = _sign_fix(v[:, 0])
    e0 = float(w[0])
    residual = float(np.linalg.norm(h.apply(x) - e0 * x))
    return GroundState(e0, x, m, residual, "dense", 0, None)


def solve_ground(
    lattice: Lattice,
    delta: float,
    m: float = 0.0,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = DEFAULT_SEED,
) -> tuple[SectorBasis, GroundState]:
    """Enumerate the sector, build H, and run Lanczos."""
    basis = enumerate_basis(lattice.n_sites, m)
    h = build_hamiltonian(lattice, delta, basis)
    gs = lanczos_ground(h, tol=tol, max_iter=max_iter, seed=seed, m=m)
    return basis, gs
