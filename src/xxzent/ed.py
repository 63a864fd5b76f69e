"""Sector-resolved XXZ Hamiltonians and ground-state solvers.

H = sum over nearest-neighbor bonds of (Sx.Sx + Sy.Sy + delta Sz.Sz) for
spin-1/2. Total Sz is conserved, so everything works inside a fixed
magnetization sector M = n_up - N/2. Configurations are N-bit integers,
bit i = 1 meaning site i is up (sz = +1/2), kept in increasing order.

H(delta) = H_xy + delta H_zz: the spin-flip CSR and the Ising diagonal do
not depend on delta, so `build_sector` builds a lattice's M = 0 basis and
operator once and callers re-point it with `SparseHamiltonian.at`. Every
solve is one `lanczos_ground` run; with n_low=2 the same Krylov run also
converges the second pair and stores the gap E1 - E0 on the returned
`GroundState`.

Flipping every spin commutes with H(delta). By Marshall's sign rule and
Perron-Frobenius (Lieb & Mattis 1962) the M = 0 ground state has flip
parity (-1)^(N/2) for every real delta, so the M = 0 basis carries that
parity and operators and vectors live on its dim/2 representatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .lattice import Lattice, LatticeSpec, build_lattice

DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 600
DEFAULT_SEED = 1234
KRYLOV_BLOCK = 32  # Krylov vectors per allocation in lanczos_ground


class SectorError(ValueError):
    """Requested magnetization sector does not exist."""


class ScaleError(ValueError):
    """delta is so large that the squared operator scale overflows."""


class LanczosError(RuntimeError):
    """Lanczos failed to converge; carries the best estimate found."""

    def __init__(self, message: str, best: "GroundState | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SectorBasis:
    """All n_sites-bit configurations with a fixed number of up spins.

    At M = 0 the spin flip maps state i to state dim-1-i of the increasing
    order, so the states with the top bit clear, states[:dim // 2], stand
    for the pairs (|s> + parity |flip s>)/sqrt(2). `parity` is +-1 there and
    None at M != 0, where the representatives are all the states.
    """

    n_sites: int
    n_up: int
    states: np.ndarray  # uint64, strictly increasing
    parity: int | None = None

    def __post_init__(self) -> None:
        if self.parity is not None and (
            self.parity not in (1, -1) or 2 * self.n_up != self.n_sites
        ):
            raise SectorError(f"no flip parity {self.parity} in sector M={self.m}")

    @property
    def m(self) -> float:
        return self.n_up - self.n_sites / 2

    def __len__(self) -> int:
        return len(self.states)

    @property
    def representatives(self) -> np.ndarray:
        """The configurations that index operator rows and state vectors."""
        return self.states if self.parity is None else self.states[: len(self.states) // 2]

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Full-sector amplitudes of a vector over the representatives."""
        if len(v) != len(self.representatives):
            raise ValueError("state length does not match the sector's representatives")
        if self.parity is None:
            return v
        return np.concatenate((v, self.parity * v[::-1])) / math.sqrt(2.0)

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
    """Enumerate the M sector in increasing configuration order.

    S(n, k), the increasing n-bit configurations with k bits set, is
    S(n-1, k) followed by S(n-1, k-1) + 2^(n-1). Only the rows k that can
    still reach n_up are kept. M = 0 gets the ground state's flip parity.
    """
    sector_dimension(n_sites, m)  # validates M
    n_up = round(m + n_sites / 2)
    empty = np.empty(0, dtype=np.uint64)
    rows = {0: np.zeros(1, dtype=np.uint64)}  # S(0, 0)
    for n in range(1, n_sites + 1):
        top = np.uint64(1 << (n - 1))
        rows = {
            k: np.concatenate((rows.get(k, empty), rows[k - 1] + top if k else empty))
            for k in range(max(0, n_up - (n_sites - n)), min(n, n_up) + 1)
        }
    parity = (-1) ** (n_sites // 2) if 2 * n_up == n_sites else None
    return SectorBasis(n_sites, n_up, rows[n_up], parity)


@dataclass(frozen=True)
class SparseHamiltonian:
    """H_xy (offdiag, symmetric CSR) + delta * H_zz (zz, Ising diagonal)."""

    dimension: int
    zz: np.ndarray
    offdiag: sp.csr_matrix
    delta: float
    diagonal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        with np.errstate(over="ignore"):  # lanczos_ground refuses an infinite scale
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


def build_hamiltonian(lattice: Lattice, basis: SectorBasis) -> SparseHamiltonian:
    """Assemble the sector operator bond by bond, at delta = 0.

    H_zz: sum_bonds sz_i sz_j with sz = +-1/2 on the diagonal. H_xy: 1/2
    between configurations differing by one antiparallel bond flip. Only
    the representative rows are built: with a flip parity p, a hop onto
    state j >= dim/2 lands on column dim-1-j with weight p/2, so the
    result is P^T H P for the parity-p combinations P.
    """
    if basis.n_sites != lattice.n_sites:
        raise ValueError("basis and lattice disagree on the number of sites")
    states = basis.representatives
    n = len(states)
    last = len(basis) - 1
    zz = np.zeros(n)
    # int32 indices and one bool per entry keep the temporaries small
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    mirrored: list[np.ndarray] = []  # hops onto a flip partner; only with a parity
    for bond in lattice.bonds:
        anti = ((states >> np.uint64(bond.i)) ^ (states >> np.uint64(bond.j))) & np.uint64(1) == 1
        zz += np.where(anti, -0.25, 0.25)
        src = np.nonzero(anti)[0]
        if len(src) == 0:
            continue
        mask = np.uint64((1 << bond.i) | (1 << bond.j))
        targets = basis.index_of_many(states[src] ^ mask)
        flip = targets >= n
        rows.append(src.astype(np.int32))
        cols.append(np.where(flip, last - targets, targets).astype(np.int32))
        mirrored.append(flip)
    if rows:
        vals = np.where(np.concatenate(mirrored), 0.5 * (basis.parity or 1), 0.5)
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        off = sp.coo_matrix((vals, (r, c)), shape=(n, n)).tocsr()
    else:
        off = sp.csr_matrix((n, n))
    return SparseHamiltonian(dimension=n, zz=zz, offdiag=off, delta=0.0)


@dataclass(frozen=True, eq=False)
class Sector:
    """One lattice's M = 0 sector: its basis and the delta-free operator.

    Compared and hashed by identity: the arrays it holds have no scalar ==.
    """

    lattice: Lattice
    basis: SectorBasis
    h: SparseHamiltonian


def build_sector(spec: LatticeSpec) -> Sector:
    """Build the lattice, its M = 0 basis and H_xy + 0 H_zz, once per lattice."""
    lattice = build_lattice(spec)
    basis = enumerate_basis(lattice.n_sites)
    return Sector(lattice, basis, build_hamiltonian(lattice, basis))


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenpair of one sector, with solver provenance.

    `vector` holds amplitudes over the basis representatives.
    """

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


def _ritz_vector(blocks: list[np.ndarray], y: np.ndarray) -> np.ndarray:
    x = sum(b.T @ y[i * KRYLOV_BLOCK : i * KRYLOV_BLOCK + len(b)] for i, b in enumerate(blocks))
    return x / np.linalg.norm(x)


def _orthogonalize(basis: list[np.ndarray], w: np.ndarray) -> float:
    """Project the stored Krylov rows out of w in place; return ||w||.

    One classical Gram-Schmidt pass, repeated once when it cancels more
    than 1 - 1/sqrt(2) of the norm (Daniel, Gragg, Kaufman & Stewart,
    Math. Comp. 30, 772 (1976): twice is enough).
    """
    norm = float(np.linalg.norm(w))
    for _ in range(2):
        coefficients = [b @ w for b in basis]
        for b, c in zip(basis, coefficients):
            w -= b.T @ c
        before, norm = norm, float(np.linalg.norm(w))
        if norm > before / math.sqrt(2):
            break
    return norm


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

    Raises ValueError for max_iter < 1 or tol <= 0, ScaleError when the
    square of a bound on ||H|| overflows (a Krylov norm could), and
    LanczosError after max_iter without convergence; the exception
    carries the best estimate.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    # a bound on ||H||: while its square is finite, no Krylov norm overflows
    bound = float(np.max(np.abs(h.diagonal))) + float(np.abs(h.offdiag.data).sum())
    if not math.isfinite(bound * bound):
        raise ScaleError(
            f"delta={h.delta:g} puts the operator scale at {bound:.3g}, whose square overflows"
        )
    n = h.dimension
    if n == 1:
        if n_low == 2:
            raise SectorError("second eigenvalue undefined for dimension 1")
        e = float(h.apply(np.ones(1))[0])
        return GroundState(e, np.ones(1), m, 0.0, "exact", 0, seed)

    rng = np.random.default_rng(seed)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    m_max = min(max_iter, n)
    # the Krylov basis is stored KRYLOV_BLOCK rows at a time, so memory
    # follows the iterations made, not max_iter; freeing a mostly untouched
    # max_iter x n block of up to 32 MB would raise glibc's mmap threshold
    # and keep later temporaries on the heap
    blocks: list[np.ndarray] = []
    alphas: list[float] = []
    betas: list[float] = []
    alpha_max = beta_max = 0.0  # running max |alpha| and beta for the breakdown scale
    breakdown = False
    k = 0
    for j in range(m_max):
        if j % KRYLOV_BLOCK == 0:
            blocks.append(np.empty((min(KRYLOV_BLOCK, m_max - j), n)))
        blocks[-1][j % KRYLOV_BLOCK] = q
        basis = blocks[:-1] + [blocks[-1][: j % KRYLOV_BLOCK + 1]]
        w = h.apply(q)
        alpha = float(q @ w)
        alphas.append(alpha)
        w -= alpha * q
        if j > 0:
            w -= betas[-1] * q_prev
        # full reorthogonalization: one Gram-Schmidt pass over the stored rows,
        # a second only when the DGKS test asks for it
        beta = _orthogonalize(basis, w)
        k = j + 1
        alpha_max = max(alpha_max, abs(alpha))
        if beta <= 1e-14 * max(1.0, alpha_max + beta_max):
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
        beta_max = max(beta_max, beta)
        q_prev, q = q, w / beta
    else:
        k = m_max

    evals, evecs = eigh_tridiagonal(
        np.asarray(alphas), np.asarray(betas[: k - 1]), select="i",
        select_range=(0, min(n_low, k) - 1),
    )
    x = _sign_fix(_ritz_vector(basis, evecs[:, 0]))
    e0 = float(evals[0])
    residual = float(np.linalg.norm(h.apply(x) - e0 * x))
    gs = GroundState(e0, x, m, residual, "lanczos", k, seed)
    converged = breakdown or residual < tol
    if n_low == 2:
        if k < 2:
            raise LanczosError("Krylov space exhausted before second eigenvalue", gs)
        if not breakdown:
            # re-check the second pair's true residual
            x1 = _ritz_vector(basis, evecs[:, 1])
            r1 = float(np.linalg.norm(h.apply(x1) - float(evals[1]) * x1))
            converged = converged and r1 < 1e3 * tol
        gs = replace(gs, gap=float(evals[1]) - e0)
    if not converged:
        raise LanczosError(
            f"no convergence after {k} iterations (residual {residual:.3e})", gs
        )
    return gs
