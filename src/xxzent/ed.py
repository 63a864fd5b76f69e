"""Sector-resolved XXZ Hamiltonians and ground-state solvers.

H = sum over nearest-neighbor bonds of (Sx.Sx + Sy.Sy + delta Sz.Sz) for
spin-1/2. Total Sz is conserved, so everything works inside a fixed
magnetization sector M = n_up - N/2. Configurations are N-bit integers,
bit i = 1 meaning site i is up (sz = +1/2), kept in increasing order.

H(delta) = H_xy + delta H_zz: the spin-flip CSR and the Ising diagonal do
not depend on delta, so `build_sector` builds a lattice's M = 0 basis and
operator once and callers re-point it with `SparseHamiltonian.at`. Every
solve is one `lanczos_ground` run for the lowest pair.

Flipping every spin commutes with H(delta). By Marshall's sign rule and
Perron-Frobenius (Lieb & Mattis 1962) the M = 0 ground state has flip
parity (-1)^(N/2) for every real delta, so the M = 0 basis carries that
parity and operators and vectors live on its dim/2 representatives. The
parity blocks differ only in the sign of the hops onto a flip partner, so
`SparseHamiltonian.flipped` gives the other block on the same pattern.

`lanczos_ground` is plain Lanczos: the three-term recurrence with no
Gram-Schmidt pass, stopped as soon as the lowest Ritz pair converges, so
the loss of orthogonality that follows convergence (Paige 1980) never
reaches it. Residuals are judged against max(tol, RESIDUAL_FLOOR * eps *
||T||), since no residual can fall much below eps * ||H||. A step is one
matvec, numpy-loop reductions, in-place updates and one LAPACK bisection;
no reduction uses BLAS, so no result depends on its thread count. The
vectors the recurrence makes are the Krylov basis: the Ritz vector is
summed from them, and no copy is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, get_lapack_funcs

from .lattice import Lattice, LatticeSpec, build_lattice

DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 600
DEFAULT_SEED = 1234
EPS = float(np.finfo(float).eps)
RESIDUAL_FLOOR = 64  # residuals below RESIDUAL_FLOOR * eps * ||T|| count as converged
_STEBZ, _STEIN = get_lapack_funcs(("stebz", "stein"), (np.empty(1),))  # tridiagonal eigenpairs


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
    """H_xy (offdiag, symmetric CSR) + delta * H_zz (zz, Ising diagonal).

    In a flip-parity block offdiag = A + pB. `mirror` holds the positions in
    offdiag.data of the entries that carry a hop of B, and `mirror_sign` is p.
    """

    dimension: int
    zz: np.ndarray
    offdiag: sp.csr_matrix
    delta: float
    mirror: np.ndarray | None = field(default=None, repr=False, compare=False)
    mirror_sign: int = field(default=1, repr=False, compare=False)
    diagonal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        with np.errstate(over="ignore"):  # lanczos_ground refuses an infinite scale
            object.__setattr__(self, "diagonal", self.delta * self.zz)

    def at(self, delta: float) -> "SparseHamiltonian":
        """The same sector operator at another delta, without re-assembly."""
        return replace(self, delta=delta)

    def flipped(self) -> "SparseHamiltonian":
        """The other flip parity's block, A - pB, on the same indices and indptr:
        p is subtracted at the mirror positions, which is exact (0.5 - 1.0 = -0.5)."""
        if self.mirror is None:
            raise ValueError("this operator keeps no flip-partner hops to negate")
        data = self.offdiag.data.copy()
        data[self.mirror] -= self.mirror_sign
        offdiag = sp.csr_matrix((data, self.offdiag.indices, self.offdiag.indptr),
                                shape=self.offdiag.shape)
        return replace(self, offdiag=offdiag, mirror_sign=-self.mirror_sign)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.offdiag @ v + self.diagonal * v

    @property
    def nnz(self) -> int:
        return self.offdiag.nnz + self.dimension


def build_hamiltonian(lattice: Lattice, basis: SectorBasis) -> SparseHamiltonian:
    """Assemble the sector operator bond by bond, at delta = 0, in CSR order.

    H_zz: sum_bonds sz_i sz_j with sz = +-1/2 on the diagonal. H_xy: 1/2
    between configurations differing by one antiparallel bond flip. Only
    the representative rows are built: with a flip parity p, a hop onto
    state j >= dim/2 lands on column dim-1-j with weight p/2, so the
    result P^T H P = A + pB holds the direct hops A and the hops B onto a
    flip partner. Each hop's key, 4 * column + (1 for A, 2 for B), goes in
    its bond's row of a table with one column per state; sorting each
    state's keys gives its CSR entries in column order, with no COO -> CSR
    sort. Up to N = 4 sites a row can reach one column both ways (flip(t)
    differs in N bits): keys 4c+1 and 4c+2 then merge into the entry 4c+3.
    """
    if basis.n_sites != lattice.n_sites:
        raise ValueError("basis and lattice disagree on the number of sites")
    states = basis.representatives
    n = len(states)
    last = len(basis) - 1
    anti_bonds = np.zeros(n, dtype=np.int32)  # per row: its hops; each is -1/4 in H_zz
    empty = np.iinfo(np.int32).max  # a slot with no hop sorts last
    keys = np.full((lattice.n_bonds, n), empty, dtype=np.int32)
    for slot, bond in enumerate(lattice.bonds):
        anti = ((states >> np.uint64(bond.i)) ^ (states >> np.uint64(bond.j))) & np.uint64(1) == 1
        anti_bonds += anti
        src = np.flatnonzero(anti)
        mask = np.uint64((1 << bond.i) | (1 << bond.j))
        targets = basis.index_of_many(states[src] ^ mask)
        flip = targets >= n
        keys[slot, src] = 4 * np.where(flip, last - targets, targets) + 1 + flip
    keys = np.sort(keys.T, axis=1)
    entries = anti_bonds
    if lattice.n_sites <= 4:
        both = keys[:, 1:] - keys[:, :-1] == 1
        keys[:, :-1][both] += 2
        keys[:, 1:][both] = empty
        entries = anti_bonds - both.sum(axis=1)
    indptr = np.concatenate(([0], np.cumsum(entries))).astype(np.int32)
    keys = keys[keys != empty]
    p = basis.parity or 1
    data = np.take([0.0, 0.5, 0.5 * p, 0.5 + 0.5 * p], keys & 3)
    mirror = np.flatnonzero(keys & 2).astype(np.int32)
    offdiag = sp.csr_matrix((data, keys >> 2, indptr), shape=(n, n))
    zz = 0.25 * lattice.n_bonds - 0.5 * anti_bonds
    return SparseHamiltonian(n, zz, offdiag, 0.0, mirror, p)


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
    iterations: int
    tolerance: float = math.nan  # the residual threshold applied: max(tol, the floor)


def _sign_fix(v: np.ndarray) -> np.ndarray:
    # convention: largest-magnitude amplitude is positive
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # numpy's own loop: a BLAS dot between sparse matvecs leaves OpenBLAS's
    # other threads spinning, at up to twice the CPU time, and splits its sum
    # by the thread count
    return float(np.einsum("i,i->", a, b))


def _ritz_vector(basis: list[np.ndarray], y: np.ndarray) -> np.ndarray:
    """The normalized sum of y_j q_j over the Krylov vectors, by in-place adds."""
    x = np.zeros_like(basis[0])
    scratch = np.empty_like(x)
    for q, c in zip(basis, y):
        x += np.multiply(c, q, out=scratch)
    x /= math.sqrt(_dot(x, x))
    return x


def _lowest_ritz_pair(alphas: np.ndarray, betas: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the leading k x k tridiagonal, from the LAPACK calls
    and arguments of eigh_tridiagonal(select="i", select_range=(0, 0)) without
    its per-call validation, so the numbers are the same."""
    if k == 1:
        return float(alphas[0]), np.ones(1)
    d, e = alphas[:k], betas[: k - 1]
    m, w, iblock, isplit, info = _STEBZ(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        z, info = _STEIN(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise LinAlgError(f"tridiagonal eigenproblem of order {k} failed (info {info})")
    return float(w[0]), z[:, 0]


def lanczos_ground(
    h: SparseHamiltonian,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = DEFAULT_SEED,
    m: float = 0.0,
) -> GroundState:
    """Lowest eigenpair by plain Lanczos, without reorthogonalization.

    The start vector is drawn from a fixed-seed generator so repeated runs
    are bit-identical. The run stops when the Ritz estimate
    beta_k |y_k| of the lowest pair drops below max(tol, RESIDUAL_FLOOR *
    eps * ||T||), on breakdown (a vanishing beta), or after max_iter
    steps, which may exceed the dimension: without reorthogonalization the
    recurrence is not bounded by it. The true residual ||H x - E x||
    (absolute, energy units of the planar coupling) then decides
    convergence against the same threshold, which is stored in
    `tolerance`. The floor replaces any smaller tol: the default 1e-11
    once ||T|| is above ~700, a tol of 1e-14 already at ||T|| ~ 1.

    Orthogonality is lost only along Ritz vectors that have converged
    (Paige, Linear Algebra Appl. 34, 235 (1980)), so a run that stops as
    soon as the lowest pair converges needs no Gram-Schmidt pass. Each step
    makes one `h.apply`, whose array becomes the next Krylov vector; its
    reductions use numpy's loop, not BLAS.

    Raises ValueError for max_iter < 1 or tol <= 0, ScaleError when the
    square of a bound on ||H|| overflows (a Krylov norm could), and
    LanczosError when the residual misses the threshold; the exception
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
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(h.dimension)
    q /= math.sqrt(_dot(q, q))
    scratch = np.empty_like(q)
    # h.apply returns a new array that the step turns into the next q, so
    # the recurrence's own vectors are the Krylov basis, with no copy
    basis: list[np.ndarray] = []
    alphas = np.empty(max_iter)
    betas = np.empty(max_iter)
    alpha_max = beta_max = 0.0  # running max |alpha| and beta: the scale ||T_k||
    for j in range(max_iter):
        basis.append(q)
        w = h.apply(q)
        alpha = _dot(q, w)
        alphas[j] = alpha
        w -= np.multiply(alpha, q, out=scratch)
        if j > 0:
            w -= np.multiply(betas[j - 1], basis[-2], out=scratch)
        beta = math.sqrt(_dot(w, w))
        alpha_max = max(alpha_max, abs(alpha))
        scale = max(1.0, alpha_max + beta_max)
        floor = max(tol, RESIDUAL_FLOOR * EPS * scale)
        e0, y = _lowest_ritz_pair(alphas, betas, j + 1)
        # breakdown (a vanishing beta: the Krylov space is numerically
        # invariant) or a converged Ritz estimate beta |y_k|
        if beta <= 1e-14 * scale or beta * abs(y[-1]) < floor:
            break
        betas[j] = beta
        beta_max = max(beta_max, beta)
        w /= beta
        q = w

    x = _sign_fix(_ritz_vector(basis, y))
    r = h.apply(x) - e0 * x
    residual = math.sqrt(_dot(r, r))
    k = len(y)
    gs = GroundState(e0, x, m, residual, k, tolerance=floor)
    if not residual < floor:
        raise LanczosError(
            f"no convergence after {k} iterations (residual {residual:.3e})", gs
        )
    return gs
