"""Sector-resolved XXZ Hamiltonians and ground-state solvers.

H = sum over nearest-neighbor bonds of (Sx.Sx + Sy.Sy + delta Sz.Sz) for
spin-1/2. Total Sz is conserved, so everything works inside a fixed
magnetization sector M = n_up - N/2. Configurations are N-bit integers,
bit i = 1 meaning site i is up (sz = +1/2), kept in increasing order.

H(delta) = H_xy + delta H_zz: the spin-flip CSR and the Ising diagonal do
not depend on delta, so `build_sector` builds a lattice's M = 0 basis and
operator once and callers re-point it with `SparseHamiltonian.at`. Every
solve is one `lanczos_ground` run for the lowest pair.

Flipping every spin and translating a periodic lattice commute with
H(delta). By Marshall's sign rule and Perron-Frobenius (Lieb & Mattis 1962)
the M = 0 ground state's sign is (-1)^(up spins on sublattice A) for every
real delta; both maps swap the sublattices, so its flip parity and its
unit-translation eigenvalue are (-1)^(N/2). `build_ground_sector` solves in
the orbits of both (441 at 4x4, 16,080 at L = 22); `build_sector` keeps the
flip alone. Each group element maps only the states still in the running
for a representative, and H. Q. Lin's table indexes the states. `xxzent ed`
solves the ground state in `build_ground_sector`'s block and its gap in
`gap_basis`'s (352,716 rows at L = 22), from near S^z_pi |GS>.

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
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, get_lapack_funcs

from .lattice import Lattice, LatticeSpec, build_lattice

DEFAULT_TOL = 1e-11
MAX_ITER = 600  # Lanczos steps before a run gives up with LanczosError
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
    """All n_sites-bit configurations with a fixed number of up spins, and
    their orbits under the group G of the spin flip (at M = 0, character
    `parity`) and the translations of the periodic lattice `translations`
    (a shift by k: parity^|k|). An orbit is the unit vector sum_g chi(g)
    |g r> / norm, named by its smallest state r: `representatives` index
    operator rows and state vectors, and `sizes` holds their orbit lengths.
    On these lattices every g that fixes a state has chi(g) = 1.
    """

    n_sites: int
    n_up: int
    states: np.ndarray  # uint64, strictly increasing
    parity: int | None = None
    translations: LatticeSpec | None = None

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

    @cached_property
    def representatives(self) -> np.ndarray:
        """The states no g lowers; each g is applied only to those still in the running."""
        reps = self.states
        for g, _ in self._group[1:]:
            reps = reps[self._act(g, reps) >= reps]
        return reps

    @cached_property
    def sizes(self) -> np.ndarray:
        reps = self.representatives
        stabilizer = sum(self._act(g, reps) == reps for g, _ in self._group)
        return (len(self._group) // stabilizer).astype(np.int16)

    @cached_property
    def _group(self) -> list:
        """((rotations, flip), chi(g)) for every g in G, the identity first. A
        rotation (keep, wrap, up, down) cycles one axis by k sites: bits move
        up k strides, or down L - k strides from the last k layers."""
        spec, flips = self.translations, (False,) if self.parity is None else (False, True)
        L, d, n = (spec.linear_size, spec.dimension, spec.n_sites) if spec else (1, 0, 0)

        def rotation(axis: int, k: int) -> tuple:
            stride = L ** (d - 1 - axis)
            wrap = sum(1 << site for site in range(n) if site // stride % L >= L - k)
            return tuple(map(np.uint64, ((1 << n) - 1 - wrap, wrap, k * stride, (L - k) * stride)))

        return [((tuple(rotation(a, k) for a, k in enumerate(ks) if k), f),
                 (self.parity or 1) ** (sum(ks) + f))
                for ks in product(range(L), repeat=d) for f in flips]

    def _act(self, g: tuple, x: np.ndarray) -> np.ndarray:
        rotations, flip = g
        for keep, wrap, up, down in rotations:
            x = ((x & keep) << up) | ((x & wrap) >> down)
        return x ^ np.uint64((1 << self.n_sites) - 1) if flip else x

    @cached_property
    def _orbit_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Per state: the row of its orbit and its amplitude in the orbit's
        unit vector, scattered from the images g r of the representatives."""
        index, weight = np.empty(len(self), np.intp), np.empty(len(self))
        for g, chi in self._group:
            at = self.index_of_many(self._act(g, self.representatives))
            index[at], weight[at] = np.arange(len(at)), chi / np.sqrt(self.sizes, dtype=float)
        return index, weight

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Full-sector amplitudes of a vector over the representatives."""
        if len(v) != len(self.representatives):
            raise ValueError("state length does not match the sector's representatives")
        index, weight = self._orbit_map
        return weight * v[index]

    def index_of_many(self, configs: np.ndarray) -> np.ndarray:
        """H. Q. Lin's index (PRB 42, 6561 (1990)), first[high half] + rank[low half]."""
        first, rank = self._lin_tables
        low = self.n_sites // 2
        return (first[(configs >> np.uint64(low)).view(np.intp)]
                + rank[(configs & np.uint64((1 << low) - 1)).view(np.intp)])

    @cached_property
    def _lin_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """first counts the states below a high half, rank the smaller low
        halves of one popcount."""
        n, low = self.n_sites, self.n_sites // 2
        pop = sum((np.arange(1 << (n - low)) >> b) & 1 for b in range(n - low))
        order = np.argsort(pop[: 1 << low], kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(1 << low) - np.searchsorted(pop[order], pop[order])
        below = np.array([math.comb(low, self.n_up - p) if p <= self.n_up else 0
                          for p in range(n - low + 1)])[pop]
        return np.cumsum(below) - below, rank

    def bit(self, site: int) -> np.ndarray:
        """Whether one site is up, across the whole basis."""
        return ((self.states >> np.uint64(site)) & np.uint64(1)).astype(bool)

    def pair_table(self, i: int, j: int) -> PairTable:
        """The basis split by the bits of sites i and j (see PairTable)."""
        code = 2 * self.bit(i).astype(np.int8) + self.bit(j)
        order = np.argsort(code, kind="stable").astype(np.int32)
        bounds = (0, *np.cumsum(np.bincount(code, minlength=4)).tolist())
        mask = np.uint64((1 << i) | (1 << j))
        up_down = order[bounds[2]:bounds[3]]
        partners = self.index_of_many(self.states[up_down] ^ mask).astype(np.int32)
        return PairTable(order, bounds, partners)


@dataclass(frozen=True)
class PairTable:
    """A basis split into four classes by the bits (b_i, b_j) of two sites.

    `order` lists the state indices class by class, (0, 0), (0, 1), (1, 0),
    (1, 1), each class in basis order; class k is order[bounds[k]:bounds[k + 1]].
    `partners[n]` indexes the state that flips both sites of the n-th state
    of class (1, 0).
    """

    order: np.ndarray  # int32, a permutation of the basis
    bounds: tuple[int, ...]  # 5 offsets into order
    partners: np.ndarray  # int32


def sector_dimension(n_sites: int, m: float) -> int:
    half, odd = divmod(n_sites, 2)  # exact where n_sites / 2 would round or overflow
    n_up = half + round(m + odd / 2)
    if abs(m + odd / 2 - (n_up - half)) > 1e-9 or not 0 <= n_up <= n_sites:
        raise SectorError(f"sector M={m} does not exist for {n_sites} sites")
    return math.comb(n_sites, n_up)


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
        w = self.offdiag @ v
        w += self.diagonal * v
        return w

    @property
    def nnz(self) -> int:
        return self.offdiag.nnz + self.dimension


def build_hamiltonian(lattice: Lattice, basis: SectorBasis) -> SparseHamiltonian:
    """Assemble P^T H P bond by bond, at delta = 0, in CSR order, P's
    columns the orbits of the basis.

    H_zz: sum_bonds sz_i sz_j with sz = +-1/2, diagonal on the orbits. H_xy:
    1/2 between configurations differing by one antiparallel bond flip; a
    hop from representative a onto g r_b adds 0.5 chi(g) sqrt(sizes[a] /
    sizes[b]) at (a, b). Each hop's key from the orbit map, 2 * b + (chi(g) <
    0), goes in its bond's row of a table with one column per row; sorting
    each row's keys gives its CSR entries in column order, with no COO -> CSR sort.
    sum_duplicates merges the hops of one row onto one orbit: translations,
    and up to N = 4 sites the flip, reach one orbit twice.
    """
    if basis.n_sites != lattice.n_sites:
        raise ValueError("basis and lattice disagree on the number of sites")
    states, sizes = basis.representatives, basis.sizes
    n = len(states)
    orbit, weight = basis._orbit_map
    state_keys = (2 * orbit + (weight < 0)).astype(np.int32)  # a hop's key by its target state
    anti_bonds = np.zeros(n, dtype=np.int32)  # per row: its hops; each is -1/4 in H_zz
    empty = np.iinfo(np.int32).max  # a slot with no hop sorts last
    keys = np.full((lattice.n_bonds, n), empty, dtype=np.int32)
    for slot, bond in enumerate(lattice.bonds):
        anti = ((states >> np.uint64(bond.i)) ^ (states >> np.uint64(bond.j))) & np.uint64(1) == 1
        anti_bonds += anti
        src = np.flatnonzero(anti)
        mask = np.uint64((1 << bond.i) | (1 << bond.j))
        keys[slot, src] = state_keys[basis.index_of_many(states[src] ^ mask)]
    keys = np.sort(keys.T, axis=1)
    keys = keys[keys != empty]
    indptr = np.concatenate(([0], np.cumsum(anti_bonds))).astype(np.int32)
    offdiag = sp.csr_matrix((np.where(keys & 1, -0.5, 0.5), keys >> 1, indptr), shape=(n, n))
    offdiag.sum_duplicates()
    if np.ptp(sizes):  # sqrt(sizes[a] / sizes[b]) is 1 between orbits of one length
        rows = np.repeat(sizes, np.diff(offdiag.indptr))
        offdiag.data *= np.sqrt(rows / sizes[offdiag.indices])
    zz = 0.25 * lattice.n_bonds - 0.5 * anti_bonds
    return SparseHamiltonian(n, zz, offdiag, 0.0)


@dataclass(frozen=True, eq=False)
class Sector:
    """One lattice's M = 0 sector: its basis and the delta-free operator.

    Compared and hashed by identity: the arrays it holds have no scalar ==.
    The bond tables that the two-site RDMs read are built on first use, so
    a caller that reads no RDM never pays for them.
    """

    lattice: Lattice
    basis: SectorBasis
    h: SparseHamiltonian

    @cached_property
    def bond_tables(self) -> tuple[PairTable, ...]:
        """basis.pair_table of each bond, in lattice.bonds order."""
        return tuple(self.basis.pair_table(b.i, b.j) for b in self.lattice.bonds)


def build_sector(spec: LatticeSpec) -> Sector:
    """The lattice, its M = 0 basis in the ground state's flip parity and
    H_xy + 0 H_zz, once per lattice."""
    lattice = build_lattice(spec)
    basis = enumerate_basis(lattice.n_sites)
    return Sector(lattice, basis, build_hamiltonian(lattice, basis))


def build_ground_sector(spec: LatticeSpec) -> Sector:
    """build_sector's block, reduced on a periodic lattice by its
    translations: the states of the ground state's symmetry sector alone."""
    lattice = build_lattice(spec)
    basis = replace(enumerate_basis(lattice.n_sites), translations=spec if spec.periodic else None)
    return Sector(lattice, basis, build_hamiltonian(lattice, basis))


def gap_basis(basis: SectorBasis) -> SectorBasis:
    """The block of the gap: the lowest M = 0 excitation is the lowest level
    of the other flip parity than basis's, at any momentum, so its block is
    not reduced by translations."""
    return replace(basis, translations=None, parity=-basis.parity)


def staggered_guess(lattice: Lattice, basis: SectorBasis, vector: np.ndarray) -> np.ndarray:
    """S^z_pi |v> = sum_i eps_i S^z_i |v>, eps_i = +-1 by sublattice, for v over
    one flip parity's orbits, as amplitudes over the other parity's. S^z_pi is
    odd under the flip, which maps the first half of the M = 0 states onto the
    second, so that projection is its first half (times sqrt 2). From the ground
    state: the single-mode state of Arovas, Auerbach & Haldane, PRL 60, 531 (1988)."""
    half = len(basis) // 2
    states = basis.states[:half]
    # sum_i eps_i = 0, so S^z_pi = sum_i eps_i n_i
    stag = sum(e * ((states >> np.uint64(i)) & np.uint64(1)).astype(np.int8)
               for i, e in enumerate(1 - 2 * np.array(lattice.sublattice)))
    return basis.expand(vector)[:half] * stag


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
    seed: int = DEFAULT_SEED,
    m: float = 0.0,
    guess: np.ndarray | None = None,
) -> GroundState:
    """Lowest eigenpair by plain Lanczos, without reorthogonalization.

    The start vector is drawn from a fixed-seed generator so repeated runs
    are bit-identical; with a nonzero guess it is 0.1 (that vector) + sqrt(0.99)
    guess / |guess|, normalized, whose random part still reaches a lowest level
    the guess misses. The run stops when the Ritz estimate beta_k |y_k| of the
    lowest pair drops below max(tol, RESIDUAL_FLOOR * eps * ||T||), on
    breakdown (a vanishing beta), or after MAX_ITER steps, which may exceed the
    dimension: without reorthogonalization the recurrence is not bounded by
    it. The true residual ||H x - E x|| (absolute, energy units of the planar
    coupling) then decides convergence against the same threshold, which is
    stored in `tolerance`. The floor replaces any smaller tol: the default 1e-11
    once ||T|| is above ~700, a tol of 1e-14 already at ||T|| ~ 1.

    Orthogonality is lost only along Ritz vectors that have converged
    (Paige, Linear Algebra Appl. 34, 235 (1980)), so a run that stops as
    soon as the lowest pair converges needs no Gram-Schmidt pass. Each step
    makes one `h.apply`, whose array becomes the next Krylov vector; its
    reductions use numpy's loop, not BLAS.

    Every caller in the package solves at DEFAULT_TOL; tol is left open for
    convergence studies. Raises ValueError unless 0 < tol < inf, ScaleError when
    the square of a bound on ||H|| overflows (a Krylov norm could), and
    LanczosError when the residual misses the threshold; the exception
    carries the best estimate.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    # a bound on ||H||: while its square is finite, no Krylov norm overflows
    bound = float(np.max(np.abs(h.diagonal))) + float(np.abs(h.offdiag.data).sum())
    if not math.isfinite(bound * bound):
        raise ScaleError(
            f"delta={h.delta:g} puts the operator scale at {bound:.3g}, whose square overflows"
        )
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(h.dimension)
    q /= math.sqrt(_dot(q, q))
    if guess is not None and (norm := math.sqrt(_dot(guess, guess))) > 0:
        q = 0.1 * q + math.sqrt(0.99) / norm * guess
        q /= math.sqrt(_dot(q, q))
    scratch = np.empty_like(q)
    # h.apply returns a new array that the step turns into the next q, so
    # the recurrence's own vectors are the Krylov basis, with no copy
    basis: list[np.ndarray] = []
    alphas = np.empty(MAX_ITER)
    betas = np.empty(MAX_ITER)
    alpha_max = beta_max = 0.0  # running max |alpha| and beta: the scale ||T_k||
    for j in range(MAX_ITER):
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
