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
for a representative, H. Q. Lin's table indexes the states, and one int32
key per state names its orbit's row and sign. `xxzent ed` solves the ground
state in `build_ground_sector`'s block and its gap in `gap_basis`'s: the
other parity's 352,716 orbits at L = 22, split by the half shift into
sectors of 176,870 and 175,846 rows. Each starts from its projection of
`staggered_guess`'s w |GS>, all made first, and is assembled once the
previous one is freed. Passes over the states or rows go SLICE at a time.

`lanczos_ground` is plain Lanczos: the three-term recurrence with no
Gram-Schmidt pass, stopped as soon as the lowest Ritz pair converges, so
the loss of orthogonality that follows convergence (Paige 1980) never
reaches it. Residuals are judged against max(tol, RESIDUAL_FLOOR * eps *
||T||), since no residual can fall much below eps * ||H||. A step is one
matvec, numpy-loop reductions, in-place updates and one LAPACK bisection;
no reduction uses BLAS, so no result depends on its thread count. The
vectors the recurrence makes are the Krylov basis, with no copy: the ground
run sums its Ritz vector from them, and the gap runs (`lanczos_level`) keep none.
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
SLICE = 1 << 14  # states, rows or entries per pass of the sector-length loops
_STEBZ, _STEIN = get_lapack_funcs(("stebz", "stein"), (np.empty(1),))  # tridiagonal eigenpairs


class SectorError(ValueError):
    """Requested magnetization sector does not exist."""


class ScaleError(ValueError):
    """delta is so large that the squared operator scale overflows."""


class LanczosError(RuntimeError):
    """Lanczos failed to converge; carries the best estimate found."""

    def __init__(self, message: str, best: "GroundState | Level | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SectorBasis:
    """All n_sites-bit configurations with a fixed number of up spins, and
    their orbits under the group G of the spin flip (at M = 0, character
    `parity`) and the translations of the periodic lattice `translations`
    (a shift by k: parity^|k|). With `half_shift` = sigma, the translations
    are only 1 and S, the shift by L/2 along every axis, with chi(S) = sigma.
    An orbit is the unit vector sum_g chi(g) |g r> / norm, named by its
    smallest state r: `representatives` index operator rows and state
    vectors, and `sizes` holds their orbit lengths. A null orbit, fixed by
    a g with chi(g) = -1, has no row, and its states weigh 0 in `expand`.
    """

    n_sites: int
    n_up: int
    states: np.ndarray  # uint64, strictly increasing
    parity: int | None = None
    translations: LatticeSpec | None = None
    half_shift: int | None = None

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
        """The states no g lowers, each g applied only to those still in the
        running, less the null orbits': sum_{g r = r} chi(g) is |Stab(r)| or 0."""
        def own(reps: np.ndarray) -> np.ndarray:
            for g, _ in self._group[1:]:
                reps = reps[self._act(g, reps) >= reps]
            return reps[sum(chi * (self._act(g, reps) == reps) for g, chi in self._group) > 0]
        return np.concatenate([own(self.states[at:at + SLICE]) for at in range(0, len(self), SLICE)])

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
        shifts = [(0,) * d, (L // 2,) * d] if self.half_shift else product(range(L), repeat=d)
        p, sigma = self.parity or 1, self.half_shift  # chi(flip), chi(S)

        def rotation(axis: int, k: int) -> tuple:
            stride = L ** (d - 1 - axis)
            wrap = sum(1 << site for site in range(n) if site // stride % L >= L - k)
            return tuple(map(np.uint64, ((1 << n) - 1 - wrap, wrap, k * stride, (L - k) * stride)))

        return [((tuple(rotation(a, k) for a, k in enumerate(ks) if k), f),
                 p ** f * (sigma ** any(ks) if sigma else p ** sum(ks)))
                for ks in shifts for f in flips]

    def _act(self, g: tuple, x: np.ndarray) -> np.ndarray:
        rotations, flip = g
        for keep, wrap, up, down in rotations:
            x = ((x & keep) << up) | ((x & wrap) >> down)
        return x ^ np.uint64((1 << self.n_sites) - 1) if flip else x

    @cached_property
    def _orbit_map(self) -> np.ndarray:
        """Per state, the int32 key 2 * row + (chi(g) < 0) of its orbit's row
        and its amplitude's sign, scattered from the images g r of the
        representatives; 2 * len(representatives) on a dropped orbit."""
        keys = np.full(len(self), 2 * len(self.representatives), np.int32)
        rows = np.arange(0, 2 * len(self.representatives), 2, dtype=np.int32)
        for g, chi in self._group:
            keys[self.index_of_many(self._act(g, self.representatives))] = rows + (chi < 0)
        return keys

    def _by_slices(self):
        """(slice, rows, amplitudes) of the states, SLICE at a time, from the orbit map."""
        keys = self._orbit_map  # a key's amplitude is +-1/sqrt(size), 0 on a dropped orbit
        weights = np.append(np.outer(1 / np.sqrt(self.sizes, dtype=float), (1, -1)), 0.0)
        for at in range(0, len(self), SLICE):
            k = keys[at:at + SLICE]
            yield slice(at, at + SLICE), k >> 1, weights[k]

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Full-sector amplitudes of a vector over the representatives."""
        if len(v) != len(self.representatives):
            raise ValueError("state length does not match the sector's representatives")
        v, x = np.append(v, v[0]), np.empty(len(self))  # a dropped state reads 0 * v[0]
        for at, rows, weights in self._by_slices():
            np.multiply(weights, v[rows], out=x[at])
        return x

    def project(self, x: np.ndarray) -> np.ndarray:
        """The adjoint of expand, summed in state order."""
        if len(x) != len(self):
            raise ValueError("state length does not match the sector's states")
        v = np.zeros(len(self.representatives) + 1)  # the last entry takes the dropped states
        for at, rows, weights in self._by_slices():
            np.add.at(v, rows, weights * x[at])
        return v[:-1]

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
    sizes[b]) at (a, b). Each hop's key in the orbit map, 2 * b + (chi(g) <
    0), goes in its bond's column of a table with SLICE rows of orbits at a
    time; sorting each row in place gives its CSR entries in column order, with
    no COO -> CSR sort. A hop onto a dropped orbit has an empty slot's key, 2 n,
    and makes no entry. sum_duplicates merges the hops of one row onto one orbit
    (translations, and up to N = 4 sites the flip, reach one orbit twice) before
    the scaling.
    """
    if basis.n_sites != lattice.n_sites:
        raise ValueError("basis and lattice disagree on the number of sites")
    states, sizes, orbit = basis.representatives, basis.sizes, basis._orbit_map
    n = len(states)
    anti_bonds = np.zeros(n, dtype=np.int32)  # per row: its antiparallel bonds, each -1/4 in H_zz
    indptr = np.zeros(n + 1, dtype=np.int32)
    pieces = []  # each slice's keys, in CSR order
    for at in range(0, n, SLICE):
        reps = states[at:at + SLICE]
        keys = np.full((len(reps), lattice.n_bonds), 2 * n, dtype=np.int32)
        for slot, bond in enumerate(lattice.bonds):
            anti = ((reps >> np.uint64(bond.i)) ^ (reps >> np.uint64(bond.j))) & np.uint64(1) == 1
            anti_bonds[at:at + SLICE] += anti
            src = np.flatnonzero(anti)
            mask = np.uint64((1 << bond.i) | (1 << bond.j))
            keys[src, slot] = orbit[basis.index_of_many(reps[src] ^ mask)]
        keys.sort(axis=1)  # in place: each row is contiguous
        hops = keys < 2 * n
        indptr[at + 1:at + 1 + len(reps)] = np.count_nonzero(hops, axis=1)
        pieces.append(keys[hops])
        del keys, hops
    np.cumsum(indptr, out=indptr)
    indices = np.concatenate(pieces)
    del pieces
    data = np.empty(len(indices))
    for at in range(0, len(data), SLICE):
        data[at:at + SLICE] = np.where(indices[at:at + SLICE] & 1, -0.5, 0.5)
    indices >>= 1  # the keys become their columns
    offdiag = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    del data, indices
    offdiag.sum_duplicates()
    if np.ptp(sizes):  # sqrt(sizes[a] / sizes[b]) is 1 between orbits of one length
        lengths, codes = np.unique(sizes, return_inverse=True)
        codes = codes.astype(np.min_scalar_type(len(lengths) ** 2))
        # sqrt(a / b) per pair of lengths: the float operations of sqrt(sizes[a] / sizes[b])
        table, ptr = np.sqrt(lengths[:, None] / lengths).ravel(), offdiag.indptr
        for at in range(0, n, SLICE):  # by row slices: no nnz-long temporary
            lo, hi = ptr[at], ptr[min(at + SLICE, n)]
            flat = (np.repeat(codes[at:at + SLICE] * len(lengths), np.diff(ptr[at:at + SLICE + 1]))
                    + codes[offdiag.indices[lo:hi]])
            offdiag.data[lo:hi] *= table[flat]
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


def gap_basis(basis: SectorBasis) -> list[SectorBasis]:
    """The blocks of the gap: the lowest M = 0 excitation is the lowest level
    of the other flip parity than basis's, at any momentum, so translations
    do not reduce it. The half shift S commutes with H(delta) and the flip,
    and S^2 = 1: where basis has the translations, that parity's block splits
    into the sectors sigma = +1 and -1 of S, less any that is empty."""
    flipped = replace(basis, parity=-basis.parity)
    if basis.translations is None:
        return [flipped]
    sectors = [replace(flipped, half_shift=sigma) for sigma in (1, -1)]
    return [b for b in sectors if len(b.representatives)]


def staggered_guess(lattice: Lattice, basis: SectorBasis, vector: np.ndarray) -> np.ndarray:
    """w |v> on every state of basis, for v over its orbits: the gap blocks'
    `project` of it is their start. w = sum_i eps_i (1 + cos(2 pi x_i / L)) n_i,
    with eps_i = +-1 by sublattice and x_i a site's coordinate along axis 0.
    Its first part is S^z_pi (sum_i eps_i = 0): from the ground state, the
    single-mode state of Arovas, Auerbach & Haldane, PRL 60, 531 (1988). S
    reverses the cos part against it, so each sigma gets one of the two."""
    spec, low = lattice.spec, lattice.n_sites // 2
    x = np.arange(spec.n_sites) // spec.linear_size ** (spec.dimension - 1)
    c = (1 - 2 * np.array(lattice.sublattice)) * (1 + np.cos(2 * np.pi * x / spec.linear_size))
    # w of every low and every high half of a state, as in Lin's index
    low_w, high_w = (sum(ci * ((np.arange(1 << len(part)) >> b) & 1) for b, ci in enumerate(part))
                     for part in (c[:low], c[low:]))
    x = basis.expand(vector)
    for at in range(0, len(x), SLICE):
        states = basis.states[at:at + SLICE]
        x[at:at + SLICE] *= (low_w[(states & np.uint64((1 << low) - 1)).view(np.intp)]
                             + high_w[(states >> np.uint64(low)).view(np.intp)])
    return x


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


@dataclass(frozen=True)
class Level:
    """Lowest level of one sector, without its vector (see lanczos_level)."""

    energy: float
    residual: float
    iterations: int
    tolerance: float


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


def _lanczos(h: SparseHamiltonian, tol: float, seed: int, guess: np.ndarray | None,
             basis: list[np.ndarray] | None) -> tuple[float, np.ndarray, float, float]:
    """lanczos_ground's run: (E0, y, threshold, Ritz estimate beta_k |y_k|). Its Krylov
    vectors go to basis if one is given; else only the two the next step reads are kept."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    # max |H_ii| + nnz max |H_ij| bounds ||H|| with no nnz-long |data|: while
    # its square is finite, no Krylov norm overflows
    data = h.offdiag.data
    largest = max(data.max(initial=0.0), -data.min(initial=0.0))
    bound = float(np.max(np.abs(h.diagonal))) + len(data) * float(largest)
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
    previous = q
    alphas = np.empty(MAX_ITER)
    betas = np.empty(MAX_ITER)
    alpha_max = beta_max = 0.0  # running max |alpha| and beta: the scale ||T_k||
    for j in range(MAX_ITER):
        if basis is not None:
            basis.append(q)
        w = h.apply(q)
        alpha = _dot(q, w)
        alphas[j] = alpha
        w -= np.multiply(alpha, q, out=scratch)
        if j > 0:
            w -= np.multiply(betas[j - 1], previous, out=scratch)
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
        previous, q = q, w
    return e0, y, floor, beta * abs(float(y[-1]))


def _checked(run):
    """run, or LanczosError carrying it if its residual misses its threshold."""
    if not run.residual < run.tolerance:
        raise LanczosError(f"no convergence after {run.iterations} iterations "
                           f"(residual {run.residual:.3e})", run)
    return run


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
    stored in `tolerance`; `lanczos_level`'s run is judged on its Ritz
    estimate instead. The floor replaces any smaller tol: the default 1e-11
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
    basis: list[np.ndarray] = []
    e0, y, floor, _ = _lanczos(h, tol, seed, guess, basis)
    x = _sign_fix(_ritz_vector(basis, y))
    r = h.apply(x) - e0 * x
    return _checked(GroundState(e0, x, m, math.sqrt(_dot(r, r)), len(y), tolerance=floor))


def lanczos_level(h: SparseHamiltonian, *, tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                  guess: np.ndarray | None = None) -> Level:
    """lanczos_ground's run, bit for bit, keeping no Krylov basis, for a level whose vector
    nobody reads: its residual is the Ritz estimate that stopped the run. Raises alike."""
    e0, y, floor, estimate = _lanczos(h, tol, seed, guess, None)
    return _checked(Level(e0, estimate, len(y), floor))
