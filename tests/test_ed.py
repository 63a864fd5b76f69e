"""Sector bases, Hamiltonian assembly, and the Lanczos ground-state solver.

The dense eigensolver in conftest acts as the oracle for small sectors;
scipy's ARPACK wrapper is used once as a second, independent route for a
sector too large to diagonalize densely.
"""

import math
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from conftest import (
    DENSE_DIM_LIMIT,
    coo_hamiltonian,
    dense_ground_oracle,
    dense_matrix,
    parity_block,
    sparse_matrix,
)
from xxzent import ed
from xxzent.lattice import DegenerateLatticeWarning, LatticeSpec, build_lattice


# ---------------------------------------------------------------- bases


def test_sector_dimension_matches_comb():
    assert ed.sector_dimension(4, 0.0) == math.comb(4, 2)
    assert ed.sector_dimension(8, 1.0) == math.comb(8, 5)  # n_up = N/2 + M
    assert ed.sector_dimension(12, 0.0) == 924


def test_sector_dimension_rejects_bad_m():
    with pytest.raises(ed.SectorError):
        ed.sector_dimension(4, 0.3)
    with pytest.raises(ed.SectorError):
        ed.sector_dimension(4, 3.0)
    with pytest.raises(ed.SectorError):
        ed.sector_dimension(5, 0.0)  # half-integer total Sz only
    with pytest.raises(ed.SectorError):
        ed.sector_dimension(2**53 + 1, 0.0)  # where (2^53 + 1) / 2 rounds to an integer


def test_enumerate_basis_n4_m0():
    basis = ed.enumerate_basis(4, 0.0)
    assert basis.states.tolist() == [3, 5, 6, 9, 10, 12]
    assert basis.n_up == 2
    assert basis.m == 0.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), up=st.integers(0, 12))
def test_enumerate_basis_invariants(n, up):
    up = up % (n + 1)
    m = up - n / 2.0
    basis = ed.enumerate_basis(n, m)
    states = basis.states
    assert len(states) == math.comb(n, up)
    assert np.all(np.diff(states.astype(np.int64)) > 0)  # ascending, unique
    pop = np.array([bin(int(s)).count("1") for s in states])
    assert np.all(pop == up)
    # index lookup round-trips
    idx = basis.index_of_many(states)
    assert np.array_equal(idx, np.arange(len(states)))


def _gosper(n_sites: int, n_up: int) -> list[int]:
    """Reference order: every n_sites-bit integer with n_up bits set, ascending."""
    if n_up == 0:
        return [0]
    out, v = [], (1 << n_up) - 1
    for _ in range(math.comb(n_sites, n_up)):
        out.append(v)
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r  # next integer with the same popcount
    return out


@pytest.mark.parametrize("n", range(1, 17))
def test_enumerate_basis_matches_gosper_order(n):
    for up in range(n + 1):
        basis = ed.enumerate_basis(n, up - n / 2)
        assert basis.states.dtype == np.uint64
        assert basis.states.tolist() == _gosper(n, up), up


def test_flip_parity_only_at_m0():
    assert ed.enumerate_basis(4).parity == 1
    assert ed.enumerate_basis(6).parity == -1
    assert ed.enumerate_basis(6, 1.0).parity is None
    assert ed.enumerate_basis(7, 0.5).parity is None
    with pytest.raises(ed.SectorError):
        replace(ed.enumerate_basis(6, 1.0), parity=1)
    with pytest.raises(ed.SectorError):
        replace(ed.enumerate_basis(6), parity=0)


def test_spin_flip_reverses_the_m0_order():
    # the representatives are the first half, the states with the top bit clear
    for n in (2, 4, 8, 12):
        basis = ed.enumerate_basis(n)
        flipped = basis.states ^ np.uint64((1 << n) - 1)
        assert np.array_equal(flipped, basis.states[::-1])
        assert np.all(basis.representatives < np.uint64(1 << (n - 1)))
        assert 2 * len(basis.representatives) == len(basis)


def test_expand_restores_the_flip_partner():
    basis = ed.enumerate_basis(6)
    v = np.arange(1.0, 11.0)
    full = basis.expand(v)
    partner = basis.index_of_many(basis.states ^ np.uint64(63))
    np.testing.assert_allclose(full[partner], basis.parity * full)
    assert np.linalg.norm(full) == pytest.approx(np.linalg.norm(v))
    polarized = ed.enumerate_basis(6, 1.0)
    w = np.ones(len(polarized))
    np.testing.assert_array_equal(polarized.expand(w), w)  # a trivial group: every weight is 1
    with pytest.raises(ValueError, match="representatives"):
        basis.expand(np.ones(len(basis)))


def test_index_of_single_config():
    basis = ed.enumerate_basis(4, 0.0)
    assert basis.index_of_many(np.uint64(6)) == 2
    assert basis.index_of_many(np.uint64(12)) == 5


def test_bit_extraction():
    basis = ed.enumerate_basis(4, 0.0)
    # states [3,5,6,9,10,12]; site-0 occupation
    assert basis.bit(0).tolist() == [1, 1, 0, 1, 0, 0]
    assert basis.bit(3).tolist() == [0, 0, 0, 1, 1, 1]


@pytest.mark.parametrize("n_sites, m, i, j", [(8, 0.0, 2, 5), (8, 0.0, 7, 0), (7, 0.5, 1, 2)])
def test_pair_table_splits_the_basis_by_site_bits(n_sites, m, i, j):
    basis = ed.enumerate_basis(n_sites, m)
    t = basis.pair_table(i, j)
    assert np.array_equal(np.sort(t.order), np.arange(len(basis)))
    assert t.bounds[0] == 0 and t.bounds[-1] == len(basis)
    bi, bj = basis.bit(i), basis.bit(j)
    for k, (up_i, up_j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        cls = t.order[t.bounds[k]:t.bounds[k + 1]]
        assert np.array_equal(cls, np.flatnonzero((bi == up_i) & (bj == up_j)))
    up_down = basis.states[t.order[t.bounds[2]:t.bounds[3]]]
    mask = np.uint64((1 << i) | (1 << j))
    assert np.array_equal(basis.states[t.partners], up_down ^ mask)


# ---------------------------------------------------- Hamiltonian assembly


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
def test_two_site_block_explicit():
    # M=0 basis {up-down, down-up}: diagonal -delta/4, flip 1/2; the singlet
    # (parity -1) and the Sz = 0 triplet (parity +1) each span one state
    sector = ed.build_sector(LatticeSpec(1, 2))
    full = parity_block(sector, None)
    triplet = parity_block(sector, 1)
    assert sector.basis.parity == -1
    for delta in (0.0, 0.7, 1.0, 2.5):
        expected = np.array([[-delta / 4, 0.5], [0.5, -delta / 4]])
        singlet = sector.h.at(delta)
        np.testing.assert_allclose(dense_matrix(full.at(delta)), expected, atol=1e-15)
        np.testing.assert_allclose(dense_matrix(singlet), [[-delta / 4 - 0.5]], atol=1e-15)
        np.testing.assert_allclose(dense_matrix(triplet.at(delta)), [[-delta / 4 + 0.5]], atol=1e-15)


def test_hamiltonian_hermitian_and_sector_preserving():
    lat = build_lattice(LatticeSpec(1, 6))
    basis = ed.enumerate_basis(6, 1.0)
    h = ed.build_hamiltonian(lat, basis).at(0.8)
    dense = dense_matrix(h)
    np.testing.assert_allclose(dense, dense.T, atol=1e-14)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(h.dimension)
    np.testing.assert_allclose(h.apply(v), dense @ v, atol=1e-12)


def test_hamiltonian_linear_in_delta():
    # H(delta) = offdiag + delta * diag(delta=1); off-diagonal part fixed
    sector = ed.build_sector(LatticeSpec(2, 4))
    h1 = sector.h.at(1.0)
    h2 = sector.h.at(2.5)
    assert sector.h.delta == 0.0 and not sector.h.diagonal.any()
    np.testing.assert_allclose(h2.diagonal, 2.5 * h1.diagonal, atol=1e-13)
    assert (h2.offdiag != h1.offdiag).nnz == 0


@pytest.mark.parametrize("spec", [LatticeSpec(1, 10), LatticeSpec(2, 4)])
def test_apply_is_bitwise_the_sum_of_its_parts(spec):
    # apply adds the diagonal term into the matvec's own array, which gives
    # the bits of the two-temporary sum in either flip parity
    sector = ed.build_sector(spec)
    v = np.random.default_rng(3).standard_normal(sector.h.dimension)
    before = v.copy()
    for h in (sector.h.at(1.3), parity_block(sector, -sector.basis.parity).at(1.3)):
        w = h.apply(v)
        assert w.tobytes() == (h.offdiag @ v + h.diagonal * v).tobytes()
        assert w is not v and v.tobytes() == before.tobytes()


def test_offdiagonal_counts_antiparallel_bonds():
    # each off-diagonal entry of the full M = 0 block is 1/2 per connecting bond
    sector = ed.build_sector(LatticeSpec(1, 4))
    off = parity_block(sector, None).offdiag.toarray()
    assert set(np.unique(off)) <= {0.0, 0.5}
    # state 5 = sites 0,2 up on a 4-ring: all four bonds antiparallel
    row = int(sector.basis.index_of_many(np.uint64(5)))
    assert np.count_nonzero(off[row]) == 4


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("delta", [-1.5, 0.0, 1.0, 5.0])
@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(1, n) for n in (2, 4, 8, 10)]
    + [LatticeSpec(1, 8, periodic=False), LatticeSpec(2, 2)],
    ids=lambda s: f"d{s.dimension}L{s.linear_size}{'' if s.periodic else 'open'}",
)
def test_parity_sectors_split_the_m0_spectrum(spec, delta):
    # the flip commutes with H(delta): the two parity blocks together carry
    # exactly the spectrum of the full M = 0 block
    sector = ed.build_sector(spec)

    def levels(parity):
        return np.linalg.eigvalsh(dense_matrix(parity_block(sector, parity).at(delta)))

    both = np.sort(np.concatenate((levels(1), levels(-1))))
    np.testing.assert_allclose(both, levels(None), rtol=0, atol=1e-12)


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(1, n, periodic=p) for n in (2, 4, 6, 8, 10, 12) for p in (True, False)]
    + [LatticeSpec(2, 2), LatticeSpec(3, 2)],
    ids=lambda s: f"d{s.dimension}L{s.linear_size}{'' if s.periodic else 'open'}",
)
def test_flipped_is_the_other_parity_block(spec):
    # the gap's block, assembled directly on the basis with the parity
    # reversed, is the full M = 0 operator restricted to parity -p: V^T H V,
    # with V the isometry that expands that parity's orbits. It keeps the
    # ground block's sparsity pattern and diagonal; only off-diagonal data
    # differs. Up to N = 4 sites a direct and a mirrored hop share an entry
    sector = ed.build_sector(spec)
    h = sector.h
    [flipped] = ed.gap_basis(sector.basis)  # no translations: the flip block whole
    other = ed.build_hamiltonian(sector.lattice, flipped)
    for name in ("indptr", "indices"):
        np.testing.assert_array_equal(getattr(other.offdiag, name), getattr(h.offdiag, name))
    isometry = np.column_stack([flipped.expand(e) for e in np.eye(other.dimension)])
    np.testing.assert_allclose(isometry.T @ isometry, np.eye(other.dimension), rtol=0, atol=1e-14)
    full = parity_block(sector, None)
    for delta in (-0.5, 0.0, 1.0, 2.5):
        np.testing.assert_array_equal(other.at(delta).diagonal, h.at(delta).diagonal)
        np.testing.assert_allclose(
            isometry.T @ dense_matrix(full.at(delta)) @ isometry,
            dense_matrix(other.at(delta)),
            rtol=0,
            atol=1e-12,
        )


GAP_SPECS = ([LatticeSpec(1, n, periodic=p) for n in (2, 4, 6, 8, 10, 12) for p in (True, False)]
             + [LatticeSpec(2, 2), LatticeSpec(3, 2)])


def _gap_spec_id(spec: LatticeSpec) -> str:
    return f"d{spec.dimension}L{spec.linear_size}{'' if spec.periodic else 'open'}"


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("spec", GAP_SPECS, ids=_gap_spec_id)
def test_gap_sectors_split_the_flipped_block(spec):
    # gap_basis of the ground block: on a periodic lattice the half-shift
    # sectors, each V^T H V with V the isometry of its expansions, V's
    # together orthonormal and as many as the flip block's orbits, so their
    # levels together are the flip block's and the lowest sector minimum is
    # its lowest level; on an open lattice the flip block itself
    ground = ed.build_ground_sector(spec)
    blocks = ed.gap_basis(ground.basis)
    assert [b.half_shift for b in blocks] == ([None] if not spec.periodic
                                              else [1] if spec.n_sites == 2 else [1, -1])
    ops = [ed.build_hamiltonian(ground.lattice, b) for b in blocks]
    isometry = np.column_stack([b.expand(e) for b in blocks
                                for e in np.eye(len(b.representatives))])
    flipped = ed.build_hamiltonian(ground.lattice, replace(ground.basis, translations=None,
                                                            parity=-ground.basis.parity))
    assert isometry.shape[1] == flipped.dimension
    np.testing.assert_allclose(isometry.T @ isometry, np.eye(flipped.dimension), rtol=0, atol=1e-14)
    full = ed.build_hamiltonian(ground.lattice, replace(ground.basis, translations=None, parity=None))
    for delta in (-0.5, 0.0, 1.0, 2.5):
        want = np.linalg.eigvalsh(dense_matrix(flipped.at(delta)))
        reduced = isometry.T @ dense_matrix(full.at(delta)) @ isometry
        # H couples no two sectors: V^T H V is the block diagonal of their operators
        split, offset = np.zeros_like(reduced), 0
        for h in ops:
            block = slice(offset, offset + h.dimension)
            split[block, block] = dense_matrix(h.at(delta))
            offset += h.dimension
        np.testing.assert_allclose(reduced, split, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(split), want, rtol=0, atol=1e-12)
        lowest = min(np.linalg.eigvalsh(dense_matrix(h.at(delta)))[0] for h in ops)
        assert abs(lowest - want[0]) <= 1e-12


def _outcome(solve, h, **kwargs):
    """What a run returns, or the best estimate its LanczosError carries."""
    try:
        return solve(h, **kwargs)
    except ed.LanczosError as exc:
        return exc.best


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("spec", GAP_SPECS, ids=_gap_spec_id)
def test_level_run_is_the_ground_run_without_its_vector(spec, monkeypatch):
    # lanczos_level makes lanczos_ground's recurrence: from the same seed and
    # start, each gap block's level has the same energy, iterations and
    # threshold, bit for bit, and its Ritz estimate beta_k |y_k| passes the
    # threshold exactly where the true residual ||H x - E x|| does. A cap of
    # 12 steps stops the larger blocks' runs short, so both verdicts occur
    ground = ed.build_ground_sector(spec)
    for delta in (-0.5, 0.0, 1.0, 2.5, 1e6):
        gs = ed.lanczos_ground(ground.h.at(delta))
        start = ed.staggered_guess(ground.lattice, ground.basis, gs.vector)
        for block in ed.gap_basis(ground.basis):
            h = ed.build_hamiltonian(ground.lattice, block).at(delta)
            starts = ((ed.DEFAULT_SEED, block.project(start)), (7, None))
            for cap, (seed, guess) in product((ed.MAX_ITER, 12), starts):
                monkeypatch.setattr(ed, "MAX_ITER", cap)
                full, level = (_outcome(solve, h, seed=seed, guess=guess)
                               for solve in (ed.lanczos_ground, ed.lanczos_level))
                assert ((level.energy, level.iterations, level.tolerance)
                        == (full.energy, full.iterations, full.tolerance)), (delta, cap, seed)
                assert (level.residual < level.tolerance) == (full.residual < full.tolerance)
            monkeypatch.undo()


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(1, n, periodic=p) for n in range(2, 13) for p in (True, False)
     if n % 2 == 0 or not p]
    + [LatticeSpec(2, 2), LatticeSpec(2, 4), LatticeSpec(3, 2)],
    ids=lambda s: f"d{s.dimension}L{s.linear_size}{'' if s.periodic else 'open'}",
)
def test_assembly_is_bit_identical_to_the_coo_reference(spec):
    # the row-ordered assembly needs no COO -> CSR sort but must give the same
    # CSR arrays in each flip parity and in the full M = 0 block. Up to N = 4
    # sites (chains L = 2 and 4, the 2x2 square) a direct and a mirrored hop
    # share an entry; odd open chains have no M = 0, so they take M = 1/2
    lattice = build_lattice(spec)
    basis = ed.enumerate_basis(lattice.n_sites, (lattice.n_sites % 2) / 2)
    parities = (None,) if basis.parity is None else (basis.parity, -basis.parity, None)
    for parity in parities:
        block = replace(basis, parity=parity)
        h = ed.build_hamiltonian(lattice, block)
        offdiag = coo_hamiltonian(lattice, block)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(h.offdiag, name), getattr(offdiag, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


# ------------------------------------------------------------- solvers


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
def test_dense_oracle_two_site():
    sector = ed.build_sector(LatticeSpec(1, 2))
    gs = dense_ground_oracle(sector.h.at(1.0))
    assert gs.energy == pytest.approx(-0.75, abs=1e-14)
    # singlet amplitudes up to the sign convention
    full = sector.basis.expand(gs.vector)
    np.testing.assert_allclose(np.abs(full), np.sqrt(0.5), atol=1e-14)
    assert full[0] == pytest.approx(-full[1], abs=1e-14)


def test_dense_oracle_refuses_large_sector():
    h = ed.build_sector(LatticeSpec(2, 4)).h.at(1.0)
    assert h.dimension > DENSE_DIM_LIMIT
    with pytest.raises(ValueError, match="dense oracle refused"):
        dense_ground_oracle(h)


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 1.7])
@pytest.mark.parametrize("spec", [LatticeSpec(1, 4), LatticeSpec(1, 8), LatticeSpec(1, 10)])
def test_lanczos_matches_dense(spec, delta):
    h = ed.build_sector(spec).h.at(delta)
    reference = dense_ground_oracle(h)
    gs = ed.lanczos_ground(h)
    assert gs.energy == pytest.approx(reference.energy, abs=1e-10)
    overlap = abs(np.dot(gs.vector, reference.vector))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def _assert_same_ritz_pair(alphas, betas, k):
    e, y = ed._lowest_ritz_pair(alphas, betas, k)
    w, v = eigh_tridiagonal(alphas[:k], betas[: k - 1], select="i", select_range=(0, 0))
    assert e == w[0], k
    assert y[-1] == v[-1, 0], k
    np.testing.assert_array_equal(y, v[:, 0])


@pytest.mark.parametrize("k", [1, 2, 3, 17, 70, 300])
def test_lowest_ritz_pair_matches_scipy(k):
    # the direct stebz/stein call must give eigh_tridiagonal's numbers bit
    # for bit; the arrays are longer than k, as in lanczos_ground
    rng = np.random.default_rng(k)
    for _ in range(5):
        alphas = rng.standard_normal(k + 3)
        betas = np.abs(rng.standard_normal(k + 3))
        _assert_same_ritz_pair(alphas, betas, k)


def test_lowest_ritz_pair_matches_scipy_on_a_lanczos_run(monkeypatch):
    calls = []
    original = ed._lowest_ritz_pair

    def recorded(alphas, betas, k):
        calls.append((alphas.copy(), betas.copy(), k))
        return original(alphas, betas, k)

    monkeypatch.setattr(ed, "_lowest_ritz_pair", recorded)
    ed.lanczos_ground(ed.build_sector(LatticeSpec(2, 4)).h.at(1.0))
    alphas, betas, k = calls[-1]
    assert k > 20
    for j in (1, 2, k // 2, k):
        _assert_same_ritz_pair(alphas, betas, j)


def test_lanczos_residual_below_tolerance():
    h = ed.build_sector(LatticeSpec(2, 4)).h.at(1.0)
    gs = ed.lanczos_ground(h)
    assert gs.residual <= ed.DEFAULT_TOL
    true_resid = np.linalg.norm(h.apply(gs.vector) - gs.energy * gs.vector)
    assert true_resid <= 10 * ed.DEFAULT_TOL


def test_lanczos_vs_arpack_large_sector():
    # independent route for a sector past the dense limit (dim 12870)
    h = ed.build_sector(LatticeSpec(2, 4)).h.at(1.0)
    w = spla.eigsh(sparse_matrix(h), k=1, which="SA", tol=1e-12,
                   v0=np.ones(h.dimension), return_eigenvectors=False)
    gs = ed.lanczos_ground(h)
    assert gs.energy == pytest.approx(float(w[0]), abs=1e-9)


def test_frozen_ground_energies():
    # regression constants from the dense oracle / converged Lanczos runs
    cases = [
        (LatticeSpec(1, 4), 1.0, -2.0),
        (LatticeSpec(1, 4), 0.0, -math.sqrt(2.0)),
        (LatticeSpec(1, 8), 1.0, -3.651093408937),
        (LatticeSpec(1, 12), 1.0, -5.387390917445),
        (LatticeSpec(2, 4), 1.0, -11.228483208429),
    ]
    for spec, delta, e0 in cases:
        gs = ed.lanczos_ground(ed.build_sector(spec).h.at(delta))
        assert gs.energy == pytest.approx(e0, abs=5e-11), spec


def test_sign_convention_and_determinism():
    h = ed.build_sector(LatticeSpec(1, 8)).h.at(0.9)
    a = ed.lanczos_ground(h)
    b = ed.lanczos_ground(h)
    assert np.array_equal(a.vector, b.vector)  # bit-for-bit with fixed seed
    assert a.vector[np.argmax(np.abs(a.vector))] > 0


def test_seed_changes_start_but_not_result():
    h = ed.build_sector(LatticeSpec(1, 8)).h.at(1.3)
    a = ed.lanczos_ground(h, seed=1234)
    b = ed.lanczos_ground(h, seed=99)
    assert a.energy == pytest.approx(b.energy, abs=1e-10)
    np.testing.assert_allclose(a.vector, b.vector, atol=1e-7)


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
def test_breakdown_terminates_exactly():
    # the full two-state M = 0 block: Krylov space exhausts after two steps
    sector = ed.build_sector(LatticeSpec(1, 2))
    gs = ed.lanczos_ground(parity_block(sector, None).at(1.0))
    assert gs.iterations == 2
    assert gs.energy == pytest.approx(-0.75, abs=1e-13)


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
def test_one_state_blocks_go_through_the_recurrence():
    # the start vector normalizes to +-1 exactly and the run breaks down at
    # step 1 with alpha = H_11: both parity blocks of the 2-site chain and
    # the polarized M = 3 sector of the 6-ring
    sector = ed.build_sector(LatticeSpec(1, 2))
    lat = build_lattice(LatticeSpec(1, 6))
    polarized = ed.build_hamiltonian(lat, ed.enumerate_basis(6, 3.0))
    for h0 in (sector.h, parity_block(sector, -sector.basis.parity), polarized):
        for delta in (-0.5, 0.0, 0.7, 1.0, 2.5):
            h = h0.at(delta)
            assert h.dimension == 1
            for seed in (ed.DEFAULT_SEED, 1, 2, 3):
                gs = ed.lanczos_ground(h, seed=seed)
                assert gs.energy == dense_matrix(h)[0, 0], (delta, seed)
                assert gs.vector.tolist() == [1.0]
                assert gs.iterations == 1
                assert gs.residual == 0.0 < gs.tolerance


@pytest.mark.parametrize(
    "spec, delta",
    [(LatticeSpec(1, 16), 1.0), (LatticeSpec(1, 18), 1.0), (LatticeSpec(2, 4), 0.5)],
    ids=["d1L16", "d1L18", "d2L4"],
)
def test_krylov_storage_follows_the_iterations_made(spec, delta):
    # the recurrence's own vectors are the Krylov basis: a run holds one
    # vector per iteration and a few work vectors, no preallocated block
    h = ed.build_sector(spec).h.at(delta)
    tracemalloc.start()
    try:
        gs = ed.lanczos_ground(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (gs.iterations + 10) * h.dimension * 8, peak / (h.dimension * 8)


def test_max_iter_exhaustion_raises_with_best(monkeypatch):
    h = ed.build_sector(LatticeSpec(2, 4)).h.at(1.0)
    monkeypatch.setattr(ed, "MAX_ITER", 5)
    with pytest.raises(ed.LanczosError) as info:
        ed.lanczos_ground(h)
    best = info.value.best
    assert best is not None
    assert best.energy > -11.228483208429 - 1e-9  # variational from above


def _spec_id(spec: LatticeSpec) -> str:
    return f"d{spec.dimension}L{spec.linear_size}{'' if spec.periodic else 'open'}"


@pytest.mark.parametrize("delta", [0.0, 1.0, 3.0])
@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(1, 8, periodic=False), LatticeSpec(1, 10), LatticeSpec(1, 12)],
    ids=_spec_id,
)
def test_lanczos_runs_to_krylov_exhaustion(spec, delta):
    # 35, 126 and 462 representatives: few enough that a run to a tight tol
    # could fill the Krylov space, where plain Lanczos turns up ghost copies
    # of converged levels. E0 must still come out as the dense ground level
    h = ed.build_sector(spec).h.at(delta)
    e0 = np.linalg.eigvalsh(dense_matrix(h))[0]
    for tol in (ed.DEFAULT_TOL, 1e-14):
        gs = ed.lanczos_ground(h, tol=tol)
        assert gs.residual < gs.tolerance, tol
        assert gs.energy == pytest.approx(e0, abs=1e-12), tol


@pytest.mark.parametrize(
    "spec, m, delta",
    [(LatticeSpec(1, 9, periodic=False), 0.5, -1.5), (LatticeSpec(1, 14), 0.0, -3.0)],
    ids=lambda p: _spec_id(p) if isinstance(p, LatticeSpec) else str(p),
)
def test_lanczos_converges_where_partial_reorthogonalization_failed(spec, m, delta):
    # two solves of scripts/lanczos_battery.py at tol 1e-13 that Lanczos
    # with Simon's partial reorthogonalization failed to converge
    lat = build_lattice(spec)
    h = ed.build_hamiltonian(lat, ed.enumerate_basis(lat.n_sites, m)).at(delta)
    e0 = np.linalg.eigvalsh(dense_matrix(h))[0]
    gs = ed.lanczos_ground(h, tol=1e-13, m=m)
    assert gs.residual < gs.tolerance
    assert gs.energy == pytest.approx(e0, abs=gs.tolerance)


def test_gap_four_ring():
    # E0 = -2 is the parity +1 singlet; the first excitation, the Sz = 0
    # triplet member at -1, is the parity -1 ground state
    sector = ed.build_sector(LatticeSpec(1, 4))
    gs = ed.lanczos_ground(sector.h.at(1.0))
    other = ed.lanczos_ground(parity_block(sector, -1).at(1.0))
    levels = np.linalg.eigvalsh(dense_matrix(parity_block(sector, None).at(1.0)))
    assert gs.energy == pytest.approx(-2.0, abs=1e-12)
    assert other.energy == pytest.approx(-1.0, abs=1e-12)
    assert other.energy == pytest.approx(levels[1], abs=1e-12)


@pytest.mark.parametrize("delta", [-1.5, 0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "spec, m", [(LatticeSpec(1, 4), 0.0), (LatticeSpec(1, 8), 0.0), (LatticeSpec(1, 10), 0.0)]
)
def test_gap_lanczos_pair_matches_dense(spec, m, delta):
    # the gap xxzent ed reports, from one Lanczos run in each flip parity,
    # against the dense spectrum of the whole M = 0 sector
    sector = ed.build_sector(spec)
    d0, d1 = np.linalg.eigvalsh(dense_matrix(parity_block(sector, None).at(delta)))[:2]
    gs = ed.lanczos_ground(sector.h.at(delta), m=m)
    other = ed.lanczos_ground(parity_block(sector, -sector.basis.parity).at(delta), m=m)
    assert gs.energy == pytest.approx(d0, abs=1e-9)
    assert other.energy - gs.energy == pytest.approx(d1 - d0, abs=1e-8)


GAP_DELTAS = (-0.99, -0.9, -0.5, -0.2, 0.0, 0.2, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0,
              1e3, 1e6)


def _gap_slack(delta: float) -> float:
    # ties (delta = 0 on periodic chains, delta <= 0 on 4 sites) up to round-off
    return 1e-12 * max(1.0, abs(delta))


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("delta", GAP_DELTAS)
@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(1, n, periodic=p) for p in (True, False) for n in (4, 6, 8, 10, 12)]
    + [LatticeSpec(2, 2), LatticeSpec(3, 2)],
    ids=_spec_id,
)
def test_first_excitation_lies_in_the_other_parity(spec, delta):
    # xxzent ed reports the gap as E0(-p) - E0(p), p the ground state's flip
    # parity: the lowest M = 0 excitation is never strictly inside parity p
    sector = ed.build_sector(spec)
    e1_p = np.linalg.eigvalsh(dense_matrix(sector.h.at(delta)))[1]
    other = parity_block(sector, -sector.basis.parity).at(delta)
    assert np.linalg.eigvalsh(dense_matrix(other))[0] <= e1_p + _gap_slack(delta)


@pytest.mark.parametrize("spec", [LatticeSpec(2, 4), LatticeSpec(1, 16)], ids=_spec_id)
def test_first_excitation_lies_in_the_other_parity_past_the_dense_limit(spec):
    # 6435 representatives per parity; ARPACK from a random start, since a
    # symmetric start vector could miss a level of another momentum
    sector = ed.build_sector(spec)
    other = parity_block(sector, -sector.basis.parity)
    v0 = np.random.default_rng(5).standard_normal(sector.h.dimension)
    for delta in (-0.5, 0.5, 1.0, 3.0):
        low = spla.eigsh(sparse_matrix(sector.h.at(delta)), k=2, which="SA", v0=v0,
                         return_eigenvectors=False)
        e0_other = spla.eigsh(sparse_matrix(other.at(delta)), k=1, which="SA", v0=v0,
                              return_eigenvectors=False)[0]
        assert e0_other <= max(low) + _gap_slack(delta), delta


@pytest.mark.parametrize("delta", [-1.5, -0.99, -0.9, -0.5, 0.0, 1.0, 3.0])
@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(1, n) for n in (4, 6, 8, 10)] + [LatticeSpec(1, 8, periodic=False)],
    ids=_spec_id,
)
def test_m0_holds_the_lowest_level_above_minus_one(spec, delta):
    # ED solves M = 0 alone, so xxzent ed refuses delta <= -1: dense solves of
    # every M sector put the lowest level at M = 0 for delta > -1, while at
    # delta = -1.5 the fully polarized side lies below it
    lat = build_lattice(spec)
    n = lat.n_sites
    levels = [
        np.linalg.eigvalsh(dense_matrix(ed.build_hamiltonian(
            lat, replace(ed.enumerate_basis(n, up - n / 2), parity=None)
        ).at(delta)))[0]
        for up in range(n + 1)
    ]
    if delta > -1:
        assert levels[n // 2] <= min(levels) + 1e-12
    else:
        assert levels[n // 2] > min(levels) + 0.5


def test_lanczos_ground_returns_a_ground_state():
    h = ed.build_sector(LatticeSpec(1, 8)).h.at(1.0)
    gs = ed.lanczos_ground(h)
    assert isinstance(gs, ed.GroundState)
    assert gs.residual < gs.tolerance == ed.DEFAULT_TOL


# the ids keep the names these cases had beside the former max_iter cases
@pytest.mark.parametrize(
    "kwargs, name",
    [({"tol": 0.0}, "tol"), ({"tol": -1.0}, "tol"), ({"tol": math.nan}, "tol"),
     ({"tol": math.inf}, "tol")],
    ids=["kwargs2-tol", "kwargs3-tol", "kwargs4-tol", "inf-tol"],
)
def test_lanczos_rejects_unusable_inputs(kwargs, name):
    h = ed.build_sector(LatticeSpec(1, 8)).h.at(1.0)
    with pytest.raises(ValueError, match=name):
        ed.lanczos_ground(h, **kwargs)


def test_polarized_sector_energy():
    # all spins up: only the diagonal Ising term contributes
    lat = build_lattice(LatticeSpec(1, 6))
    basis = ed.enumerate_basis(6, 3.0)
    h = ed.build_hamiltonian(lat, basis).at(1.8)
    assert h.dimension == 1
    assert dense_matrix(h)[0, 0] == pytest.approx(1.8 * lat.n_bonds * 0.25, abs=1e-14)


@settings(max_examples=15, deadline=None)
@given(delta=st.floats(-2.0, 3.0, allow_nan=False))
def test_lanczos_matches_dense_random_delta(delta):
    h = ed.build_sector(LatticeSpec(1, 6)).h.at(delta)
    assert ed.lanczos_ground(h).energy == pytest.approx(
        dense_ground_oracle(h).energy, abs=1e-9
    )


# ------------------------------------------- exact oracles past the dense limit


def _free_fermion_chain(n_sites: int) -> tuple[float, float]:
    """E0 and Gzz of the periodic XX chain (delta = 0) at half filling.

    Jordan-Wigner (Lieb, Schultz & Mattis 1961) maps H_xy to hopping 1/2,
    single-particle levels cos k. N/2 fermions see periodic k for odd N/2
    and antiperiodic k for even N/2; the ground state fills the N/2 lowest
    levels, and Wick's theorem gives Gzz = -|G(1)|^2 with
    G(r) = <c+_i c_(i+r)>.
    """
    n_f = n_sites // 2
    shift = 0.0 if n_f % 2 else 0.5
    k = 2 * np.pi * (np.arange(n_sites) + shift) / n_sites
    filled = k[np.argsort(np.cos(k))[:n_f]]
    g1 = np.sum(np.exp(1j * filled)) / n_sites
    return float(np.sum(np.cos(filled))), -abs(g1) ** 2


@pytest.mark.parametrize("linear", [4, 6, 8, 10, 12, 14, 16, 18, 20, 22])
def test_xx_chain_energy_matches_free_fermions(linear):
    # up to the 705,432-state sector of `xxzent ed --size 22` (352,716 per
    # parity), which no other test checks independently
    from xxzent import entanglement

    e0, gzz = _free_fermion_chain(linear)
    sector = ed.build_sector(LatticeSpec(1, linear))
    gs = ed.lanczos_ground(sector.h.at(0.0))
    assert gs.energy == pytest.approx(e0, abs=1e-10)
    g = entanglement.operator_bond_correlators(gs, sector.h, sector.lattice)
    assert g.gzz == pytest.approx(gzz, abs=1e-10)  # the Ising part of E0 at delta = 0


def test_xx_chain_correlators_match_free_fermions():
    # 16 sites, 12,870 states: past the dense oracle
    from xxzent import entanglement

    e0, gzz = _free_fermion_chain(16)
    sector = ed.build_sector(LatticeSpec(1, 16))
    assert len(sector.basis) > DENSE_DIM_LIMIT
    gs = ed.lanczos_ground(sector.h)
    g = entanglement.mean_bond_correlators(gs, sector)
    assert g.gzz == pytest.approx(gzz, abs=1e-10)
    gxx = e0 / (2 * sector.lattice.n_bonds)  # E0 = N_B (Gxx + Gyy), Gxx = Gyy
    # the M = 0 two-site block: z = 2 Gxx, u+ = u- = 1/4 + Gzz
    c0 = 2 * max(0.0, 2 * abs(gxx) - (0.25 + gzz))
    assert c0 > 0
    assert entanglement.concurrence_corr(g) == pytest.approx(c0, abs=1e-10)


MARSHALL_SPECS = [LatticeSpec(1, n) for n in (4, 6, 8, 10, 12)] + [
    LatticeSpec(1, 8, periodic=False), LatticeSpec(2, 2), LatticeSpec(2, 4),
]


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize(
    "spec", MARSHALL_SPECS,
    ids=lambda s: f"d{s.dimension}L{s.linear_size}{'' if s.periodic else 'open'}",
)
def test_marshall_sign_and_flip_parity(spec):
    # H_xy > 0 on a bipartite lattice: rotating one sublattice by pi about z
    # makes every off-diagonal element negative, so the M = 0 ground state
    # is a nondegenerate Perron vector up to the Marshall sign (-1)^(up
    # spins on B), and the spin flip acts on it as (-1)^(N/2). So the
    # sector of that parity holds the lowest level of the full M = 0 block,
    # strictly below the other parity's
    from xxzent import entanglement

    sector = ed.build_sector(spec)
    basis, lattice = sector.basis, sector.lattice
    assert basis.parity == (-1) ** (lattice.n_sites // 2)
    full = parity_block(sector, None)
    other = parity_block(sector, -basis.parity)
    up_on_b = sum(basis.bit(s).astype(np.int64) for s in range(lattice.n_sites)
                  if lattice.sublattice[s])
    marshall = 1 - 2 * (up_on_b % 2)
    for delta in (-0.5, 0.0, 0.5, 1.0, 2.0):
        gs = ed.lanczos_ground(sector.h.at(delta))
        assert gs.energy == pytest.approx(ed.lanczos_ground(full.at(delta)).energy, abs=1e-9)
        assert gs.energy < ed.lanczos_ground(other.at(delta)).energy - 1e-3, delta
        rotated = marshall * basis.expand(gs.vector)
        rotated *= np.sign(rotated[np.argmax(np.abs(rotated))])
        assert rotated.min() > 0, delta
        for bond in lattice.bonds:
            rdm = entanglement.two_site_rdm(gs, basis, bond.i, bond.j)
            assert rdm.u_plus == pytest.approx(rdm.u_minus, abs=1e-9), delta
            assert rdm.w1 == pytest.approx(rdm.w2, abs=1e-9), delta


GROUND_SPECS = [LatticeSpec(1, n) for n in (2, 4, 6, 8, 10, 12, 14)] + [
    LatticeSpec(2, 2), LatticeSpec(3, 2), LatticeSpec(2, 4),
]


def _unit_translation(states: np.ndarray, spec: LatticeSpec, axis: int) -> np.ndarray:
    """Each configuration moved one site along axis, bit by bit."""
    shape = (spec.linear_size,) * spec.dimension
    moved = np.zeros_like(states)
    for site in range(spec.n_sites):
        coords = list(np.unravel_index(site, shape))
        coords[axis] = (coords[axis] + 1) % spec.linear_size
        target = np.uint64(np.ravel_multi_index(coords, shape))
        moved |= ((states >> np.uint64(site)) & np.uint64(1)) << target
    return moved


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("delta", [-0.99, 0.0, 0.5, 1.0, 3.0, 1e4])
@pytest.mark.parametrize("spec", GROUND_SPECS, ids=_spec_id)
def test_ground_sector_holds_the_parity_ground_state(spec, delta):
    # Marshall's sign rule: the ground state is (-1)^(up spins on A) times a
    # positive vector, and a unit translation swaps the sublattices, so its
    # eigenvalue is (-1)^(N/2) like the flip parity's. The orbits of both
    # then hold the lowest level of the parity block, k = 0 or k = pi
    from xxzent import entanglement, verify

    parity, ground = ed.build_sector(spec), ed.build_ground_sector(spec)
    basis = ground.basis
    assert basis.sizes.sum() == len(basis)  # no orbit is lost to its characters
    h = ground.h.at(delta)
    assert abs(h.offdiag - h.offdiag.T).max() <= 1e-15
    gs, ref = ed.lanczos_ground(h), ed.lanczos_ground(parity.h.at(delta))
    assert abs(gs.energy - ref.energy) <= gs.tolerance + ref.tolerance
    g = entanglement.mean_bond_correlators(gs, ground)
    g_ref = entanglement.mean_bond_correlators(ref, parity)
    assert abs(g.gxx - g_ref.gxx) <= verify.ROUTE_TOL
    assert abs(g.gzz - g_ref.gzz) <= verify.ROUTE_TOL
    psi = basis.expand(gs.vector)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
    sign = (-1) ** (spec.n_sites // 2)
    for axis in range(spec.dimension):
        # T psi = sign psi reads psi(s) = sign psi(T s)
        moved = basis.index_of_many(_unit_translation(basis.states, spec, axis))
        np.testing.assert_array_equal(psi[moved], sign * psi)


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("spec", GROUND_SPECS[:-1], ids=_spec_id)
def test_ground_sector_operator_is_the_projected_full_block(spec):
    # the columns of P, expand of each unit vector, are orthonormal, and the
    # assembled operator is P^T H P of the full M = 0 block, entry by entry
    ground = ed.build_ground_sector(spec)
    full = parity_block(ed.build_sector(spec), None)
    n = ground.h.dimension
    p = np.column_stack([ground.basis.expand(e) for e in np.eye(n)])
    np.testing.assert_allclose(p.T @ p, np.eye(n), atol=1e-15)
    for delta in (0.0, 1.3):
        projected = p.T @ (sparse_matrix(full.at(delta)) @ p)
        np.testing.assert_allclose(dense_matrix(ground.h.at(delta)), projected, atol=1e-14)


def test_square44_ground_sector_has_441_representatives():
    ground = ed.build_ground_sector(LatticeSpec(2, 4))
    assert (ground.h.dimension, len(ground.basis), ground.h.offdiag.nnz) == (441, 12870, 6680)


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("spec", GROUND_SPECS, ids=_spec_id)
def test_ground_sector_merges_duplicate_hops(spec):
    # translations reach one orbit from one row more than once; each row's
    # columns must be strictly increasing, read from the arrays themselves
    offdiag = ed.build_ground_sector(spec).h.offdiag
    rows = np.repeat(np.arange(offdiag.shape[0]), np.diff(offdiag.indptr))
    same_row = rows[1:] == rows[:-1]
    assert np.all(np.diff(offdiag.indices)[same_row] > 0)


def test_ground_sector_finds_its_orbits_once(monkeypatch):
    # the ground sector's orbits come from one pass that applies each group
    # element only to the states still in the running: only the first of the
    # 31 other elements sees all 12,870 M = 0 states, and the orbits, their
    # sizes and the orbit map together take under a quarter of the images
    # that one canonical pass over the basis (31 x 12,870) would
    mapped = []
    act = ed.SectorBasis._act

    def counting(self, g, configs):
        mapped.append(len(configs))
        return act(self, g, configs)

    monkeypatch.setattr(ed.SectorBasis, "_act", counting)
    ground = ed.build_ground_sector(LatticeSpec(2, 4))
    assert len(ground.basis) == 12870
    assert mapped.count(12870) == 1
    assert sum(mapped) < 31 * 12870 / 4


def _site_images(spec: LatticeSpec | None, n_sites: int, parity: int | None,
                 half_shift: int | None = None):
    """(site map, chi) of every element of the basis's group, with chi of a
    shift by k = parity^|k| and of the flip = parity: the reference group,
    made site by site from coordinates. With half_shift = sigma the shifts
    are 0 and L/2 along every axis, with chi = 1 and sigma."""
    shifts = [()] if spec is None else list(np.ndindex(*(spec.linear_size,) * spec.dimension))
    if half_shift is not None:
        shifts = [(0,) * spec.dimension, (spec.linear_size // 2,) * spec.dimension]
    shape = (spec.linear_size,) * spec.dimension if spec else None
    for k in shifts:
        if spec is None:
            sites = list(range(n_sites))
        else:
            sites = [int(np.ravel_multi_index(
                tuple((c + dk) % spec.linear_size for c, dk in zip(np.unravel_index(s, shape), k)),
                shape)) for s in range(n_sites)]
        shift_chi = (parity or 1) ** sum(k) if half_shift is None else half_shift ** any(k)
        for flip in (False, True) if parity is not None else (False,):
            yield sites, flip, (parity or 1) ** flip * shift_chi


def _reference_orbits(basis: ed.SectorBasis):
    """The orbit bookkeeping by brute force: every state's smallest image
    under every group element, moved bit by bit. A state whose stabilizer's
    characters sum to 0 has a null orbit: no row, index 0 and weight 0."""
    states, n = basis.states, basis.n_sites
    rep, chi, images = states.copy(), np.ones(len(states), dtype=np.int8), []
    for sites, flip, c in _site_images(basis.translations, n, basis.parity, basis.half_shift):
        image = np.zeros_like(states)
        for site, target in enumerate(sites):
            image |= ((states >> np.uint64(site)) & np.uint64(1)) << np.uint64(target)
        if flip:
            image ^= np.uint64((1 << n) - 1)
        images.append((image, c))
        less = image < rep
        rep[less], chi[less] = image[less], c
    live = sum(c * (image == states) for image, c in images) != 0
    own = (rep == states) & live
    reps = states[own]
    stabilizer = sum(image == states for image, _ in images)[own]
    sizes = (len(images) // stabilizer).astype(np.int16)
    index = np.where(live, np.searchsorted(reps, rep), 0)
    weight = np.zeros(len(states))
    weight[live] = chi[live] / np.sqrt(sizes[index[live]], dtype=float)
    return reps, sizes, index, weight


ORBIT_SPECS = [LatticeSpec(1, n, periodic=p) for n in (2, 4, 6, 8, 10, 12) for p in (True, False)]
ORBIT_SPECS += [LatticeSpec(2, 2), LatticeSpec(3, 2), LatticeSpec(2, 4), LatticeSpec(1, 16)]


def _orbit_blocks(spec: LatticeSpec) -> list[ed.SectorBasis]:
    """The M = 0 basis in each flip parity and with no flip, with and
    without the translations of a periodic lattice, and its half-shift
    sectors sigma = +-1 in the other parity (gap_basis's, empty ones
    included); the translations only where no orbit vanishes (the ground
    parity, or no flip)."""
    basis = ed.enumerate_basis(spec.n_sites)
    blocks = [replace(basis, parity=p) for p in (basis.parity, -basis.parity, None)]
    if spec.periodic:
        blocks += [replace(basis, parity=p, translations=spec) for p in (basis.parity, None)]
        blocks += [replace(basis, parity=-basis.parity, translations=spec, half_shift=sigma)
                   for sigma in (1, -1)]
    return blocks


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("spec", ORBIT_SPECS, ids=_spec_id)
def test_orbit_bookkeeping_matches_brute_force(spec):
    # representatives, sizes, the orbit map's keys (row, sign and the dropped
    # orbits' key), expand and project, bit for bit, null orbits dropped. On
    # the 4- and 8-site rings each half-shift sector has null orbits; on the
    # 2-site ring S times the flip fixes both states, so sigma = -1 is empty
    for block in _orbit_blocks(spec):
        reps, sizes, index, weight = _reference_orbits(block)
        assert np.array_equal(block.representatives, reps)
        assert np.array_equal(block.sizes, sizes) and block.sizes.dtype == sizes.dtype
        keys, live = block._orbit_map, weight != 0
        assert keys.dtype == np.int32 and keys.shape == (len(block),)
        assert np.array_equal(keys[live] >> 1, index[live])
        assert np.array_equal(keys[live] & 1, weight[live] < 0)
        assert np.all(keys[~live] == 2 * len(reps))
        if block.half_shift and spec in (LatticeSpec(1, 4), LatticeSpec(1, 8)):
            assert np.count_nonzero(~live) > 0
        if len(reps):
            rng = np.random.default_rng(5)
            v, x = rng.standard_normal(len(reps)), rng.standard_normal(len(block))
            v[0] = -abs(v[0])  # a dropped state's 0 * v[0] is then -0.0
            assert block.expand(v).tobytes() == (weight * v[index]).tobytes()
            assert block.project(x).tobytes() == np.bincount(index, weight * x, len(reps)).tobytes()
        else:
            assert spec.n_sites == 2 and block.half_shift == -1


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("spec", ORBIT_SPECS, ids=_spec_id)
def test_project_is_the_adjoint_of_expand(spec):
    # <expand v, x> = <v, project x> for any v over the orbits and x over the states
    rng = np.random.default_rng(8)
    for block in _orbit_blocks(spec):
        if len(block.representatives):
            v, x = rng.standard_normal(len(block.representatives)), rng.standard_normal(len(block))
            assert block.project(x).shape == v.shape
            assert abs(block.expand(v) @ x - v @ block.project(x)) <= 1e-12 * math.sqrt(len(x))


def test_project_refuses_a_vector_of_another_length():
    block = ed.gap_basis(replace(ed.enumerate_basis(8), translations=LatticeSpec(1, 8)))[0]
    assert len(block.project(np.ones(len(block)))) == len(block.representatives)
    for n in (len(block) - 1, len(block) + 1):
        with pytest.raises(ValueError, match="sector's states"):
            block.project(np.ones(n))


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("spec", [LatticeSpec(1, 4), LatticeSpec(1, 10), LatticeSpec(2, 4),
                                  LatticeSpec(1, 12, periodic=False)], ids=_spec_id)
def test_slices_change_no_number(spec, monkeypatch):
    # the sector-length passes and the assembly by slices of 7 states, rows or
    # entries give the same bits as one slice over everything
    lattice = build_lattice(spec)

    def outputs():
        ground = replace(ed.enumerate_basis(spec.n_sites),
                         translations=spec if spec.periodic else None)
        v = np.random.default_rng(9).standard_normal(len(ground.representatives))
        start = ed.staggered_guess(lattice, ground, v)
        out = [ground.representatives, start]
        for block in (ground, *ed.gap_basis(ground)):
            h = ed.build_hamiltonian(lattice, block)
            out += [block._orbit_map, block.project(start),
                    h.offdiag.indptr, h.offdiag.indices, h.offdiag.data, h.zz]
        return [a.tobytes() for a in out]

    whole = outputs()
    monkeypatch.setattr(ed, "SLICE", 7)
    assert outputs() == whole


@pytest.mark.parametrize("spec, gap", [(LatticeSpec(1, 18), True), (LatticeSpec(2, 4), False)],
                         ids=["d1L18-gap", "d2L4-ground"])
def test_assembly_holds_little_beyond_its_operator(spec, gap):
    # build_hamiltonian's peak above its input: the operator it returns, one
    # slice's key table and a few int32 arrays over the states (the orbit map
    # among them), with no nnz-long temporary beside the CSR
    lattice = build_lattice(spec)
    block = replace(ed.enumerate_basis(spec.n_sites), translations=spec)
    if gap:
        block = ed.gap_basis(block)[0]
    block.sizes  # the representatives and their orbit lengths, as gap_basis leaves them
    tracemalloc.start()
    try:
        h = ed.build_hamiltonian(lattice, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    operator = sum(a.nbytes for a in (h.offdiag.data, h.offdiag.indices, h.offdiag.indptr,
                                      h.zz, h.diagonal))
    table = min(ed.SLICE, h.dimension) * lattice.n_bonds * 4
    assert peak <= operator + table + 3 * 4 * len(block), (peak - operator - table) / len(block)


def test_orbit_bookkeeping_of_a_trivial_group():
    # M = 1 on the 4x4 square has no flip: without translations every state
    # is its own orbit
    basis = ed.enumerate_basis(16, 1.0)
    reps, sizes, index, weight = _reference_orbits(basis)
    assert np.array_equal(basis.representatives, basis.states)
    assert np.array_equal(reps, basis.states)
    assert np.array_equal(basis.sizes, sizes) and set(sizes.tolist()) == {1}
    v = np.random.default_rng(6).standard_normal(len(basis))
    assert np.array_equal(basis.expand(v), weight * v[index]) and np.array_equal(basis.expand(v), v)


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("n", range(2, 23))
def test_lin_index_matches_binary_search(n):
    # Lin's two-table index of a fixed-popcount set against np.searchsorted,
    # on every state and on every hop target that build_hamiltonian looks up
    # on a chain of n sites (in the flip-parity block at M = 0)
    for n_up in sorted({0, 1, n // 2, n // 2 + 1, n - 1, n} & set(range(n + 1))):
        basis = ed.enumerate_basis(n, n_up - n / 2)
        states = basis.states
        assert np.array_equal(basis.index_of_many(states), np.searchsorted(states, states))
        if n > 16 and 2 * n_up != n:
            continue  # the hop targets of the large sectors are checked at M = 0 only
        lattice = build_lattice(LatticeSpec(1, n, periodic=n % 2 == 0))
        reps = basis.representatives
        for bond in lattice.bonds:
            anti = ((reps >> np.uint64(bond.i)) ^ (reps >> np.uint64(bond.j))) & np.uint64(1) == 1
            targets = reps[anti] ^ np.uint64((1 << bond.i) | (1 << bond.j))
            assert np.array_equal(basis.index_of_many(targets), np.searchsorted(states, targets))


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("spec", [LatticeSpec(1, 8), LatticeSpec(1, 6, periodic=False),
                                  LatticeSpec(2, 2), LatticeSpec(2, 4)], ids=_spec_id)
def test_staggered_guess_is_the_projected_single_mode_state(spec):
    # w |GS>, w = S^z_pi + sum_i eps_i cos(2 pi x_i / L) n_i built site by site
    # on the full M = 0 block, and each gap block's start its projection by
    # the isometry of the block's expansions. On a periodic lattice S^z_pi |GS>
    # lies in one half-shift sector and the cos part in the other
    ground = ed.build_ground_sector(spec)
    basis, lattice = ground.basis, ground.lattice
    gs = ed.lanczos_ground(ground.h.at(0.8))
    psi, L = basis.expand(gs.vector), spec.linear_size
    coords = list(np.ndindex(*(L,) * spec.dimension))
    eps = [1 - 2 * a for a in lattice.sublattice]
    stag = sum(e * (basis.bit(site) - 0.5) for site, e in enumerate(eps)) * psi
    wave = sum(e * math.cos(2 * math.pi * coords[site][0] / L) * basis.bit(site)
               for site, e in enumerate(eps)) * psi
    start = ed.staggered_guess(lattice, basis, gs.vector)
    np.testing.assert_allclose(start, stag + wave, rtol=0, atol=1e-14)
    norms = []
    for block in ed.gap_basis(basis):
        isometry = np.column_stack([block.expand(e) for e in np.eye(len(block.representatives))])
        np.testing.assert_allclose(block.project(start), isometry.T @ start, rtol=0, atol=1e-14)
        norms.append([np.linalg.norm(isometry.T @ part) for part in (stag, wave)])
    norms = np.array(norms)
    assert norms[:, 0].max() > 0.1  # the single-mode state reaches the gap blocks
    if spec.periodic:
        assert np.all(np.sort(norms, axis=0)[0] < 1e-14)  # each part in one sector at most


def test_a_guess_of_zero_norm_leaves_the_random_start():
    # the gap runs take the guess; a level has no vector, so the run is
    # compared by its energy, iterations and Ritz estimate
    h = ed.build_sector(LatticeSpec(1, 10)).h.at(0.7)
    plain, zero = ed.lanczos_level(h), ed.lanczos_level(h, guess=np.zeros(h.dimension))
    assert (zero.energy, zero.iterations, zero.residual) == (
        plain.energy, plain.iterations, plain.residual)


def test_open_ground_sector_is_the_parity_block():
    # an open lattice has no translations: `xxzent ed` solves its ground
    # state in the flip-parity block itself
    spec = LatticeSpec(1, 8, periodic=False)
    ground, parity = ed.build_ground_sector(spec).h, ed.build_sector(spec).h
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(ground.offdiag, name), getattr(parity.offdiag, name))
    np.testing.assert_array_equal(ground.zz, parity.zz)
