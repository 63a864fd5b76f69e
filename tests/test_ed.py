"""Sector bases, Hamiltonian assembly, and the Lanczos ground-state solver.

The dense eigensolver acts as the in-package oracle for small sectors;
scipy's ARPACK wrapper is used once as a second, independent route for a
sector too large to diagonalize densely.
"""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_index_of_single_config():
    basis = ed.enumerate_basis(4, 0.0)
    assert basis.index_of(6) == 2
    assert basis.index_of(12) == 5


def test_bit_extraction():
    basis = ed.enumerate_basis(4, 0.0)
    # states [3,5,6,9,10,12]; site-0 occupation
    assert basis.bit(0).tolist() == [1, 1, 0, 1, 0, 0]
    assert basis.bit(3).tolist() == [0, 0, 0, 1, 1, 1]


# ---------------------------------------------------- Hamiltonian assembly


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
def test_two_site_block_explicit():
    # M=0 basis {up-down, down-up}: diagonal -delta/4, flip 1/2
    lat = build_lattice(LatticeSpec(1, 2))
    basis = ed.enumerate_basis(2, 0.0)
    for delta in (0.0, 0.7, 1.0, 2.5):
        h = ed.build_hamiltonian(lat, delta, basis).to_dense()
        expected = np.array([[-delta / 4, 0.5], [0.5, -delta / 4]])
        np.testing.assert_allclose(h, expected, atol=1e-15)


def test_hamiltonian_hermitian_and_sector_preserving():
    lat = build_lattice(LatticeSpec(1, 6))
    basis = ed.enumerate_basis(6, 1.0)
    h = ed.build_hamiltonian(lat, 0.8, basis)
    dense = h.to_dense()
    np.testing.assert_allclose(dense, dense.T, atol=1e-14)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(h.dimension)
    np.testing.assert_allclose(h.apply(v), dense @ v, atol=1e-12)


def test_hamiltonian_linear_in_delta():
    # H(delta) = offdiag + delta * diag(delta=1); off-diagonal part fixed
    lat = build_lattice(LatticeSpec(2, 4))
    basis = ed.enumerate_basis(16, 0.0)
    h1 = ed.build_hamiltonian(lat, 1.0, basis)
    h2 = ed.build_hamiltonian(lat, 2.5, basis)
    np.testing.assert_allclose(h2.diagonal, 2.5 * h1.diagonal, atol=1e-13)
    assert (h2.offdiag != h1.offdiag).nnz == 0


def test_offdiagonal_counts_antiparallel_bonds():
    # each off-diagonal entry is 1/2 per connecting bond
    lat = build_lattice(LatticeSpec(1, 4))
    basis = ed.enumerate_basis(4, 0.0)
    h = ed.build_hamiltonian(lat, 1.0, basis)
    off = h.offdiag.toarray()
    assert set(np.unique(off)) <= {0.0, 0.5}
    # state 5 = sites 0,2 up on a 4-ring: all four bonds antiparallel
    row = basis.index_of(5)
    assert np.count_nonzero(off[row]) == 4


# ------------------------------------------------------------- solvers


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
def test_dense_oracle_two_site():
    lat = build_lattice(LatticeSpec(1, 2))
    basis = ed.enumerate_basis(2, 0.0)
    h = ed.build_hamiltonian(lat, 1.0, basis)
    gs = ed.dense_ground_oracle(h)
    assert gs.energy == pytest.approx(-0.75, abs=1e-14)
    # singlet amplitudes up to the sign convention
    np.testing.assert_allclose(np.abs(gs.vector), np.sqrt(0.5), atol=1e-14)


def test_dense_oracle_refuses_large_sector():
    lat = build_lattice(LatticeSpec(2, 4))
    basis = ed.enumerate_basis(16, 0.0)
    h = ed.build_hamiltonian(lat, 1.0, basis)
    with pytest.raises(ValueError, match="dense oracle refused"):
        ed.dense_ground_oracle(h, max_dimension=4000)


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 1.7])
@pytest.mark.parametrize("spec", [LatticeSpec(1, 4), LatticeSpec(1, 8), LatticeSpec(1, 10)])
def test_lanczos_matches_dense(spec, delta):
    lat = build_lattice(spec)
    basis = ed.enumerate_basis(lat.n_sites, 0.0)
    h = ed.build_hamiltonian(lat, delta, basis)
    reference = ed.dense_ground_oracle(h)
    gs = ed.lanczos_ground(h)
    assert gs.energy == pytest.approx(reference.energy, abs=1e-10)
    overlap = abs(np.dot(gs.vector, reference.vector))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_lanczos_residual_below_tolerance():
    lat = build_lattice(LatticeSpec(2, 4))
    basis, gs = ed.solve_ground(lat, 1.0)
    h = ed.build_hamiltonian(lat, 1.0, basis)
    assert gs.residual <= ed.DEFAULT_TOL
    true_resid = np.linalg.norm(h.apply(gs.vector) - gs.energy * gs.vector)
    assert true_resid <= 10 * ed.DEFAULT_TOL


def test_lanczos_vs_arpack_large_sector():
    # independent route for a sector past the dense limit (dim 12870)
    lat = build_lattice(LatticeSpec(2, 4))
    basis = ed.enumerate_basis(16, 0.0)
    h = ed.build_hamiltonian(lat, 1.0, basis)
    w = spla.eigsh(h.as_sparse(), k=1, which="SA", tol=1e-12,
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
        _, gs = ed.solve_ground(build_lattice(spec), delta)
        assert gs.energy == pytest.approx(e0, abs=5e-11), spec


def test_sign_convention_and_determinism():
    lat = build_lattice(LatticeSpec(1, 8))
    _, a = ed.solve_ground(lat, 0.9)
    _, b = ed.solve_ground(lat, 0.9)
    assert np.array_equal(a.vector, b.vector)  # bit-for-bit with fixed seed
    assert a.vector[np.argmax(np.abs(a.vector))] > 0


def test_seed_changes_start_but_not_result():
    lat = build_lattice(LatticeSpec(1, 8))
    _, a = ed.solve_ground(lat, 1.3, seed=1234)
    _, b = ed.solve_ground(lat, 1.3, seed=99)
    assert a.energy == pytest.approx(b.energy, abs=1e-10)
    np.testing.assert_allclose(a.vector, b.vector, atol=1e-7)


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
def test_breakdown_terminates_exactly():
    # dim-2 sector: Krylov space exhausts after two steps
    lat = build_lattice(LatticeSpec(1, 2))
    basis, gs = ed.solve_ground(lat, 1.0)
    assert gs.energy == pytest.approx(-0.75, abs=1e-13)


def test_max_iter_exhaustion_raises_with_best():
    lat = build_lattice(LatticeSpec(2, 4))
    basis = ed.enumerate_basis(16, 0.0)
    h = ed.build_hamiltonian(lat, 1.0, basis)
    with pytest.raises(ed.LanczosError) as info:
        ed.lanczos_ground(h, max_iter=5)
    best = info.value.best
    assert best is not None
    assert best.energy > -11.228483208429 - 1e-9  # variational from above


def test_gap_four_ring():
    lat = build_lattice(LatticeSpec(1, 4))
    h = ed.build_hamiltonian(lat, 1.0, ed.enumerate_basis(4, 0.0))
    gs = ed.lanczos_ground(h, n_low=2)
    assert gs.energy == pytest.approx(-2.0, abs=1e-12)
    assert gs.energy + gs.gap == pytest.approx(-1.0, abs=1e-12)
    assert gs.gap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("delta", [-1.5, 0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "spec, m",
    [(LatticeSpec(1, 4), 0.0), (LatticeSpec(1, 8), 0.0), (LatticeSpec(1, 10), 0.0),
     (LatticeSpec(1, 7, periodic=False), 0.5)],
)
def test_gap_lanczos_pair_matches_dense(spec, m, delta):
    # the two-pair Lanczos run against a full dense spectrum of the same sector
    lat = build_lattice(spec)
    h = ed.build_hamiltonian(lat, delta, ed.enumerate_basis(lat.n_sites, m))
    d0, d1 = np.linalg.eigvalsh(h.to_dense())[:2]
    gs = ed.lanczos_ground(h, m=m, n_low=2)
    assert gs.energy == pytest.approx(d0, abs=1e-9)
    assert gs.gap == pytest.approx(d1 - d0, abs=1e-8)


def test_lanczos_ground_returns_a_ground_state():
    lat = build_lattice(LatticeSpec(1, 8))
    h = ed.build_hamiltonian(lat, 1.0, ed.enumerate_basis(8, 0.0))
    one = ed.lanczos_ground(h)
    two = ed.lanczos_ground(h, n_low=2)
    assert isinstance(one, ed.GroundState) and isinstance(two, ed.GroundState)
    assert math.isnan(one.gap)
    assert two.gap > 0
    assert two.energy == pytest.approx(one.energy, abs=1e-10)


def test_gap_dimension_one_sector_raises():
    lat = build_lattice(LatticeSpec(1, 4))
    h = ed.build_hamiltonian(lat, 1.0, ed.enumerate_basis(4, 2.0))  # fully polarized
    with pytest.raises(ed.SectorError):
        ed.lanczos_ground(h, m=2.0, n_low=2)


@pytest.mark.parametrize(
    "kwargs, name",
    [({"max_iter": 0}, "max_iter"), ({"max_iter": -3}, "max_iter"),
     ({"tol": 0.0}, "tol"), ({"tol": -1.0}, "tol"), ({"tol": math.nan}, "tol")],
)
def test_lanczos_rejects_unusable_inputs(kwargs, name):
    lat = build_lattice(LatticeSpec(1, 8))
    h = ed.build_hamiltonian(lat, 1.0, ed.enumerate_basis(8, 0.0))
    with pytest.raises(ValueError, match=name):
        ed.lanczos_ground(h, **kwargs)


def test_polarized_sector_energy():
    # all spins up: only the diagonal Ising term contributes
    lat = build_lattice(LatticeSpec(1, 6))
    basis = ed.enumerate_basis(6, 3.0)
    h = ed.build_hamiltonian(lat, 1.8, basis)
    assert h.dimension == 1
    assert h.to_dense()[0, 0] == pytest.approx(1.8 * lat.n_bonds * 0.25, abs=1e-14)


@settings(max_examples=15, deadline=None)
@given(delta=st.floats(-2.0, 3.0, allow_nan=False))
def test_lanczos_matches_dense_random_delta(delta):
    lat = build_lattice(LatticeSpec(1, 6))
    basis = ed.enumerate_basis(6, 0.0)
    h = ed.build_hamiltonian(lat, delta, basis)
    assert ed.lanczos_ground(h).energy == pytest.approx(
        ed.dense_ground_oracle(h).energy, abs=1e-9
    )
