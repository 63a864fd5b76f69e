"""Two-site reduced density matrices, correlators, and concurrence routes.

Sector-based fast paths are compared against explicit full-Hilbert-space
partial traces (conftest helpers) and against the eigenvalue-based
concurrence formula on the assembled 4x4 matrix.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_ground_oracle,
    dense_pair_correlators,
    dense_two_site_rdm,
    embed_full_space,
    parity_block,
)
from xxzent import ed, entanglement as ent
from xxzent.lattice import LatticeSpec, build_lattice


# ----------------------------------------------------------- block object


def test_rdm_matrix_structure():
    rdm = ent.TwoSiteRDM(u_plus=0.1, w1=0.3, w2=0.4, u_minus=0.2, z=0.1 + 0.05j)
    m = rdm.as_matrix()
    assert m.shape == (4, 4)
    assert m[0, 0] == 0.1 and m[3, 3] == 0.2
    assert m[1, 2] == 0.1 + 0.05j and m[2, 1] == 0.1 - 0.05j
    assert m[0, 3] == 0 and m[3, 0] == 0  # Sz conservation kills the corners


def test_rdm_validation_rejects_bad_blocks():
    with pytest.raises(ValueError):
        ent.TwoSiteRDM(0.5, 0.3, 0.4, 0.2, 0j).validate()  # trace 1.4
    with pytest.raises(ValueError):
        ent.TwoSiteRDM(-0.1, 0.5, 0.4, 0.2, 0j).validate()
    with pytest.raises(ValueError):
        # |z| above sqrt(w1 w2) breaks positivity
        ent.TwoSiteRDM(0.1, 0.3, 0.4, 0.2, 0.5 + 0j).validate()


# ------------------------------------------------- against the dense trace


@pytest.mark.parametrize("delta", [0.0, 0.6, 1.0, 1.9])
@pytest.mark.parametrize(
    "spec,pairs",
    [
        (LatticeSpec(1, 4), [(0, 1), (0, 2), (1, 3)]),
        (LatticeSpec(1, 6, periodic=False), [(0, 1), (2, 3), (0, 5)]),
        (LatticeSpec(2, 2), [(0, 1), (0, 3)]),
    ],
)
def test_rdm_matches_dense_partial_trace(spec, pairs, delta):
    # the reference diagonalizes the full M = 0 block densely, so it checks
    # the parity reduction and SectorBasis.expand as well
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sector = ed.build_sector(spec)
    lat, basis = sector.lattice, sector.basis
    gs = ed.lanczos_ground(sector.h.at(delta))
    reference = dense_ground_oracle(parity_block(sector, None).at(delta))
    full = embed_full_space(reference.vector, replace(basis, parity=None))
    for i, j in pairs:
        rho_ref = dense_two_site_rdm(full, lat.n_sites, i, j)
        rho = ent.two_site_rdm(gs, basis, i, j)
        rho.validate()
        np.testing.assert_allclose(rho.as_matrix(), rho_ref, atol=1e-12)
        gfast = ent.correlators(gs, basis, i, j)
        gx, gy, gz = dense_pair_correlators(full, lat.n_sites, i, j)
        assert gfast.gxx == pytest.approx(gx, abs=1e-12)
        assert gfast.gyy == pytest.approx(gy, abs=1e-12)
        assert gfast.gzz == pytest.approx(gz, abs=1e-12)


def test_rdm_rejects_equal_sites(ring4):
    _, basis, gs = ring4
    with pytest.raises(ValueError):
        ent.two_site_rdm(gs, basis, 2, 2)


# ------------------------------------------------------- frozen references


def test_four_ring_isotropic_values(ring4):
    lattice, basis, gs = ring4
    g = ent.mean_bond_correlators(gs, basis, lattice)
    # SU(2) point: all three correlators equal, -1/6 per bond
    assert g.gzz == pytest.approx(-1.0 / 6.0, abs=1e-12)
    assert g.gxx == pytest.approx(g.gzz, abs=1e-12)
    assert ent.concurrence_corr(g) == pytest.approx(0.5, abs=1e-12)
    eps0 = gs.energy / lattice.n_bonds
    assert ent.concurrence_from_energy(eps0, g.gzz, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_two_site_singlet_is_maximally_entangled():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sector = ed.build_sector(LatticeSpec(1, 2))
    gs = ed.lanczos_ground(sector.h.at(1.0))
    rdm = ent.two_site_rdm(gs, sector.basis, 0, 1)
    assert ent.concurrence_block(rdm) == pytest.approx(1.0, abs=1e-12)
    assert ent.wootters_oracle(rdm.as_matrix()) == pytest.approx(1.0, abs=1e-12)


def test_square44_frozen_concurrence(square44_heisenberg):
    lattice, basis, gs = square44_heisenberg
    g = ent.mean_bond_correlators(gs, basis, lattice)
    assert g.gzz == pytest.approx(-0.116963366754, abs=1e-9)
    assert ent.concurrence_corr(g) == pytest.approx(0.201780200527, abs=1e-9)


def test_route_equivalence_square44(square44_heisenberg):
    lattice, basis, gs = square44_heisenberg
    bond = lattice.bonds[0]
    rdm = ent.two_site_rdm(gs, basis, bond.i, bond.j)
    g = ent.correlators(gs, basis, bond.i, bond.j)
    eps0 = gs.energy / lattice.n_bonds
    values = [
        ent.concurrence_block(rdm),
        ent.concurrence_corr(g),
        ent.concurrence_from_energy(eps0, ent.mean_bond_correlators(gs, basis, lattice).gzz, 1.0),
        ent.wootters_oracle(rdm.as_matrix()),
    ]
    assert max(values) - min(values) <= 1e-10


# --------------------------------------------------------- Wootters oracle


def _singlet_rho():
    psi = np.zeros(4)
    psi[1] = 1 / math.sqrt(2)
    psi[2] = -1 / math.sqrt(2)
    return np.outer(psi, psi)


def test_wootters_analytic_states():
    assert ent.wootters_oracle(_singlet_rho()) == pytest.approx(1.0, abs=1e-12)
    product = np.diag([0.0, 1.0, 0.0, 0.0])  # |up down>
    assert ent.wootters_oracle(product) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.2, 1 / 3, 0.5, 0.9])
def test_wootters_werner_family(p):
    rho = p * _singlet_rho() + (1 - p) * np.eye(4) / 4
    expected = max(0.0, (3 * p - 1) / 2)
    assert ent.wootters_oracle(rho) == pytest.approx(expected, abs=1e-12)


def test_wootters_rejects_nonstates():
    with pytest.raises(ValueError):
        ent.wootters_oracle(np.eye(4))  # trace 4
    bad = np.diag([0.8, 0.4, -0.1, -0.1])
    with pytest.raises(ValueError):
        ent.wootters_oracle(bad)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    r=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2 * math.pi),
)
def test_block_formula_matches_wootters(weights, r, phase):
    # random physical Sz-conserving two-site states
    total = sum(weights)
    u_plus, w1, w2, u_minus = (w / total for w in weights)
    z = r * math.sqrt(w1 * w2) * complex(math.cos(phase), math.sin(phase))
    rdm = ent.TwoSiteRDM(u_plus=u_plus, w1=w1, w2=w2, u_minus=u_minus, z=z)
    rdm.validate()
    # r -> 1 puts the state on the rank-deficient boundary where one
    # oracle eigenvalue hits 0; sqrt turns its O(eps) error into O(1e-8)
    assert ent.concurrence_block(rdm) == pytest.approx(
        ent.wootters_oracle(rdm.as_matrix()), abs=5e-8
    )


# ----------------------------------------------------------- corr variant


def test_concurrence_corr_bound_check():
    with pytest.raises(ValueError):
        ent.concurrence_corr(ent.BondCorrelators(gxx=0.3, gyy=0.3, gzz=0.0))


def test_concurrence_corr_zero_clamp():
    # weakly correlated pair: formula clamps at zero
    g = ent.BondCorrelators(gxx=0.01, gyy=0.01, gzz=0.01)
    assert ent.concurrence_corr(g) == 0.0


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "spec, m",
    [(LatticeSpec(2, 4), 0.0), (LatticeSpec(1, 8), 0.0), (LatticeSpec(1, 7, periodic=False), 0.5)],
)
def test_operator_bond_correlators_match_bond_loop(spec, m, delta):
    # the quadratic forms <H_xy>/(2 N_B) and <H_zz>/N_B are bond averages, so
    # they equal the bond-by-bond mean on periodic and open lattices alike;
    # delta = 0 pins Gzz to the delta-free H_zz
    lattice = build_lattice(spec)
    basis = ed.enumerate_basis(lattice.n_sites, m)
    h = ed.build_hamiltonian(lattice, basis).at(delta)
    gs = ed.lanczos_ground(h, m=m)
    quad = ent.operator_bond_correlators(gs, h, lattice)
    loop = ent.mean_bond_correlators(gs, basis, lattice)
    assert quad.gxx == pytest.approx(loop.gxx, abs=1e-12)
    assert quad.gyy == pytest.approx(loop.gyy, abs=1e-12)
    assert quad.gzz == pytest.approx(loop.gzz, abs=1e-12)


def test_mean_bond_correlators_translation_invariance(ring4):
    lattice, basis, gs = ring4
    per_bond = [ent.correlators(gs, basis, b.i, b.j) for b in lattice.bonds]
    mean = ent.mean_bond_correlators(gs, basis, lattice)
    for g in per_bond:
        assert g.gzz == pytest.approx(mean.gzz, abs=1e-12)
        assert g.gxx == pytest.approx(mean.gxx, abs=1e-12)
