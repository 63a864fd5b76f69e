"""Spin-wave branch energies, Bogoliubov factors, and derivative handling.

Frozen energy constants come from the convergence study in
scripts/spinwave_convergence.py (midpoint grids, error falling off as the
cube of the per-axis point count).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxzent import spinwave as sw
from xxzent.analysis import scan_spinwave

# per-site energies on the production grids, plus finer-grid converged values
E_SITE_D2_ISO = -0.657947416515705  # 512 points/axis
E_SITE_D2_ISO_CONVERGED = -0.657947420953
E_SITE_D3_ISO = -0.895736997939593  # 96 points/axis
E_SITE_D3_ISO_CONVERGED = -0.895737006498
E_SITE_D2_XX = -0.541908599748395  # delta = 0, planar branch, 512 points


# ------------------------------------------------------------ k-space grid


def test_bz_axis_midpoint_grid():
    k = sw.bz_axis(8)
    assert len(k) == 8
    assert np.all(k > -np.pi) and np.all(k < np.pi)
    np.testing.assert_allclose(np.diff(k), 2 * np.pi / 8, atol=1e-15)
    np.testing.assert_allclose(k, -k[::-1], atol=1e-15)  # symmetric pairs
    assert abs(np.cos(k).sum()) < 1e-13


def test_gamma_grid_strictly_inside_unit_interval():
    for d, n in ((2, 16), (3, 8)):
        g = sw.gamma_grid(d, n)
        assert g.shape == (n,) * d
        assert np.max(np.abs(g)) < 1.0  # midpoint shift avoids the zone corner
        assert abs(g.mean()) < 1e-13


# ------------------------------------------------------------- Bogoliubov


@settings(max_examples=100, deadline=None)
@given(xg=st.floats(-0.999, 0.999, allow_nan=False))
def test_bogoliubov_identities(xg):
    u, v = sw.bogoliubov_factors(xg)
    assert u * u - v * v == pytest.approx(1.0, abs=1e-11)
    assert 2 * u * v == pytest.approx(xg * (u * u + v * v), abs=1e-11)
    if xg != 0:
        assert math.copysign(1.0, v) == math.copysign(1.0, xg)


def test_bogoliubov_rejects_gapless_points():
    with pytest.raises(ValueError):
        sw.bogoliubov_factors(1.0)
    with pytest.raises(ValueError):
        sw.bogoliubov_factors(-1.0 + 1e-15)


# ---------------------------------------------------------- branch energies


def test_isotropic_energies_frozen():
    assert sw.default_k_points(2) == 512  # the production grids of the constants
    assert sw.default_k_points(3) == 96
    assert sw.energy_per_site(1.0, 2, 512) == pytest.approx(E_SITE_D2_ISO, abs=1e-12)
    assert sw.energy_per_site(1.0, 3, 96) == pytest.approx(E_SITE_D3_ISO, abs=1e-12)
    # production grids sit within 1e-7 of the converged fine-grid values
    assert abs(E_SITE_D2_ISO - E_SITE_D2_ISO_CONVERGED) < 1e-7
    assert abs(E_SITE_D3_ISO - E_SITE_D3_ISO_CONVERGED) < 1e-7


def test_xx_point_energy_frozen():
    assert sw.energy_per_site_planar(0.0, 2, 512) == pytest.approx(E_SITE_D2_XX, abs=1e-12)


def test_branch_formulas_agree_exactly_at_isotropy():
    for d, n in ((2, 128), (3, 32)):
        ei = sw.energy_per_site_ising(1.0, d, n)
        ep = sw.energy_per_site_planar(1.0, d, n)
        assert ei == pytest.approx(ep, abs=1e-14)


def test_grid_refinement_cubic_convergence():
    # midpoint quadrature error shrinks by about 8x per grid doubling
    e = [sw.energy_per_site(1.0, 2, n) for n in (64, 128, 256)]
    d1, d2 = abs(e[1] - e[0]), abs(e[2] - e[1])
    assert d2 < d1 / 6.0


def test_branch_domain_enforced():
    with pytest.raises(ValueError):
        sw.energy_per_site_ising(0.9, 2, 64)
    with pytest.raises(ValueError):
        sw.energy_per_site_planar(1.1, 2, 64)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        sw.energy_per_site(-0.5, 2, 64)


def test_large_delta_asymptotics():
    # classical Neel limit: both energy slope and level approach -1/4 per bond
    assert sw.energy_per_bond(50.0, 2, 256) / 50.0 == pytest.approx(-0.25, abs=5e-5)
    assert sw.gzz_per_bond(50.0, 2, 256) == pytest.approx(-0.25, abs=5e-5)


def test_planar_energy_finite_and_negative_everywhere():
    for delta in np.linspace(0.0, 1.0, 21):
        e = sw.energy_per_site_planar(float(delta), 2, 64)
        assert np.isfinite(e) and e < 0


# --------------------------------------------------------------- derivative


def test_gzz_frozen_value():
    assert sw.gzz_per_bond(1.5, 2, 512, h=1e-4) == pytest.approx(-0.215076961297, abs=1e-9)


def test_gzz_step_insensitive():
    a = sw.gzz_per_bond(1.5, 2, 256, h=1e-3)
    b = sw.gzz_per_bond(1.5, 2, 256, h=1e-4)
    assert a == pytest.approx(b, abs=2e-6)


def test_gzz_one_sided_at_isotropy():
    left = sw.gzz_per_bond(1.0, 2, 512, side="left")
    right = sw.gzz_per_bond(1.0, 2, 512, side="right")
    assert left == pytest.approx(-0.13689233, abs=1e-6)
    assert right == pytest.approx(-0.05518923, abs=1e-6)
    # the slope itself jumps at delta = 1; order matters
    assert right - left > 0.05


def test_gzz_side_auto_uses_right_branch_at_one():
    auto = sw.gzz_per_bond(1.0, 2, 256)
    right = sw.gzz_per_bond(1.0, 2, 256, side="right")
    assert auto == right


def test_gzz_rejects_wrong_branch():
    with pytest.raises(ValueError):
        sw.gzz_per_bond(1.5, 2, 64, side="left")
    with pytest.raises(ValueError):
        sw.gzz_per_bond(0.5, 2, 64, side="ising")
    with pytest.raises(ValueError):
        sw.gzz_per_bond(0.5, 2, 64, h=0.6)  # no stencil fits the planar window
    with pytest.raises(ValueError):
        sw.gzz_per_bond(0.5, 2, 64, side="sideways")


# -------------------------------------------------------------- concurrence
# C(delta) comes from the branch energy and Gzz through scan_spinwave


def test_concurrence_peak_values_frozen():
    c2 = scan_spinwave(2, [1.0], k_points=512).samples[0].concurrence
    c3 = scan_spinwave(3, [1.0], k_points=96).samples[0].concurrence
    assert c2 == pytest.approx(0.157947416515705, abs=1e-9)
    assert c3 == pytest.approx(0.097157998626396, abs=1e-9)


def test_concurrence_positive_and_decaying_past_peak():
    values = scan_spinwave(2, [1.0, 1.5, 2.0, 3.0, 6.0], k_points=128).concurrences().tolist()
    assert all(v > 0 for v in values)
    assert values == sorted(values, reverse=True)


def test_concurrence_peak_dominates_neighbors():
    c = scan_spinwave(2, [0.9, 1.0, 1.1], k_points=128).concurrences()
    assert c[1] > c[0] and c[1] > c[2]
