"""Spin-wave branch energies, Bogoliubov factors, and derivative handling.

Frozen energy constants come from the convergence study in
scripts/spinwave_convergence.py (midpoint grids, error falling off as
N^-(d+1) in the per-axis point count N: N^-3 for d = 2, N^-4 for d = 3).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_gamma_grid, full_zone
from xxzent import spinwave as sw
from xxzent.analysis import scan_spinwave
from xxzent.verify import check_branch_continuity

# per-site energies on the production grids, plus finer-grid converged values
E_SITE_D2_ISO = -0.657947416515705  # 512 points/axis
E_SITE_D2_ISO_CONVERGED = -0.657947420953
E_SITE_D3_ISO = -0.895736997939593  # 96 points/axis
E_SITE_D3_ISO_CONVERGED = -0.895737005927
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
    # the wedge of sorted indices over the ceil(n/2) half axis
    for d, n in ((2, 16), (3, 8), (2, 7), (3, 9), (2, 512), (3, 96), (2, 1024), (3, 192)):
        g = sw.gamma_grid(d, n)
        assert g.dimension == d and g.k_points == n
        assert g.gamma.ndim == 1 and g.gamma.shape == g.multiplicity.shape
        assert g.gamma.size == math.comb((n + 1) // 2 + d - 1, d)
        assert g.multiplicity.dtype.kind == "i" and g.multiplicity.min() >= 1
        assert int(g.multiplicity.sum()) == n**d
        # an even midpoint grid avoids both k = 0 and the zone corner; an odd one holds k = 0
        assert (np.max(np.abs(g.gamma)) < 1.0) == (n % 2 == 0)
        assert abs(g.mean(g.gamma)) < 1e-13
    # production and cusp-doubling sizes
    assert [sw.gamma_grid(d, n).gamma.size for d, n in ((3, 96), (2, 512), (3, 192), (2, 1024))] == [
        19_600, 32_896, 152_096, 131_328
    ]


def _planar_term(delta, g):
    x, y = (1.0 + delta) / 2.0, (1.0 - delta) / 2.0
    return np.sqrt(np.clip((1.0 + y * g) ** 2 - (x * g) ** 2, 0.0, None)) - (1.0 + y * g)


def _ising_term(delta, g):
    return np.sqrt(np.clip(1.0 - (g / delta) ** 2, 0.0, None)) - 1.0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 7, 8, 16, 33])
def test_wedge_matches_full_grid(d, n):
    # every integrand depends on k only through gamma, so the weighted wedge
    # sum equals the full-grid average up to summation order
    zone, g = sw.gamma_grid(d, n), full_gamma_grid(d, n)
    integrands = [lambda v: v**2, lambda v: v**4, np.abs]
    for delta in (0.0, 0.5, 1.0, 2.0):
        integrands.append(lambda v, t=delta: _planar_term(min(t, 1.0), v))
        integrands.append(lambda v, t=delta: _ising_term(max(t, 1.0), v))
    for f in integrands:
        assert abs(zone.mean(f(zone.gamma)) - f(g).mean()) <= 1e-15
    full = full_zone(d, n)
    for delta in (0.0, 0.5, 1.0, 2.0):
        assert abs(sw.energy_per_site(delta, zone) - sw.energy_per_site(delta, full)) <= 1e-15
        assert abs(sw.gzz_per_bond(delta, zone) - sw.gzz_per_bond(delta, full)) <= 1e-11


@pytest.mark.parametrize("d, n", [(3, 96), (2, 512), (3, 192), (2, 1024)])
def test_zone_mean_is_within_three_ulp_of_the_exact_sum(d, n, monkeypatch):
    # the wedge sum is a pairwise sum; a straight loop or a BLAS dot, whose
    # split depends on the thread count, drifts further from the exact sum
    zone = sw.gamma_grid(d, n)
    worst = []

    def checked_mean(self, f):
        got = mean(self, f)
        exact = math.fsum(self.multiplicity * f) / n**d
        worst.append(abs(got - exact) / np.spacing(abs(exact)))
        return got

    mean = sw.ZoneGrid.mean
    monkeypatch.setattr(sw.ZoneGrid, "mean", checked_mean)
    for delta in np.linspace(0.0, 3.0, 61):  # both branches' integrands
        sw.energy_per_site(float(delta), zone)
    assert len(worst) == 61 and max(worst) <= 3


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
    assert sw.DEFAULT_K_POINTS == {2: 512, 3: 96}  # the production grids of the constants
    e2 = sw.energy_per_site(1.0, sw.gamma_grid(2, 512))
    e3 = sw.energy_per_site(1.0, sw.gamma_grid(3, 96))
    assert e2 == pytest.approx(E_SITE_D2_ISO, abs=1e-12)
    assert e3 == pytest.approx(E_SITE_D3_ISO, abs=1e-12)
    # production grids sit within 1e-7 of the converged fine-grid values
    assert abs(E_SITE_D2_ISO - E_SITE_D2_ISO_CONVERGED) < 1e-7
    assert abs(E_SITE_D3_ISO - E_SITE_D3_ISO_CONVERGED) < 1e-7


def test_xx_point_energy_frozen():
    e = sw.energy_per_site_planar(0.0, sw.gamma_grid(2, 512))
    assert e == pytest.approx(E_SITE_D2_XX, abs=1e-12)


def test_branch_formulas_agree_exactly_at_isotropy():
    for d, n in ((2, 128), (3, 32)):
        g = sw.gamma_grid(d, n)
        ei = sw.energy_per_site_ising(1.0, g)
        ep = sw.energy_per_site_planar(1.0, g)
        assert ei == pytest.approx(ep, abs=1e-14)


def test_grid_refinement_cubic_convergence():
    # midpoint quadrature error shrinks by about 8x per grid doubling
    e = [sw.energy_per_site(1.0, sw.gamma_grid(2, n)) for n in (64, 128, 256)]
    d1, d2 = abs(e[1] - e[0]), abs(e[2] - e[1])
    assert d2 < d1 / 6.0


def test_branch_domain_enforced():
    g = sw.gamma_grid(2, 64)
    with pytest.raises(ValueError):
        sw.energy_per_site_ising(0.9, g)
    with pytest.raises(ValueError):
        sw.energy_per_site_planar(1.1, g)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        sw.energy_per_site(-0.5, g)


def test_large_delta_asymptotics():
    # classical Neel limit: both energy slope and level approach -1/4 per bond
    g = sw.gamma_grid(2, 256)
    assert sw.energy_per_site(50.0, g) / g.dimension / 50.0 == pytest.approx(-0.25, abs=5e-5)
    assert sw.gzz_per_bond(50.0, g) == pytest.approx(-0.25, abs=5e-5)


def test_planar_energy_finite_and_negative_everywhere():
    g = sw.gamma_grid(2, 64)
    for delta in np.linspace(0.0, 1.0, 21):
        e = sw.energy_per_site_planar(float(delta), g)
        assert np.isfinite(e) and e < 0


# --------------------------------------------------------------- derivative


def test_gzz_frozen_value():
    g = sw.gamma_grid(2, 512)
    assert sw.gzz_per_bond(1.5, g, h=1e-4) == pytest.approx(-0.215076961297, abs=1e-9)


def test_gzz_step_insensitive():
    g = sw.gamma_grid(2, 256)
    a = sw.gzz_per_bond(1.5, g, h=1e-3)
    b = sw.gzz_per_bond(1.5, g, h=1e-4)
    assert a == pytest.approx(b, abs=2e-6)


def test_gzz_one_sided_at_isotropy():
    # delta = 1 takes the Ising forward stencil; just below it the planar
    # backward stencil gives the left slope
    g = sw.gamma_grid(2, 512)
    left = sw.gzz_per_bond(1.0 - 1e-9, g)
    right = sw.gzz_per_bond(1.0, g)
    assert left == pytest.approx(-0.13689233, abs=1e-6)
    assert right == pytest.approx(-0.05518923, abs=1e-6)
    # the slope itself jumps at delta = 1; order matters
    assert right - left > 0.05


def test_gzz_rejects_wrong_branch():
    g = sw.gamma_grid(2, 64)
    with pytest.raises(ValueError, match="too large for the planar branch"):
        sw.gzz_per_bond(0.5, g, h=0.6)  # no stencil fits the planar window
    with pytest.raises(ValueError, match="delta must be >= 0"):
        sw.gzz_per_bond(-0.5, g)


def test_one_zone_grid_per_scan_and_per_dimension(monkeypatch):
    # the grid is delta-independent: a scan builds it once for all its
    # points, the branch-continuity check once per dimension for both branches
    shapes = []
    original = sw.gamma_grid

    def counted(dimension, k_points):
        shapes.append((dimension, k_points))
        return original(dimension, k_points)

    monkeypatch.setattr(sw, "gamma_grid", counted)
    curve = scan_spinwave(2, np.linspace(0.0, 2.0, 9), k_points=32)
    assert len(curve.samples) == 9
    assert shapes == [(2, 32)]
    shapes.clear()
    rows = check_branch_continuity(k_points=16)
    assert shapes == [(2, 16), (3, 16)]
    assert all(r.passed for r in rows)


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
