"""Scans, derivative identities and extremum reports."""

import math

import numpy as np
import pytest

from xxzent import analysis, ed, entanglement
from xxzent.analysis import (
    ConcurrenceCurve,
    ScanSample,
    delta_grid,
    extremum_and_derivative,
    scan_ed,
    scan_spinwave,
    second_differences,
)
from xxzent.lattice import LatticeSpec


# ------------------------------------------------------------------ grids


def test_delta_grid_hits_endpoints_and_one():
    g = delta_grid(0.0, 2.0, 0.05)
    assert len(g) == 41
    assert g[0] == 0.0 and g[-1] == 2.0
    assert 1.0 in g.tolist()  # exact after rounding, not just close


def test_delta_grid_validation():
    with pytest.raises(ValueError):
        delta_grid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        delta_grid(1.0, 0.0, 0.1)


@pytest.mark.parametrize(
    "start, stop, step, match",
    [(math.nan, 1.0, 0.1, "finite"), (0.0, math.inf, 0.1, "finite"),
     (0.0, 1.0, math.nan, "finite"), (-math.inf, 1.0, 0.1, "finite"),
     (0.0, 2.0, 1e-12, "points"), (0.0, 2.0, 1e-7, "points"),
     (-1e308, 1e308, 1.0, "points")],
)
def test_delta_grid_refuses_before_allocating(start, stop, step, match, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(analysis.np, "arange", refuse)
    with pytest.raises(ValueError, match=match):
        delta_grid(start, stop, step)


def test_delta_grid_point_limit_is_inclusive():
    n = analysis.MAX_GRID_POINTS
    assert len(delta_grid(0.0, n - 1.0, 1.0)) == n
    with pytest.raises(ValueError, match="points"):
        delta_grid(0.0, float(n), 1.0)


def test_delta_grid_rejects_values_that_overflow_rounding():
    # np.round(x, 12) multiplies by 1e12, so |x| above ~1.8e296 becomes inf
    with pytest.raises(ValueError, match="overflow"):
        delta_grid(1e300, 1e300, 1.0)


def test_second_differences_quadratic_exact():
    x = np.linspace(0, 1, 11)
    vals = 3.0 - 2.0 * x + 5.0 * x**2
    d2 = second_differences(vals) / float(x[1] - x[0]) ** 2
    np.testing.assert_allclose(d2, 10.0, atol=1e-9)


# ------------------------------------------------------------------ curves


def _toy_curve(deltas, concs, engine="ed"):
    samples = tuple(
        ScanSample(float(d), float(c), -0.3, -0.1, -1.0) for d, c in zip(deltas, concs)
    )
    return ConcurrenceCurve(engine, "toy", samples)


def test_curve_requires_increasing_deltas():
    with pytest.raises(ValueError):
        _toy_curve([0.0, 0.5, 0.5], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        ConcurrenceCurve("magic", "toy", ())
    # scan_ed solves the union of its deltas, but samples them as given
    sector = ed.build_sector(LatticeSpec(1, 4))
    for deltas in ([0.5, 0.5, 1.0], [1.0, 0.5]):
        with pytest.raises(ValueError, match="strictly increasing"):
            scan_ed(sector, deltas)


def test_scan_ed_four_ring():
    # the model line names the solved sector's dimension: 2 orbits of the
    # ring's translations and flip, 3 states of its flip parity
    curve = scan_ed(ed.build_ground_sector(LatticeSpec(1, 4)), delta_grid(0.0, 2.0, 0.5))
    assert curve.engine == "ed"
    assert curve.provenance == "ed d=1 L=4 periodic m=0.0 dim=2 tol=1e-11 seed=1234"
    # where the residual floor exceeds DEFAULT_TOL, the threshold applied is recorded
    floored = scan_ed(ed.build_sector(LatticeSpec(1, 4)), delta_grid(1e4, 1e4, 1.0))
    assert floored.provenance == ("ed d=1 L=4 periodic m=0.0 dim=3 tol=1e-11 "
                                  "tol_applied=1.47e-10 seed=1234")
    assert floored.all_ok()
    assert curve.all_ok()
    assert len(curve.samples) == 5
    # energies match direct solves, peak sits at the isotropic point
    assert curve.samples[2].energy_total == pytest.approx(-2.0, abs=1e-11)
    assert int(np.argmax(curve.concurrences())) == 2
    assert curve.samples[2].concurrence == pytest.approx(0.5, abs=1e-11)


def test_scan_spinwave_matches_direct_evaluation():
    from xxzent import spinwave as sw
    from xxzent.entanglement import concurrence_from_energy

    g = sw.gamma_grid(2, 64)
    curve = scan_spinwave(g, [0.8, 1.0, 1.3])
    assert curve.engine == "spinwave"
    for sample in curve.samples:
        eps = sw.energy_per_site(sample.delta, g) / 2
        gzz = sw.gzz_per_bond(sample.delta, g)
        assert sample.concurrence == pytest.approx(
            concurrence_from_energy(eps, gzz, sample.delta), abs=1e-12
        )
        assert math.isnan(sample.energy_total)  # no finite total in the limit


def test_scan_spinwave_needs_two_or_three_dimensions():
    # a scan takes its zone from gamma_grid, and no zone exists outside
    # d = 2, 3: refuse instead of guessing one, with or without a size
    from xxzent import spinwave as sw

    for dimension in (1, 4):
        with pytest.raises(ValueError, match="spin-wave needs d = 2 or 3"):
            sw.gamma_grid(dimension)
    with pytest.raises(ValueError, match="spin-wave needs d = 2 or 3"):
        sw.gamma_grid(1, 8)


def test_scan_keeps_failed_samples_as_gaps(monkeypatch):
    calls = {"n": 0}
    original = ed.lanczos_ground

    def flaky(h, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ed.LanczosError("injected failure", best=None)
        return original(h, **kwargs)

    monkeypatch.setattr(ed, "lanczos_ground", flaky)
    curve = scan_ed(ed.build_sector(LatticeSpec(1, 4)), [0.5, 1.0, 1.5])
    assert not curve.all_ok()
    bad = curve.samples[1]
    assert not bad.ok
    assert math.isnan(bad.concurrence) and math.isnan(bad.energy_total)
    assert "injected failure" in bad.error
    assert curve.samples[0].ok and curve.samples[2].ok


def test_scan_ed_assembles_once(monkeypatch):
    # build_sector assembles the operator; the scan only re-points it
    calls = {"enumerate_basis": 0, "build_hamiltonian": 0}
    for name in calls:
        original = getattr(ed, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ed, name, counted)
    sector = ed.build_sector(LatticeSpec(1, 4))
    curve = scan_ed(sector, delta_grid(0.0, 2.0, 0.05))
    assert len(curve.samples) == 41 and curve.all_ok()
    assert calls == {"enumerate_basis": 1, "build_hamiltonian": 1}


# ------------------------------------------------------------- identities


def test_hellmann_feynman_residual_small():
    sector = ed.build_sector(LatticeSpec(1, 4))

    def energy(delta):
        return ed.lanczos_ground(sector.h.at(delta)).energy

    h = analysis.HF_STEP
    g = entanglement.mean_bond_correlators(ed.lanczos_ground(sector.h.at(1.0)), sector)
    r = analysis.hellmann_feynman_residual(energy(1.0 - h), energy(1.0 + h), g.gzz,
                                           sector.lattice.n_bonds)
    assert r < 1e-9
    # a Gzz off by 1e-6 per bond moves the residual by N_B * 1e-6
    off = analysis.hellmann_feynman_residual(energy(1.0 - h), energy(1.0 + h), g.gzz + 1e-6,
                                             sector.lattice.n_bonds)
    assert off == pytest.approx(sector.lattice.n_bonds * 1e-6, abs=1e-9)


def test_concavity_of_ed_energy():
    curve = scan_ed(ed.build_sector(LatticeSpec(1, 8)), delta_grid(0.0, 2.0, 0.1))
    d2 = analysis.concavity_check(curve)
    assert np.all(d2 <= 1e-10)
    assert d2.min() < -1e-5  # strictly concave somewhere, not just flat


def test_concavity_rejects_nonuniform_grid():
    c = _toy_curve([0.0, 0.1, 0.3], [0.1, 0.2, 0.1])
    with pytest.raises(ValueError):
        analysis.concavity_check(c)


# ---------------------------------------------------------------- extremum


def test_extremum_report_four_ring():
    curve = scan_ed(ed.build_sector(LatticeSpec(1, 4)), delta_grid(0.0, 2.0, 0.25))
    report = extremum_and_derivative(curve)
    assert report.delta_star == 1.0
    assert report.left_slope > 0 > report.right_slope
    assert report.cusp == pytest.approx(report.left_slope - report.right_slope, abs=1e-15)


def test_extremum_needs_one_in_grid():
    curve = scan_ed(ed.build_sector(LatticeSpec(1, 4)), [0.5, 0.75, 1.25])
    with pytest.raises(ValueError, match="delta = 1"):
        extremum_and_derivative(curve)


def test_extremum_needs_interior_one():
    curve = scan_ed(ed.build_sector(LatticeSpec(1, 4)), [0.5, 1.0])
    with pytest.raises(ValueError):
        extremum_and_derivative(curve)


def test_extremum_rejects_failed_samples():
    samples = (
        ScanSample(0.5, 0.3, -0.3, -0.1, -1.0),
        ScanSample(1.0, math.nan, math.nan, math.nan, math.nan, ok=False, error="x"),
        ScanSample(1.5, 0.3, -0.3, -0.1, -1.0),
    )
    with pytest.raises(ValueError, match="failed"):
        extremum_and_derivative(ConcurrenceCurve("ed", "toy", samples))
