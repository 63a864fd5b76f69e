"""Smoke tests for scripts/: each study runs on small inputs and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT,
    )


def test_spinwave_convergence_script():
    proc = _run("spinwave_convergence.py", "--max-points-2d", "128", "--max-points-3d", "96")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("(N^-3 Richardson)") == 2  # the two 2D studies have two grids
    assert proc.stdout.count("(N^-4 Richardson)") == 1  # order read from three 3D grids


def test_reproduce_figures_script(tmp_path):
    proc = _run("reproduce_figures.py", "--outdir", str(tmp_path), "--ed-step", "0.5",
                "--sw-step", "0.5", "--kgrid-2d", "32", "--kgrid-3d", "16")
    assert proc.returncode == 0, proc.stderr
    for name in ("ed_2d_L4", "spinwave_d2", "spinwave_d3"):
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert len([r for r in rows if not r.startswith("#")]) == 6  # header + 5 deltas


def test_chain_extrapolation_script():
    proc = _run("chain_extrapolation.py", "--sizes", "4", "6", "8", "10")
    assert proc.returncode == 0, proc.stderr
    assert "extrapolated E0/N" in proc.stdout
