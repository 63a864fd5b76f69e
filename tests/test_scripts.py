"""Smoke tests for scripts/ and the README: each study runs on small inputs
and exits 0, and the README's Python API example gives the numbers it states."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from xxzent import cli

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str, unset: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(ROOT / "src")
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
    assert "warning" not in proc.stdout
    # three sizes fix a quadratic in 1/L exactly, with no degrees of freedom left
    proc = _run("chain_extrapolation.py", "--sizes", "4", "6", "8", "--degree", "2")
    assert proc.returncode == 0, proc.stderr
    assert "warning: no degrees of freedom left" in proc.stdout
    # one distinct size cannot fix a quadratic, nor can any set a negative
    # degree; an odd ring is refused before any size is solved
    for args in (["--sizes", "8", "8"], ["--degree", "-1"], ["--sizes", "7", "8", "9", "10"]):
        proc = _run("chain_extrapolation.py", *args)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout == ""


def test_lanczos_battery_script():
    proc = _run("lanczos_battery.py", "--lattices", "d1L8", "d1L9open", "d2L2",
                "--deltas", "-1.5", "0", "1e6", "--tols", "1e-11", "1e-14")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # d1L8 and d2L2 in the ground parity's block, their ground sector and
    # the two gap sectors, d1L9open at M = 1/2: 9 blocks x 3 deltas x 2 tols
    assert proc.stdout.splitlines()[-1] == "54 solves, 0 failed"


def test_lanczos_battery_refuses_unusable_tols():
    # lanczos_ground refuses both; the script rejects them as it parses
    for tol in ("inf", "0"):
        proc = _run("lanczos_battery.py", "--lattices", "d1L4", "--tols", tol)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "argument --tols: must be finite and > 0" in proc.stderr


def test_stage_times_script(capsys):
    # unpinned, as from a shell: the script imports xxzent.cli, which sets
    # the one BLAS thread, before numpy loads
    proc = _run("stage_times.py", "--repeat", "2", "--dim", "1", "--size", "12",
                unset=("OPENBLAS_NUM_THREADS",))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split() == ["stage", "wall_s", "cpu_s", "peak_rss_mb", "note"]
    stages = [line[:20].rstrip() for line in lines[2:]]
    assert stages == ["lattice", "basis", "assembly ground", "lanczos ground", "correlators",
                      "start", "assembly gap 1", "lanczos gap 1", "assembly gap 2",
                      "lanczos gap 2", "total"]
    # the peak resident set after each stage of the first run never falls
    rss = [float(line[20:].split()[2]) for line in lines[2:-1]]
    assert rss == sorted(rss) and rss[0] > 0
    assert "924 states" in proc.stdout
    # the ground state's orbits of translations and the flip, then the two
    # half-shift sectors of the other flip parity's 462 orbits
    assert "44 rows, 272 nnz" in proc.stdout
    assert "220 rows, 1540 nnz" in proc.stdout and "242 rows, 1682 nnz" in proc.stdout
    # the three timed runs are the ones `xxzent ed` reports
    runs = [int(line.split()[-2]) for line in lines if line.endswith(" iterations")]
    assert len(runs) == 3
    assert cli.main(["ed", "--dim", "1", "--size", "12"]) == cli.EXIT_OK
    assert f"iterations: {sum(runs)}\n" in capsys.readouterr().out


def test_readme_python_api_example():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Python API\n\n```python\n", 1)[1].split("\n```", 1)[0]
    for stated in ("0.2017802...", "12870 states, 6435 representatives", "32,896 of 512^2",
                   "441 representatives"):
        assert stated in block
    names = {}
    exec(block, names)
    assert 0.2017802 <= names["c"] < 0.2017803
    assert (len(names["sector"].basis), names["sector"].h.dimension) == (12870, 6435)
    assert names["ground"].h.dimension == 441
    assert names["g"].gamma.size == 32_896 and names["g"].k_points == 512


def test_bench_ab_marks_a_gain_past_its_bound():
    # past_bound: the change's median better than the parent's by more than
    # the bound; within_bound: not worse by more than it
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)
    declared = [{"name": name, "unit": "", "better": better, "bound": bound}
                for name, better, bound in (("rss", "lower", 0.1), ("small", "lower", 0.1),
                                            ("worse", "lower", 0.25), ("frac", "higher", 0.1),
                                            ("extra", "lower", None))]
    parent = {"rss": 132.0, "small": 1.0, "worse": 1.0, "frac": 0.5, "extra": 1.0}
    change = {"rss": 114.0, "small": 0.95, "worse": 1.2, "frac": 0.6, "extra": 0.5}
    runs = [{"pair": pair, "side": side, "metrics": metrics}
            for pair in range(10) for side, metrics in (("parent", parent), ("change", change))]
    stats = bench_ab.summarize(runs, declared)
    assert {m: (s["within_bound"], s["past_bound"]) for m, s in stats.items()} == {
        "rss": (True, True), "small": (True, False), "worse": (True, False),
        "frac": (True, True), "extra": (None, None)}


def test_bench_ab_script(tmp_path):
    # one A/A pair: the checkout against itself, parent first
    out = tmp_path / "bench.json"
    proc = _run("bench_ab.py", "--parent", str(ROOT), "--out", str(out),
                "--workloads", "sw-cubic-scan", "--pairs", "1", "--seconds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    runs = report["runs"]
    assert [(r["side"], r["first"]) for r in runs] == [("parent", True), ("change", False)]
    for r in runs:
        # one operation per delta point of the 201-point scan, per invocation
        assert r["correct"] and r["failed"] == 0 and r["attempted"] % 201 == 0
    stats = report["workloads"]["sw-cubic-scan"]["metrics"]
    assert set(stats) == {"wall_s", "setup_s", "cpu_s", "peak_rss_mb", "setup_plus_wall_s"}
    assert stats["cpu_s"]["pairs"] == 1 and stats["cpu_s"]["bound"] == 0.25
    assert stats["setup_plus_wall_s"]["bound"] is None
    assert stats["setup_plus_wall_s"]["past_bound"] is None
    assert all(isinstance(stats[m]["past_bound"], bool) for m in ("wall_s", "peak_rss_mb"))
    prov = report["provenance"]
    assert prov["parent"]["commit"] == prov["change"]["commit"]
    assert prov["parent"]["tree"] == prov["change"]["tree"] == str(ROOT)
    assert prov["nproc"] >= 1 and prov["change"]["blas_threads"]
