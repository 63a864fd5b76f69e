"""Command-line interface: report formats, exit codes, determinism."""

import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from conftest import DENSE_DIM_LIMIT, dense_matrix, parity_block, sparse_matrix
from xxzent import analysis, cli, ed, entanglement, lattice, spinwave, verify
from xxzent.lattice import LatticeSpec

SRC = Path(__file__).resolve().parent.parent / "src"


def _parse_report(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        key, _, val = line.partition(": ")
        out[key] = val
    return out


# ------------------------------------------------------------------ ed


def test_ed_report_four_ring(capsys):
    rc = cli.main(["ed", "--dim", "1", "--size", "4", "--delta", "1.0"])
    assert rc == cli.EXIT_OK
    report = _parse_report(capsys.readouterr().out)
    assert report["dimension"] == "1"
    assert report["sector_dimension"] == "6"
    assert float(report["energy"]) == pytest.approx(-2.0, abs=1e-11)
    assert float(report["concurrence"]) == pytest.approx(0.5, abs=1e-11)
    assert float(report["gzz"]) == pytest.approx(-1.0 / 6.0, abs=1e-11)
    assert float(report["gap"]) == pytest.approx(1.0, abs=1e-10)
    assert report["solver"] == "lanczos"
    assert report["seed"] == str(ed.DEFAULT_SEED)


def test_ed_solves_once_on_the_lanczos_pair_path(capsys, monkeypatch):
    # 16-site ring: 12,870 states, too many for the dense oracle; one
    # Lanczos run in the ground state's orbits of translations and the flip,
    # and one level run, which keeps no vector, in each half-shift sector of
    # the other flip parity for the gap: one assembly each
    calls = {"enumerate_basis": 0, "build_hamiltonian": 0, "lanczos_ground": 0,
             "lanczos_level": 0}
    dimensions = []
    for name in calls:
        original = getattr(ed, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            if _name.startswith("lanczos"):
                dimensions.append(args[0].dimension)
            return _original(*args, **kwargs)

        monkeypatch.setattr(ed, name, counted)
    rc = cli.main(["ed", "--dim", "1", "--size", "16"])
    assert rc == cli.EXIT_OK
    assert calls == {"enumerate_basis": 1, "build_hamiltonian": 3, "lanczos_ground": 1,
                     "lanczos_level": 2}
    monkeypatch.undo()
    report = _parse_report(capsys.readouterr().out)
    assert int(report["sector_dimension"]) == 12870 > DENSE_DIM_LIMIT
    sector = ed.build_sector(LatticeSpec(1, 16))
    # the ground run's block is the orbits of translations and the flip, the
    # gap runs' the two halves of the other parity's 6,435 orbits
    ground = ed.build_ground_sector(LatticeSpec(1, 16))
    assert dimensions == [ground.h.dimension,
                          *(len(b.representatives) for b in ed.gap_basis(ground.basis))]
    assert sum(dimensions[1:]) == 6435 and max(dimensions[1:]) < 3300

    h = sector.h.at(1.0)
    gs = ed.lanczos_ground(h)
    g = entanglement.mean_bond_correlators(gs, sector)
    assert float(report["energy"]) == pytest.approx(gs.energy, abs=verify.ROUTE_TOL)
    for key in ("gxx", "gyy", "gzz"):
        assert float(report[key]) == pytest.approx(getattr(g, key), abs=verify.ROUTE_TOL)
    assert float(report["residual"]) <= 1e-11
    low = np.sort(sla.eigsh(sparse_matrix(parity_block(sector, None).at(1.0)), k=2, which="SA")[0])
    assert float(report["gap"]) == pytest.approx(low[1] - low[0], abs=1e-8)


ROUTE_CASES = [
    (spec, delta)
    for delta in (0.5, 1.0, 2.0)
    for spec in (LatticeSpec(1, 12), LatticeSpec(1, 16), LatticeSpec(2, 4))
] + [
    # where S^z_pi |GS>, the gap run's start, misses the other parity's lowest
    # level: on the 4x4 square at delta <= 0.3 and on rings at delta < 0
    (LatticeSpec(2, 4), 0.0), (LatticeSpec(2, 4), 0.3),
    (LatticeSpec(1, 12), -0.5), (LatticeSpec(1, 16), -0.5),
]


@pytest.mark.parametrize("spec, delta", ROUTE_CASES,
                         ids=lambda v: f"d{v.dimension}L{v.linear_size}" if hasattr(v, "dimension")
                         else None)
def test_ed_ground_sector_route_matches_the_parity_block(capsys, spec, delta):
    # ed solves its ground state in the orbits of translations and the flip:
    # a Lanczos run on the whole flip-parity block gives the same report, and
    # the two lowest levels of the full M = 0 block give the same gap
    argv = ["ed", "--dim", str(spec.dimension), "--size", str(spec.linear_size),
            "--delta", str(delta)]
    assert cli.main(argv) == cli.EXIT_OK
    report = _parse_report(capsys.readouterr().out)
    sector = ed.build_sector(spec)
    gs = ed.lanczos_ground(sector.h.at(delta))
    g = entanglement.mean_bond_correlators(gs, sector)
    want = {"energy": gs.energy, "gxx": g.gxx, "gzz": g.gzz,
            "concurrence": entanglement.concurrence_corr(g)}
    for key, value in want.items():
        assert float(report[key]) == pytest.approx(value, abs=verify.ROUTE_TOL), key
    full = sparse_matrix(parity_block(sector, None).at(delta))
    low = np.sort(sla.eigsh(full, k=2, which="SA")[0])
    assert float(report["gap"]) == pytest.approx(low[1] - low[0], abs=1e-8)


def test_ed_gap_run_starts_from_the_staggered_state(capsys, monkeypatch):
    # at delta = 1 the other parity's lowest level is S^z_pi |GS> (Arovas,
    # Auerbach & Haldane), which lies in one half-shift sector; the cos part
    # of the start lies in the other. Started from its projection of that
    # start, the gap run of the 16-site ring that finds the gap's level takes
    # fewer iterations than from the random vector alone, and the other no more
    spec = LatticeSpec(1, 16)
    ground = ed.build_ground_sector(spec)
    gs = ed.lanczos_ground(ground.h.at(1.0))
    start = ed.staggered_guess(ground.lattice, ground.basis, gs.vector)
    want, runs, plain_runs = [], [], []
    for block in ed.gap_basis(ground.basis):
        other = ed.build_hamiltonian(ground.lattice, block).at(1.0)
        want.append(block.project(start))
        started, plain = ed.lanczos_level(other, guess=want[-1]), ed.lanczos_level(other)
        assert started.iterations <= plain.iterations
        assert abs(started.energy - plain.energy) <= started.tolerance + plain.tolerance
        runs.append(started)
        plain_runs.append(plain)
    assert len(runs) == 2
    lowest = min(range(2), key=lambda k: runs[k].energy)
    assert runs[lowest].iterations < plain_runs[lowest].iterations
    # xxzent ed passes those starts to the gap runs, and only to them
    guesses = []
    for name in ("lanczos_ground", "lanczos_level"):
        def recorded(h, _original=getattr(ed, name), **kwargs):
            guesses.append(kwargs.get("guess"))
            return _original(h, **kwargs)

        monkeypatch.setattr(ed, name, recorded)
    assert cli.main(["ed", "--dim", "1", "--size", "16"]) == cli.EXIT_OK
    report = _parse_report(capsys.readouterr().out)
    assert guesses[0] is None and len(guesses) == 3
    assert all(np.array_equal(got, w) for got, w in zip(guesses[1:], want))
    assert int(report["iterations"]) == gs.iterations + sum(run.iterations for run in runs)


def test_ed_frees_each_operator_before_the_next_assembly(capsys, monkeypatch):
    # xxzent ed holds one operator at a time: when an assembly starts, the
    # CSR of every operator built before it, the ground block's and the
    # previous gap block's, has been freed
    original, built = ed.build_hamiltonian, []

    def tracked(lattice, basis):
        assert [ref() for ref in built] == [None] * len(built)
        h = original(lattice, basis)
        built.append(weakref.ref(h.offdiag))
        return h

    monkeypatch.setattr(ed, "build_hamiltonian", tracked)
    assert cli.main(["ed", "--dim", "1", "--size", "8"]) == cli.EXIT_OK
    assert len(built) == 3


def test_ed_and_scan_build_no_rdm_tables(capsys, monkeypatch):
    # the bond tables of the RDM route are built only when an RDM is read
    def refuse(*args, **kwargs):
        raise AssertionError("pair table built")

    monkeypatch.setattr(ed.SectorBasis, "pair_table", refuse)
    assert cli.main(["ed", "--dim", "2", "--size", "4"]) == cli.EXIT_OK
    assert cli.main(["scan", "--dim", "1", "--size", "8", "--step", "0.5"]) == cli.EXIT_OK
    capsys.readouterr()
    # vectors are kept only at the deltas a caller names
    grid = analysis.delta_grid(0.0, 2.0, 0.5)
    assert analysis.solve_ed(ed.build_sector(LatticeSpec(1, 8)), grid).kept == {}


def test_ed_gap_never_takes_a_dense_solve(capsys, monkeypatch):
    # 924 states: the gap comes from the two parity runs, at negative delta
    # too, and no operator is ever made dense
    def refuse(*args, **kwargs):
        raise AssertionError("dense solve in xxzent ed")

    h = parity_block(ed.build_sector(LatticeSpec(1, 12)), None)
    for delta in (1.0, -0.5, -0.9):
        monkeypatch.setattr(sp.csr_matrix, "toarray", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rc = cli.main(["ed", "--dim", "1", "--size", "12", f"--delta={delta}"])
        assert rc == cli.EXIT_OK
        monkeypatch.undo()
        report = _parse_report(capsys.readouterr().out)
        low = np.linalg.eigvalsh(dense_matrix(h.at(delta)))[:2]
        assert float(report["energy"]) == pytest.approx(low[0], abs=1e-10), delta
        assert float(report["gap"]) == pytest.approx(low[1] - low[0], abs=1e-10), delta


@pytest.mark.parametrize("argv", [["ed", "--dim", "1"], ["ed", "--dim", "2"], ["ed", "--dim", "3"],
                                  ["scan", "--dim", "1", "--step", "0.5"]])
def test_l2_lattice_warns_in_one_plain_line(argv, capsys):
    # the duplicate wrap bond of L = 2 is reported like a failed point,
    # with no Python source line, and the report itself is unchanged
    assert cli.main(argv + ["--size", "2"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert [line.startswith("warning: ") for line in lines] == [True]
    assert "duplicate bond" in lines[0] and ".py:" not in captured.err
    assert "warning" not in captured.out


@pytest.mark.filterwarnings("ignore::xxzent.lattice.DegenerateLatticeWarning")
@pytest.mark.parametrize("delta", [-1.5, 0.0, 1.0, 5.0])
def test_ed_two_site_report_matches_the_full_block(delta, capsys):
    # each parity block has one state; delta <= -1 is refused as outside
    # the antiferromagnet
    rc = cli.main(["ed", "--dim", "1", "--size", "2", f"--delta={delta}"])
    if delta <= -1:
        assert rc == cli.EXIT_USAGE
        assert "error: --delta: ED needs delta > -1" in capsys.readouterr().err
        return
    assert rc == cli.EXIT_OK
    report = _parse_report(capsys.readouterr().out)
    full = parity_block(ed.build_sector(LatticeSpec(1, 2)), None)
    low = np.linalg.eigvalsh(dense_matrix(full.at(delta)))
    assert report["sector_dimension"] == "2"
    assert float(report["energy"]) == pytest.approx(low[0], abs=1e-12)
    assert float(report["gap"]) == pytest.approx(low[1] - low[0], abs=1e-12)
    # both one-state blocks go through the recurrence, one step each
    assert report["solver"] == "lanczos"
    assert report["iterations"] == "2"


@pytest.mark.parametrize(
    "argv, flag",
    [(["ed", "--delta", "1e308"], "--delta"),
     (["ed", "--delta", "1e200"], "--delta"),
     (["ed", "--delta=-1e200"], "--delta"),
     (["scan", "--from", "1e200", "--to", "1e200", "--step", "1"], "--from/--to"),
     (["ed", "--dim", "2", "--delta", "1e308"], "--delta")],  # delta * H_zz = inf
)
def test_overflowing_delta_is_a_usage_error(argv, flag, capsys):
    # refused before the Krylov block exists, with no numpy overflow warning;
    # a negative one already as outside the antiferromagnet
    argv = argv[:1] + ["--dim", "1", "--size", "4"] + argv[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    reason = "ED needs delta > -1" if argv[-1].startswith("--delta=-") else "overflows"
    assert f"{flag}: " in err and reason in err


@pytest.mark.parametrize(
    "argv, flag",
    [(["ed", "--size", "8", "--delta=-2"], "--delta"),
     (["ed", "--size", "8", "--delta=-1"], "--delta"),
     (["ed", "--size", "12", "--delta=-1e6"], "--delta"),
     (["scan", "--size", "8", "--from=-1", "--to", "0", "--step", "0.5"], "--from")],
)
def test_delta_at_or_below_minus_one_is_a_usage_error(argv, flag, capsys, monkeypatch):
    # M = 0 no longer holds the ground state there (the fully polarized
    # states of the 8-ring lie at -4 for delta = -2); refused before any
    # sector is built or solved
    def refuse(*args, **kwargs):
        raise AssertionError("built or solved at a ferromagnetic delta")

    # every module-level binding, so no caller can bypass the refusal
    for name in ("build_ground_sector", "lanczos_ground"):
        original = getattr(ed, name)
        for module in (ed, analysis, entanglement, verify, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse)
    try:
        rc = cli.main(argv[:1] + ["--dim", "1"] + argv[1:])
    except SystemExit as exc:
        rc = exc.code
    assert rc == cli.EXIT_USAGE
    assert f"{flag}: ED needs delta > -1" in capsys.readouterr().err


def test_delta_just_above_minus_one_still_solves(capsys):
    assert cli.main(["ed", "--dim", "1", "--size", "8", "--delta=-0.99"]) == cli.EXIT_OK
    assert cli.main(["scan", "--dim", "1", "--size", "8", "--from=-0.99", "--to", "0",
                     "--step", "0.33"]) == cli.EXIT_OK


def test_large_finite_delta_still_solves(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["ed", "--dim", "1", "--size", "4", "--delta", "1e6"])
    assert rc == cli.EXIT_OK
    report = _parse_report(capsys.readouterr().out)
    assert float(report["energy"]) == pytest.approx(-1e6, rel=1e-9)


@pytest.mark.parametrize("delta", [1e6, 1e8])
def test_residual_floor_admits_large_delta(delta, capsys):
    # eps * ||H|| (4.4e-10 at delta = 1e6) exceeds the default 1e-11
    # tolerance, so convergence is judged at a floor of a few eps * ||T||
    rc = cli.main(["ed", "--dim", "1", "--size", "8", "--delta", f"{delta:g}"])
    assert rc == cli.EXIT_OK
    report = _parse_report(capsys.readouterr().out)
    sector = ed.build_sector(LatticeSpec(1, 8))
    e0 = np.linalg.eigvalsh(dense_matrix(parity_block(sector, None).at(delta)))[0]
    assert float(report["energy"]) == pytest.approx(e0, rel=1e-11)  # 12 printed digits
    assert float(report["residual"]) < float(report["tolerance"])


@pytest.mark.parametrize("delta", [1e6, 1e10])
def test_gap_below_the_residuals_is_unresolved(delta, capsys):
    # the two Neel combinations, one in each flip parity, split far below
    # eps * ||H||: E1 - E0 comes out as round-off of either sign
    rc = cli.main(["ed", "--dim", "1", "--size", "8", "--delta", f"{delta:g}"])
    assert rc == cli.EXIT_OK
    assert _parse_report(capsys.readouterr().out)["gap"] == "unresolved"


def test_report_names_the_tolerance_the_floor_put_in_place(capsys):
    # where RESIDUAL_FLOOR * eps * ||T|| exceeds DEFAULT_TOL, that floor replaces it
    assert cli.main(["ed", "--dim", "1", "--size", "8"]) == cli.EXIT_OK
    assert "tolerance" not in _parse_report(capsys.readouterr().out)
    assert cli.main(["ed", "--dim", "1", "--size", "8", "--delta", "1e6"]) == cli.EXIT_OK
    report = _parse_report(capsys.readouterr().out)
    # the floor follows each run's Krylov path, so it is recomputed from the
    # same three blocks, seed and starts rather than pinned
    ground = ed.build_ground_sector(LatticeSpec(1, 8))
    gs = ed.lanczos_ground(ground.h.at(1e6))
    start = ed.staggered_guess(ground.lattice, ground.basis, gs.vector)
    runs = [ed.lanczos_level(ed.build_hamiltonian(ground.lattice, block).at(1e6),
                             guess=block.project(start))
            for block in ed.gap_basis(ground.basis)]
    assert len(runs) == 2
    assert report["tolerance"] == cli._fmt(max(run.tolerance for run in [gs, *runs]))
    assert ed.DEFAULT_TOL < float(report["residual"]) < float(report["tolerance"])


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--seed", "1.5"], ["--seed", "x"]])
def test_unusable_solver_inputs_are_usage_errors(flags, capsys):
    # refused by the parser, naming the flag, for ed and scan alike
    for argv in (["ed", "--dim", "1", "--size", "8"],
                 ["scan", "--dim", "1", "--size", "8", "--from", "1", "--to", "1",
                  "--step", "0.1"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv + flags)
        assert info.value.code == cli.EXIT_USAGE
        assert "argument --seed: " in capsys.readouterr().err


def test_ed_refuses_infeasible_sector(capsys):
    rc = cli.main(["ed", "--dim", "2", "--size", "6"])
    assert rc == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "9075135300" in err  # comb(36, 18)
    assert "9.08e+09" in err
    assert "not desk-feasible" in err


@pytest.mark.parametrize("argv", [
    ["ed", "--dim", "2", "--size", "40"],
    ["ed", "--dim", "3", "--size", "14"],
    ["ed", "--dim", "1", "--size", "15000"],
    ["ed", "--dim", "1", "--size", "2000000"],
    ["ed", "--dim", "3", "--size", "1" + "0" * 4000],
    ["scan", "--dim", "2", "--size", "40"],
])
def test_infeasible_sector_refused_at_any_size(argv, capsys):
    # the size of such a sector is bounded below, not built: comb(N, N/2)
    # as an integer takes minutes at N = 2e6 and cannot be printed at all
    start = time.perf_counter()
    rc = cli.main(argv)
    assert time.perf_counter() - start < 1.0
    assert rc == cli.EXIT_INFEASIBLE
    assert "states (N = L^" in capsys.readouterr().err


def test_ed_solver_failure_exit_code(capsys, monkeypatch):
    def boom(*a, **k):
        raise ed.LanczosError("injected", best=None)

    monkeypatch.setattr(ed, "lanczos_ground", boom)
    rc = cli.main(["ed", "--dim", "1", "--size", "8"])
    assert rc == cli.EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


def test_ed_rejects_odd_periodic_size(capsys):
    rc = cli.main(["ed", "--dim", "1", "--size", "5"])
    assert rc == cli.EXIT_USAGE


@pytest.mark.parametrize("command", [["ed"], ["scan", "--from", "0", "--to", "1"]])
def test_missing_sector_is_a_usage_error(command, capsys):
    # an open chain of 5 sites has no M = 0 sector
    rc = cli.main(command + ["--dim", "1", "--size", "5", "--boundary", "open"])
    assert rc == cli.EXIT_USAGE
    assert "error: sector M=0.0 does not exist for 5 sites" in capsys.readouterr().err


# ---------------------------------------------------------------- scan


def test_scan_csv_layout_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["scan", "--dim", "1", "--size", "4", "--from", "0", "--to", "2",
            "--step", "0.5", "--out"]
    assert cli.main(argv + [str(out1)]) == cli.EXIT_OK
    assert cli.main(argv + [str(out2)]) == cli.EXIT_OK
    text = out1.read_text()
    lines = text.splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# engine: ed") for l in meta)
    assert any(l.startswith("# version: ") for l in meta)
    header_idx = len(meta)
    assert lines[header_idx] == "delta,concurrence,energy_per_bond,gzz,engine"
    rows = lines[header_idx + 1 :]
    assert len(rows) == 5
    assert rows[2].split(",")[0] == "1"  # 12-significant-digit format
    assert rows[2].endswith(",ed")
    assert out1.read_bytes() == out2.read_bytes()


def _scan_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith(("#", "delta,"))]


@pytest.mark.parametrize("dim, size, reduced", [(2, 4, 441), (1, 10, 15)])
def test_scan_rows_match_the_parity_block(dim, size, reduced, tmp_path):
    # scan solves the ground state's translation x flip sector (k = 0 on
    # 4x4, k = pi on the 10-ring); its rows agree with the flip-parity block
    # within the benchmark's gates: C and Gzz within ROUTE_TOL, energy per
    # bond within the Lanczos tolerance, plus the rounding of 12 printed digits
    spec, (start, stop, step) = LatticeSpec(dim, size), (0.0, 2.0, 0.05)
    out, again = tmp_path / "scan.csv", tmp_path / "again.csv"
    for path in (out, again):
        argv = ["scan", "--dim", str(dim), "--size", str(size), "--step", str(step)]
        assert cli.main(argv + ["--out", str(path)]) == cli.EXIT_OK
    assert out.read_bytes() == again.read_bytes()
    assert f"# model: ed d={dim} L={size} periodic m=0.0 dim={reduced} " in out.read_text()
    parity = analysis.scan_ed(ed.build_sector(spec), analysis.delta_grid(start, stop, step))
    rows = _scan_rows(out)
    assert len(rows) == len(parity.samples) == 41
    for row, s in zip(rows, parity.samples):
        assert float(row[0]) == s.delta and row[4] == "ed"
        for got, want, tol in ((row[1], s.concurrence, verify.ROUTE_TOL),
                               (row[2], s.energy_per_bond, ed.DEFAULT_TOL),
                               (row[3], s.gzz, verify.ROUTE_TOL)):
            assert abs(float(got) - want) <= tol + 5e-12 * abs(want), (s.delta, got, want)


def test_open_scan_is_the_parity_block_scan(tmp_path):
    # an open lattice has no translations, so scan solves its flip-parity
    # block on the parent's path: the file is byte for byte scan_ed's
    spec, grid = LatticeSpec(1, 10, periodic=False), (0.0, 2.0, 0.1)
    out, ref = tmp_path / "scan.csv", tmp_path / "ref.csv"
    argv = ["scan", "--dim", "1", "--size", "10", "--boundary", "open", "--step", "0.1"]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    cli.write_curve(analysis.scan_ed(ed.build_sector(spec), analysis.delta_grid(*grid)),
                    grid, str(ref))
    assert out.read_bytes() == ref.read_bytes()
    assert "# model: ed d=1 L=10 open m=0.0 dim=126 " in out.read_text()


def test_scan_json_round_trip(tmp_path):
    out = tmp_path / "curve.json"
    rc = cli.main(["scan", "--dim", "1", "--size", "4", "--from", "0.5", "--to", "1.5",
                   "--step", "0.5", "--format", "json", "--out", str(out)])
    assert rc == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["metadata"]["engine"] == "ed"
    assert len(payload["samples"]) == 3
    sample = payload["samples"][1]
    assert sample["delta"] == 1.0
    assert sample["ok"] is True
    assert sample["concurrence"] == pytest.approx(0.5, abs=1e-11)
    assert all(0.0 <= s["residual"] <= ed.DEFAULT_TOL for s in payload["samples"])


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which RFC 8259 does not allow."""

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_scan_json_writes_null_for_missing_numbers(capsys, monkeypatch):
    # a spin-wave sample has no finite total energy
    rc = cli.main(["scan", "--engine", "spinwave", "--dim", "2", "--kgrid", "16", "--from", "0.5",
                   "--to", "1", "--step", "0.5", "--format", "json"])
    assert rc == cli.EXIT_OK
    samples = _strict_json(capsys.readouterr().out)["samples"]
    assert [s["energy_total"] for s in samples] == [None, None]
    assert all(isinstance(s["concurrence"], float) for s in samples)
    # every number of a failed ED point is missing
    original = ed.lanczos_ground

    def flaky(h, **kwargs):
        if h.delta == 1.0:
            raise ed.LanczosError("injected", best=None)
        return original(h, **kwargs)

    monkeypatch.setattr(ed, "lanczos_ground", flaky)
    rc = cli.main(["scan", "--dim", "1", "--size", "4", "--from", "0.5", "--to", "1.5",
                   "--step", "0.5", "--format", "json"])
    assert rc == cli.EXIT_SOLVER
    samples = _strict_json(capsys.readouterr().out)["samples"]
    failed = samples[1]
    assert failed["ok"] is False and failed["delta"] == 1.0
    for key in ("concurrence", "energy_per_bond", "gzz", "energy_total", "residual"):
        assert failed[key] is None, key
    assert isinstance(samples[0]["energy_total"], float)


def test_scan_spinwave_engine(capsys):
    rc = cli.main(["scan", "--engine", "spinwave", "--dim", "2", "--kgrid", "64",
                   "--from", "0.9", "--to", "1.1", "--step", "0.1"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "# engine: spinwave" in out
    assert out.count(",spinwave") == 3


def test_scan_usage_errors():
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "--dim", "1", "--size", "4", "--from", "0", "--to", "1",
                  "--step", "0"])
    assert info.value.code == cli.EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "--dim", "1", "--size", "4", "--from", "2", "--to", "1",
                  "--step", "0.1"])
    assert info.value.code == cli.EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "--engine", "spinwave", "--dim", "1", "--from", "0",
                  "--to", "1", "--step", "0.5"])
    assert info.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv, flag",
    [(["ed", "--dim", "1", "--size", "4"], "--delta"),
     (["scan", "--engine", "spinwave", "--dim", "2"], "--from"),
     (["spinwave", "--dim", "2"], "--delta"),
     (["scan", "--dim", "1", "--size", "4"], "--from"),
     (["scan", "--dim", "1", "--size", "4"], "--to"),
     (["scan", "--dim", "1", "--size", "4"], "--step"),
     (["scan", "--engine", "spinwave", "--dim", "2"], "--step")],
)
def test_non_finite_flags_are_usage_errors(argv, flag, value, capsys):
    # "--flag=-inf": a bare "-inf" would be read as an unknown option
    with pytest.raises(SystemExit) as info:
        cli.main(argv + [f"{flag}={value}"])
    assert info.value.code == cli.EXIT_USAGE
    assert f"argument {flag}: must be finite, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["1e-12", "1e-7"])
def test_scan_refuses_oversized_grids_before_allocating(step, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(analysis.np, "arange", refuse)
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "--dim", "1", "--size", "4", "--from", "0", "--to", "2",
                  "--step", step])
    assert info.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--step" in err and f"above {analysis.MAX_GRID_POINTS}" in err


def test_scan_rejects_engine_foreign_flags(capsys):
    # a flag the chosen engine does not read is a usage error, not a silent no-op
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "--engine", "spinwave", "--dim", "2", "--size", "5",
                  "--boundary", "open", "--seed", "3", "--kgrid", "8",
                  "--from", "1", "--to", "1", "--step", "0.1"])
    assert info.value.code == cli.EXIT_USAGE
    assert "--size, --boundary, --seed: not used by --engine spinwave" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "--dim", "1", "--size", "4", "--kgrid", "8"])
    assert info.value.code == cli.EXIT_USAGE
    assert "--kgrid: not used by --engine ed" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["no-such-dir", "a-directory"])
def test_scan_unwritable_out_is_a_usage_error(target, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "--dim", "1", "--size", "4", "--from", "1", "--to", "1",
                  "--step", "0.1", "--out", str(tmp_path / target)])
    assert info.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: --out: " in err and "Traceback" not in err


def test_scan_reports_partial_failure(tmp_path, capsys, monkeypatch):
    original = ed.lanczos_ground
    calls = {"n": 0}

    def flaky(h, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ed.LanczosError("injected", best=None)
        return original(h, **kwargs)

    monkeypatch.setattr(ed, "lanczos_ground", flaky)
    out = tmp_path / "partial.csv"
    rc = cli.main(["scan", "--dim", "1", "--size", "4", "--from", "0.5", "--to", "1.5",
                   "--step", "0.5", "--out", str(out)])
    assert rc == cli.EXIT_SOLVER
    assert "1 of 3 points failed" in capsys.readouterr().err
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert rows[1].endswith(",ed:failed")
    assert "nan" in rows[1]
    assert rows[0].endswith(",ed") and rows[2].endswith(",ed")


# ------------------------------------------------------------- spinwave


def test_spinwave_report(capsys):
    rc = cli.main(["spinwave", "--dim", "2", "--delta", "1.0", "--kgrid", "128"])
    assert rc == cli.EXIT_OK
    report = _parse_report(capsys.readouterr().out)
    assert report["branch"] == "ising"
    assert report["kgrid"] == "128"
    assert report["quad_points"] == "2080"  # C(64 + 1, 2) wedge points of the 128^2 grid
    assert float(report["concurrence"]) == pytest.approx(0.1579, abs=2e-3)


def test_kgrid_zero_is_rejected(capsys):
    # 0 reaches the same "at least 2 points" check as --kgrid 1
    for argv in (["spinwave", "--dim", "2", "--delta", "1", "--kgrid", "0"],
                 ["scan", "--engine", "spinwave", "--dim", "2", "--kgrid", "0",
                  "--from", "1", "--to", "1", "--step", "0.1"]):
        rc = cli.main(argv)
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: need at least 2 points per direction\n"
        assert "kgrid" not in captured.out


@pytest.mark.parametrize("argv", [
    ["spinwave", "--dim", "3"],
    ["scan", "--engine", "spinwave", "--dim", "3", "--from", "1", "--to", "1", "--step", "0.1"],
], ids=["spinwave", "scan"])
def test_oversized_kgrid_is_refused(argv, capsys):
    # a zone above spinwave.MAX_ZONE_POINTS is refused before it is allocated
    rc = cli.main(argv + ["--kgrid", "100000"])
    assert rc == cli.EXIT_USAGE
    assert f"wedge points, above {spinwave.MAX_ZONE_POINTS}" in capsys.readouterr().err


def test_spinwave_rejects_bad_delta(capsys):
    rc = cli.main(["spinwave", "--dim", "2", "--delta", "-1.0"])
    assert rc == cli.EXIT_USAGE
    point_err = capsys.readouterr().err
    rc = cli.main(["scan", "--engine", "spinwave", "--dim", "2", "--kgrid", "16",
                   "--from", "-0.5", "--to", "0.5", "--step", "0.5"])
    assert rc == cli.EXIT_USAGE
    # both commands reach the one delta >= 0 check in spinwave.energy_per_site
    assert capsys.readouterr().err == point_err == "error: delta must be >= 0\n"


@pytest.mark.parametrize("delta", ["1e5", "1e12", "1e16"])
def test_spinwave_refuses_an_unphysical_result(delta, capsys):
    # the finite-difference Gzz loses its digits at large delta: a |Gzz|
    # above 1/4 or a C above 1 is a usage error, not a printed result
    rc = cli.main(["spinwave", "--dim", "2", "--delta", delta, "--kgrid", "64"])
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds" in captured.err


def test_scan_keeps_a_refused_spinwave_point(capsys):
    # at delta = 1e5 the finite-difference Gzz on a 16^2 zone passes -1/4
    rc = cli.main(["scan", "--engine", "spinwave", "--dim", "2", "--kgrid", "16",
                   "--from", "0", "--to", "1e5", "--step", "5e4"])
    assert rc == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert "1 of 3 points failed" in captured.err
    rows = [l for l in captured.out.splitlines() if not l.startswith("#")][1:]
    assert rows[2] == "100000,nan,nan,nan,spinwave:failed"
    assert rows[0].endswith(",spinwave") and rows[1].endswith(",spinwave")


@pytest.mark.parametrize("delta", ["1e3", "1e4"])
def test_spinwave_large_delta_within_the_bounds_still_prints(delta, capsys):
    rc = cli.main(["spinwave", "--dim", "2", "--delta", delta, "--kgrid", "64"])
    assert rc == cli.EXIT_OK
    report = _parse_report(capsys.readouterr().out)
    assert -0.25 <= float(report["gzz"]) < 0
    assert 0 <= float(report["concurrence"]) <= 1


def test_spin_is_not_an_option():
    # concurrence is a two-qubit measure: the toolkit is spin-1/2 only
    for argv in (["spinwave", "--dim", "2", "--spin", "1"],
                 ["scan", "--engine", "spinwave", "--dim", "2", "--spin", "0"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == cli.EXIT_USAGE


def test_spinwave_is_a_one_point_scan(capsys, monkeypatch):
    # delta = 0.5: the energy and the two central-difference points of Gzz
    # all integrate over the one zone the command builds, as a scan would
    calls = {"n": 0}
    original = spinwave.gamma_grid

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(spinwave, "gamma_grid", counted)
    rc = cli.main(["spinwave", "--dim", "2", "--delta", "0.5", "--kgrid", "64"])
    assert rc == cli.EXIT_OK
    assert calls["n"] == 1
    monkeypatch.undo()
    report = _parse_report(capsys.readouterr().out)
    sample = analysis.scan_spinwave(spinwave.gamma_grid(2, 64), [0.5]).samples[0]
    assert report["branch"] == "planar"
    assert report["spin"] == "0.5"
    assert report["gzz"] == cli._fmt(sample.gzz)
    assert report["concurrence"] == cli._fmt(sample.concurrence)


# --------------------------------------------------------------- verify


def test_verify_takes_no_option(capsys):
    # every run is the whole of verify: no suite can be picked out
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "spinwave"])
    assert info.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments: --suite spinwave" in capsys.readouterr().err


def test_verify_solves_each_lattice_and_delta_once(monkeypatch):
    # the ED suites share one solve per (lattice, delta) over the union of
    # the deltas they read: the 41-point scan grid, which holds ROUTE_DELTAS
    # and HF_DELTAS, and the 6 points HF_DELTAS -+ HF_STEP
    solves = []  # (dimension, delta) of every solve
    original = ed.lanczos_ground

    def counted(h, **kwargs):
        solves.append((h.dimension, h.delta))
        return original(h, **kwargs)

    # every module-level binding, so no caller can bypass the count
    for module in (ed, analysis, entanglement, verify, cli):
        if getattr(module, "lanczos_ground", None) is original:
            monkeypatch.setattr(module, "lanczos_ground", counted)
    rows = verify.run_suites()
    assert len(solves) == 141 == len(verify.DEFAULT_ED_CASES) * (41 + 6)
    assert len(set(solves)) == len(solves)
    assert len({dim for dim, _ in solves}) == 3  # the dimension names the lattice
    assert len(rows) == 19 and all(r.passed for r in rows)


def test_verify_solver_failures_stay_explicit(monkeypatch):
    # solve_ed keeps a failed grid point as a gap with its error, as scan
    # writes it; solve_lattice raises the failure at the lowest failed delta,
    # a grid point, a kept delta or a Hellmann-Feynman side, named by lattice
    # and delta, best kept
    original = ed.lanczos_ground
    side = 0.5 + analysis.HF_STEP
    failing = {0.05, 1.0, side}
    bests = {}

    def flaky(h, **kwargs):
        if h.delta in failing:
            bests[h.delta] = original(h, **kwargs)
            raise ed.LanczosError(f"injected at {h.delta}", best=bests[h.delta])
        return original(h, **kwargs)

    monkeypatch.setattr(ed, "lanczos_ground", flaky)
    sector = ed.build_sector(LatticeSpec(1, 4))
    grid = analysis.delta_grid(0.0, 2.0, verify.ED_SCAN_STEP)
    solves = analysis.solve_ed(sector, grid, keep=verify.HF_DELTAS, extra=[side])
    gaps = [s for s in solves.curve.samples if not s.ok]
    assert [(s.delta, s.error) for s in gaps] == [(d, f"injected at {d}") for d in (0.05, 1.0)]
    assert sorted(solves.failures) == sorted(failing)
    assert failing.isdisjoint(solves.energies) and failing.isdisjoint(solves.kept)
    for lowest, above in ((0.05, {1.0, side}), (side, {1.0}), (1.0, set())):
        failing.clear()
        failing.update({lowest} | above)
        message = f"d=1 L=4 delta={cli._fmt(lowest)}: injected at {lowest}"
        with pytest.raises(ed.LanczosError, match=f"^{re.escape(message)}$") as info:
            verify.solve_lattice(sector)
        assert info.value.best is bests[lowest]


# 0.05 only the scan grid reads, 1.0 the grid, the route deltas and a
# Hellmann-Feynman centre, 0.5 + HF_STEP only a Hellmann-Feynman side; "all"
# for the whole of verify, every suite
_FAILED_DELTAS = (0.05, 1.0, 0.5 + analysis.HF_STEP)


@pytest.mark.parametrize("delta", _FAILED_DELTAS, ids=[f"all-{d}" for d in _FAILED_DELTAS])
def test_verify_solver_failure_exits_4_on_one_line(delta, capsys, monkeypatch):
    # a LanczosError at one delta of the 4-ring stops verify before any row,
    # whichever suite reads that delta: one stderr line, nothing on stdout
    original = ed.lanczos_ground
    ring = ed.build_ground_sector(LatticeSpec(1, 4)).h.dimension
    others = {ed.build_ground_sector(spec).h.dimension for spec in verify.DEFAULT_ED_CASES[1:]}
    assert ring not in others  # the dimension names the lattice

    def flaky(h, **kwargs):
        if h.dimension == ring and h.delta == delta:
            raise ed.LanczosError("injected", best=None)
        return original(h, **kwargs)

    monkeypatch.setattr(ed, "lanczos_ground", flaky)
    rc = cli.main(["verify"])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_SOLVER
    assert out == ""
    assert err == f"solver failure: d=1 L=4 delta={cli._fmt(delta)}: injected\n"


def test_verify_builds_each_lattice_once(monkeypatch):
    # one sector per lattice serves route-equivalence, hellmann-feynman and
    # the curves of concavity and argmax
    owners = {"build_lattice": lattice, "enumerate_basis": ed, "build_hamiltonian": ed}
    calls = dict.fromkeys(owners, 0)
    for name, owner in owners.items():
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # every module-level binding, so no builder can bypass the count
        for module in (lattice, ed, analysis, verify, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    rows = verify.run_suites()
    n = len(verify.DEFAULT_ED_CASES)
    assert calls == {"build_lattice": n, "enumerate_basis": n, "build_hamiltonian": n}
    assert n == 3
    # ED rows are named after their suite; the spinwave suite's rows are not
    ed_rows = [r for r in rows if r.name.split()[0] in verify.SUITES]
    assert len(ed_rows) == 4 * n and all(r.passed for r in ed_rows)


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    fake = [verify.CheckResult("synthetic", False, 1.0, 0.1, "injected failure")]
    monkeypatch.setattr(verify, "run_suites", lambda: fake)
    rc = cli.main(["verify"])
    assert rc == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "[FAIL] synthetic" in out
    assert "0/1 checks passed" in out


def test_fault_injection_breaks_derivative_identity(monkeypatch):
    # flipping the Ising part's sign must be caught by the dE/ddelta check:
    # the flipped model's energy slope is minus the Gzz measured bond by bond.
    # The fault sits in H_zz itself, so every delta reached through at()
    # carries it.
    original = ed.build_hamiltonian

    def flipped(lattice, basis):
        h = original(lattice, basis)
        return dataclasses.replace(h, zz=-h.zz)

    monkeypatch.setattr(ed, "build_hamiltonian", flipped)
    spec = LatticeSpec(1, 6)
    sides = [d + s for d in verify.HF_DELTAS for s in (-analysis.HF_STEP, analysis.HF_STEP)]
    solves = analysis.solve_ed(ed.build_sector(spec), (), keep=verify.HF_DELTAS, extra=sides)
    results = verify.check_hellmann_feynman({spec: solves})
    assert len(results) == 1
    assert not results[0].passed
    assert results[0].measured > 1e-3


# ----------------------------------------------------------- entry point


def _parser_flags() -> set[str]:
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return {flag for sub in commands.choices.values() for action in sub._actions
            for flag in action.option_strings if flag.startswith("--") and flag != "--help"}


def test_readme_names_exactly_the_cli_flags():
    # README's command-line section documents every flag the parser defines
    # and names none that it does not
    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z][a-z0-9-]*", section)) == _parser_flags()


def test_spinwave_module_imports_numpy_only():
    # the package root imports nothing, so the spin-wave route never loads
    # scipy or the ED modules
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import sys, xxzent.spinwave; "
            "print(sorted(m for m in ('numpy', 'scipy', 'xxzent.ed', 'xxzent.analysis') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy']"


def test_entrypoint_raises_system_exit(monkeypatch):
    monkeypatch.setattr("sys.argv", ["xxzent", "spinwave", "--dim", "2",
                                     "--delta", "0.5", "--kgrid", "32"])
    with pytest.raises(SystemExit) as info:
        cli.entrypoint()
    assert info.value.code == cli.EXIT_OK


def test_module_entry_point_without_install():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "xxzent.cli", "ed", "--dim", "1", "--size", "4"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert "concurrence: 0.5" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--engine", "spinwave", "--dim", "3", "--from", "0", "--to", "2",
         "--step", "0.01"],
        ["verify"],
        ["ed", "--dim", "1", "--size", "18"],
    ],
    ids=["scan-spinwave", "verify", "ed"],
)
def test_output_does_not_depend_on_the_blas_thread_count(argv):
    # no reduction goes through BLAS, whose threaded sums split by thread count
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "xxzent.cli", *argv],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("module, preset, want", [
    ("xxzent.cli", None, "1"),
    ("xxzent.cli", "2", "2"),
    ("xxzent.ed", None, None),
])
def test_cli_starts_one_blas_thread_unless_the_environment_says_otherwise(module, preset, want):
    # OpenBLAS reads the variable when it loads, so only a fresh interpreter
    # shows the pin: this one imported cli long ago. The library modules
    # leave the BLAS settings to their caller.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (f"import os, sys, {module}; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
            "len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    assert value == str(want)
    if want == "1":  # neither numpy's OpenBLAS nor scipy's starts a worker
        assert threads == "1"


@pytest.mark.skipif(shutil.which("xxzent") is None, reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(
        ["xxzent", "ed", "--dim", "1", "--size", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "concurrence: 0.5" in proc.stdout
