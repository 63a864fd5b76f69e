"""The four benchmark workloads and the correctness gate of each.

Every workload is one `xxzent` CLI command, run to completion in a fresh
interpreter (closed loop, one client). An operation is one delta point for
scans, one `ed` command, and one check for `verify`; each check below
returns (attempted, failed, notes) for one invocation.

Reference outputs in reference/ were recorded from the seed commit with the
default Lanczos seed. Tolerances are copies of the program's own constants,
never widened to get a pass:
  ROUTE_TOL    xxzent.verify.ROUTE_TOL, agreement of concurrence routes
  LANCZOS_TOL  xxzent.ed.DEFAULT_TOL, the Lanczos residual bound
  ARGMAX_TOL   xxzent.verify.ARGMAX_TOL, position of the concurrence peak
  SW_*_TOL     the frozen spin-wave tolerances of tests/test_spinwave.py
               (energies 1e-12, Gzz and concurrence 1e-9)
The CLI prints numbers to 12 significant digits, so a printed value is
compared with its reference within the tolerance plus one unit in the
reference's last printed place (see _close); the program's tolerance itself
is not widened.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROUTE_TOL = 1e-10
LANCZOS_TOL = 1e-11
ARGMAX_TOL = 1e-9
SW_ENERGY_TOL = 1e-12
SW_GZZ_TOL = 1e-9
SW_CONCURRENCE_TOL = 1e-9

REFERENCE = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Output:
    """What one CLI invocation left behind."""

    exit_code: int | None
    stdout: str
    csv: Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]
    seeded: bool  # takes the benchmark seed as the Lanczos --seed
    writes_csv: bool
    check: Callable[[Output], tuple[int, int, list[str]]]

    def argv(self, seed: int, csv: Path) -> list[str]:
        argv = list(self.args)
        if self.seeded:
            argv += ["--seed", str(seed)]
        if self.writes_csv:
            argv += ["--out", str(csv)]
        return argv


# ------------------------------------------------------------------ parsing


def _csv_rows(text: str) -> list[tuple[float, float, float, float, str]]:
    rows = []
    for line in text.splitlines():
        if line and not line.startswith("#") and not line.startswith("delta,"):
            d, c, e, g, engine = line.split(",")
            rows.append((float(d), float(c), float(e), float(g), engine))
    return rows


def _key_values(text: str) -> dict[str, str]:
    pairs = (line.split(": ", 1) for line in text.splitlines() if ": " in line)
    return {k: v for k, v in pairs}


_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (.+?): measured=(\S+) tol=(\S+) ")


def _checks(text: str) -> dict[str, tuple[bool, float, float]]:
    found = {}
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            found[m.group(2)] = (m.group(1) == "PASS", float(m.group(3)), float(m.group(4)))
    return found


# ------------------------------------------------------------------- checks


def _close(got: float, ref: float, tol: float) -> bool:
    """|got - ref| <= tol, allowing for the CLI's rounding of both values to
    12 significant digits (cli._fmt): two true values within tol can print
    up to one unit in the last place further apart."""
    last_place = 10.0 ** (math.floor(math.log10(abs(ref))) - 11) if ref else 0.0
    return abs(got - ref) <= tol + last_place


def _scan_check(reference: str, engine: str, tols: tuple[float, float, float]):
    """Pointwise comparison with the reference curve, C in [0, 1], and the
    discrete argmax of C at delta = 1."""
    ref = _csv_rows((REFERENCE / reference).read_text())

    def check(out: Output) -> tuple[int, int, list[str]]:
        rows = _csv_rows(out.csv.read_text()) if out.csv.is_file() else []
        got = {round(r[0], 9): r for r in rows}
        notes, bad = [], 0
        for r in ref:
            row = got.get(round(r[0], 9))
            ok = (
                row is not None
                and row[4] == engine
                and all(math.isfinite(x) for x in row[:4])
                and 0.0 <= row[1] <= 1.0
                and all(_close(row[k], r[k], tol) for k, tol in zip((1, 2, 3), tols))
            )
            if not ok:
                bad += 1
                notes.append(f"delta={r[0]:g}: got {row}, reference {r}")
        curve_ok = len(rows) == len(ref) and out.exit_code == 0
        if rows:
            peak = max(rows, key=lambda r: r[1])[0]
            if abs(peak - 1.0) > ARGMAX_TOL:
                curve_ok = False
                notes.append(f"argmax of C at delta={peak:g}, not 1")
        if not curve_ok:
            bad = max(bad, 1)
            notes.append(f"exit code {out.exit_code}, {len(rows)} of {len(ref)} rows")
        return len(ref), min(bad, len(ref)), notes

    return check


def _ed_check(reference: str):
    """Ground-state report against the reference, residual <= 1e-11, gap > 0."""
    ref = _key_values((REFERENCE / reference).read_text())
    numeric = ("energy", "energy_per_bond", "gxx", "gyy", "gzz", "concurrence", "gap")

    def check(out: Output) -> tuple[int, int, list[str]]:
        got = _key_values(out.stdout)
        notes = []
        try:
            for key in numeric:
                if not _close(float(got[key]), float(ref[key]), ROUTE_TOL):
                    notes.append(f"{key}={got[key]}, reference {ref[key]}")
            if got["sector_dimension"] != ref["sector_dimension"]:
                notes.append(f"sector_dimension={got['sector_dimension']}")
            if not float(got["residual"]) <= LANCZOS_TOL:
                notes.append(f"residual {got['residual']} above {LANCZOS_TOL}")
            if not float(got["gap"]) > 0.0:
                notes.append(f"gap {got['gap']} not positive")
            if not 0.0 <= float(got["concurrence"]) <= 1.0:
                notes.append(f"concurrence {got['concurrence']} outside [0, 1]")
        except (KeyError, ValueError) as exc:
            notes.append(f"unreadable report: {exc!r}")
        if out.exit_code != 0:
            notes.append(f"exit code {out.exit_code}")
        return 1, int(bool(notes)), notes

    return check


def _verify_check(reference: str):
    """Every reference check present and PASS, its measured value within the
    check's own tolerance of the reference, exit code 0 and n/n passed."""
    ref = _checks((REFERENCE / reference).read_text())
    summary = f"{len(ref)}/{len(ref)} checks passed"

    def check(out: Output) -> tuple[int, int, list[str]]:
        got = _checks(out.stdout)
        notes, bad = [], 0
        for name, (_, measured, tol) in ref.items():
            row = got.get(name)
            if row is None or not row[0] or not abs(row[1] - measured) <= tol:
                bad += 1
                notes.append(f"{name}: got {row}, reference measured={measured:g}")
        if out.exit_code != 0 or summary not in out.stdout:
            bad = max(bad, 1)
            notes.append(f"exit code {out.exit_code}, summary {summary!r} missing")
        return len(ref), bad, notes

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ed-square44-scan",
            "Many small ED solves on one lattice: per-delta Hamiltonian assembly, "
            "Lanczos and the 32-bond correlator loop dominate.",
            ("scan", "--dim", "2", "--size", "4", "--from", "0", "--to", "2", "--step", "0.05"),
            seeded=True,
            writes_csv=True,
            check=_scan_check("ed-square44-scan.csv", "ed", (ROUTE_TOL, LANCZOS_TOL, ROUTE_TOL)),
        ),
        Workload(
            "ed-chain22-gap",
            "One huge solve: a 705k-state sector whose Krylov block exceeds the last-level "
            "cache, solved twice by ed (ground state and gap); no per-delta reuse.",
            ("ed", "--dim", "1", "--size", "22", "--delta", "1.0"),
            seeded=True,
            writes_csv=False,
            check=_ed_check("ed-chain22-gap.txt"),
        ),
        Workload(
            "sw-cubic-scan",
            "Spin-wave zone quadrature only (201 points on a 96^3 grid); ED is not "
            "touched, so ED changes should leave it unchanged.",
            ("scan", "--engine", "spinwave", "--dim", "3", "--from", "0", "--to", "2",
             "--step", "0.01"),
            seeded=False,
            writes_csv=True,
            check=_scan_check("sw-cubic-scan.csv", "spinwave",
                              (SW_CONCURRENCE_TOL, SW_ENERGY_TOL, SW_GZZ_TOL)),
        ),
        Workload(
            "verify-all",
            "The 19 verify checks: tiny ED lattices solved hundreds of times, duplicated "
            "scans and spin-wave at 192^3; the only workload that measures verify.",
            ("verify",),
            seeded=False,
            writes_csv=False,
            check=_verify_check("verify-all.txt"),
        ),
    )
}
