"""xxzent benchmark: one workload per run, every CLI invocation in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; xxzent is imported from src/.

--trace 0 measures the end-to-end metrics. It starts SETUP_PROBES
interpreters that only import xxzent, then runs the workload back to back
(closed loop, one client) until the next invocation would end past
--seconds, and reports the median over the invocations:
  wall_s       from the cli.main call to its return
  setup_s      from spawning the interpreter to xxzent imported (probes too)
  cpu_s        user plus system CPU of the child during cli.main
  peak_rss_mb  ru_maxrss of the child
failed_frac (failed over attempted operations) is printed here and carried
by the `attempted` and `failed` fields of the result line.

--trace 1 runs the tracer self-test, then alternates traced and untraced
invocations until --seconds. The per-layer metrics come from the traced
invocation of median wall time; trace.overhead_s is the median, over
adjacent traced/untraced pairs, of traced minus untraced wall time.

Every output is checked against the workload's correctness gate
(workloads.py). An invocation that crashes or times out fails all its
operations and ends the loop. The last stdout line is the JSON result; the
exit code is 1 if any operation failed and 2 if the checkout has no xxzent
source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s

# Span counts of the self-test, worked out by hand:
#   scan of the 4-site ring at delta 0.5, 1.0, 1.5: one lattice and one basis,
#   three solves, 4 bonds x 3 solves correlator calls;
#   spinwave --delta 0.5: energy_per_site once, gzz_per_bond's central
#   difference twice, concurrence's energy once plus gzz twice, the latter
#   all through spinwave._BRANCHES; one gamma_grid per energy.
SELFTEST_COUNTS = {
    "cli.main.calls": 2,
    "lattice.build_lattice.calls": 1,
    "ed.enumerate_basis.calls": 1,
    "ed.build_hamiltonian.calls": 3,
    "ed.lanczos_ground.calls": 3,
    "entanglement.mean_bond_correlators.calls": 3,
    "entanglement.correlators.calls": 12,
    "analysis.scan_ed.calls": 1,
    "spinwave.gzz_per_bond.calls": 2,
    "spinwave.energy_per_site.calls": 6,
    "spinwave.gamma_grid.calls": 6,
}


@dataclass
class Invocation:
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    duration_s: float
    output: Output
    result: dict


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts child.py processes one at a time inside a scratch directory."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.count = 0

    def child(self, mode: str, cli_args: list[str] = (), csv: Path | None = None) -> Invocation:
        self.count += 1
        result_path = self.work / f"child{self.count}.json"
        if csv is not None:
            csv.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode, *cli_args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("run time limit reached")
        spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise ChildFailed(f"{mode} child timed out after {exc.timeout:.0f} s") from None
        duration = time.monotonic() - spawn
        if proc.returncode != 0 or not result_path.is_file():
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        package = Path(result["package"]).resolve()
        if ROOT / "src" not in package.parents:
            raise ChildFailed(f"imported xxzent from {package}, not from this checkout")
        return Invocation(
            setup_s=result["ready"] - spawn,
            wall_s=result.get("wall_s", 0.0),
            cpu_s=result.get("cpu_s", 0.0),
            peak_rss_mb=result.get("peak_rss_mb", 0.0),
            duration_s=duration,
            output=Output(result.get("exit_code"), proc.stdout, csv or self.work / "none.csv"),
            result=result,
        )


def log(line: str) -> None:
    print(f"# {line}", flush=True)


def source_fingerprint() -> str:
    """Git commit when the checkout is a repository, plus a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"commit {commit}, src sha256 {digest.hexdigest()[:16]}"


def selftest(runner: Runner) -> list[str]:
    """Mismatches between traced span counts and SELFTEST_COUNTS."""
    inv = runner.child("selftest")
    layers = inv.result["layers"]
    problems = [f"unpatched binding {b}" for b in inv.result["unpatched"]]
    problems += [f"absent target {a}" for a in inv.result["absent"]]
    for name, expected in SELFTEST_COUNTS.items():
        if layers.get(name) != expected:
            problems.append(f"{name} = {layers.get(name)}, expected {expected}")
    if inv.result["exit_codes"] != [0, 0]:
        problems.append(f"self-test exit codes {inv.result['exit_codes']}")
    return problems


def lost(workload, runner: Runner, exc: ChildFailed) -> int:
    """Operations of an invocation that crashed or timed out; all count as failed."""
    log(f"invocation failed: {exc}")
    return workload.check(Output(None, "", runner.work / "none.csv"))[0]


def check(workload, inv: Invocation, label: str) -> tuple[int, int]:
    attempted, failed, notes = workload.check(inv.output)
    log(f"{label}: wall {inv.wall_s:.3f} s, cpu {inv.cpu_s:.3f} s, setup {inv.setup_s:.3f} s, "
        f"peak rss {inv.peak_rss_mb:.1f} MB, exit {inv.output.exit_code}, "
        f"failed {failed}/{attempted}")
    for note in notes[:10]:
        log(f"  FAILED {note}")
    return attempted, failed


def measure(workload, seed: int, seconds: int, runner: Runner):
    """Untraced run: end-to-end metrics, attempted and failed operations."""
    csv = runner.work / "out.csv"
    setups = [runner.child("probe").setup_s for _ in range(SETUP_PROBES)]
    runs: list[Invocation] = []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        try:
            inv = runner.child("plain", workload.argv(seed, csv), csv)
        except ChildFailed as exc:
            n = lost(workload, runner, exc)
            attempted, failed = attempted + n, failed + n
            break
        runs.append(inv)
        a, f = check(workload, inv, f"invocation {len(runs)}")
        attempted, failed = attempted + a, failed + f
        if time.monotonic() - start + inv.duration_s > seconds:
            break
    if not runs:
        return {}, attempted, failed
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setups + [r.setup_s for r in runs]),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    log(f"{len(runs)} invocations, {len(setups) + len(runs)} setups")
    return metrics, attempted, failed


def trace(workload, seed: int, seconds: int, runner: Runner):
    """Traced run: traced and untraced invocations alternate until --seconds;
    per-layer metrics come from the traced invocation of median wall time."""
    try:
        problems = selftest(runner)
    except ChildFailed as exc:
        problems = [f"self-test child failed: {exc}"]
    log("self-test: " + ("counts match" if not problems else "MISMATCH"))
    for p in problems:
        log(f"  {p}")
    csv = runner.work / "out.csv"
    runs: dict[str, list[Invocation]] = {"traced": [], "plain": []}
    attempted = failed = 0
    start = time.monotonic()
    try:
        while True:
            for mode, invs in runs.items():
                invs.append(runner.child(mode, workload.argv(seed, csv), csv))
                a, f = check(workload, invs[-1], f"{mode} invocation {len(invs)}")
                attempted, failed = attempted + a, failed + f
            pair_s = runs["traced"][-1].duration_s + runs["plain"][-1].duration_s
            if time.monotonic() - start + pair_s > seconds:
                break
    except ChildFailed as exc:
        n = lost(workload, runner, exc)
        attempted, failed = attempted + n, failed + n
    pairs = list(zip(runs["traced"], runs["plain"]))
    if not pairs:
        return {}, attempted, failed
    traced = sorted(runs["traced"], key=lambda r: r.wall_s)[(len(runs["traced"]) - 1) // 2]
    layers = dict(traced.result["layers"])
    layers["trace.overhead_s"] = statistics.median(t.wall_s - p.wall_s for t, p in pairs)
    log(f"{len(pairs)} traced/untraced pairs")
    for target in traced.result["absent"]:
        log(f"absent target {target}: its metrics read 0")
    for name, err in traced.result["observer_errors"].items():
        log(f"unobservable quantities of {name}: {err}")
    return layers, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds numpy's Lanczos start vector)")
    if not (ROOT / "src" / "xxzent" / "cli.py").is_file():
        print(f"perfbench: no xxzent source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
        workload = WORKLOADS[args.workload]
        log(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
            f"trace {args.trace}: {workload.why}")
        log(f"source: {source_fingerprint()}")
        log(f"provenance: {json.dumps(runner.child('probe').result['provenance'])}")
        if args.trace:
            values, attempted, failed = trace(workload, args.seed, args.seconds, runner)
            wanted = declared["per_layer"]
        else:
            values, attempted, failed = measure(workload, args.seed, args.seconds, runner)
            wanted = declared["end_to_end"]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log(f"no value for declared metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    log(f"failed_frac = {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
    correct = failed == 0 and attempted > 0 and not missing
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
