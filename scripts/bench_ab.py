#!/usr/bin/env python3
"""A/B benchmark of this checkout against a parent checkout.

Runs the benchmark's own `perfbench/run.py --trace 0` in both trees, one
process per run, for --pairs pairs per workload. The two sides of a pair
take the same seed and alternate which goes first (the parent in even
pairs). Every run is logged as it ends, and the JSON written to --out
holds:
  runs        each run's metrics, correct, attempted, failed, exit code,
              seed, order, and the BLAS thread count it reported
  workloads   per metric and side: median, quartiles and range; the pairs
              the change wins (strictly better) and ties; the ratio of the
              medians against the metric's bound in BENCHMARK.json; whether
              the change's median gain exceeds the parent's interquartile
              range. setup_plus_wall_s (setup_s + wall_s of each run) is an
              extra, unbounded metric.
  provenance  both commits and source fingerprints, nproc, and each side's
              provenance line from run.py (Python, numpy, scipy, BLAS and
              its thread count)

    python scripts/bench_ab.py --parent ../parent --out BENCH_<n>.json

The exit code is 1 when any run fails a correctness gate or does not
finish, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_BASE = 1234  # pair i runs both sides with seed SEED_BASE + i
EXTRA = {"name": "setup_plus_wall_s", "unit": "s", "better": "lower", "bound": None}
RUN_TIMEOUT_S = 240.0  # run.py ends itself within 180 s


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _commit(tree: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() or "none"


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `run.py --trace 0` in tree: its result line and provenance."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, lines = proc.returncode, proc.stdout.splitlines()
    except subprocess.TimeoutExpired:
        code, lines = None, []
    record = {"exit_code": code, "duration_s": round(time.monotonic() - start, 3),
              "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    for line in lines:
        if line.startswith("# provenance: "):
            record["provenance"] = json.loads(line[len("# provenance: "):])
        elif line.startswith("# source: "):
            record["source"] = line[len("# source: "):]
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        record.update(correct=result["correct"], attempted=result["attempted"],
                      failed=result["failed"],
                      metrics={k: v["value"] for k, v in result["metrics"].items()})
    if {"setup_s", "wall_s"} <= record["metrics"].keys():
        record["metrics"][EXTRA["name"]] = record["metrics"]["setup_s"] + record["metrics"]["wall_s"]
    return record


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values)}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per-metric medians, quartiles, wins and bound ratios of one workload's runs."""
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    out = {}
    for m in declared:
        name = m["name"]
        both = [(p["parent"][name], p["change"][name]) for p in pairs.values()
                if name in p.get("parent", {}) and name in p.get("change", {})]
        if not both:
            continue
        parent = _spread([a for a, _ in both])
        change = _spread([b for _, b in both])
        sign = 1.0 if m["better"] == "lower" else -1.0
        gain = sign * (parent["median"] - change["median"])
        ratio = change["median"] / parent["median"] if parent["median"] else None
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": parent, "change": change, "ratio": ratio,
            "within_bound": (None if m["bound"] is None or ratio is None
                             else sign * (ratio - 1.0) <= m["bound"]),
            "change_wins": sum(sign * (a - b) > 0 for a, b in both),
            "ties": sum(a == b for a, b in both),
            "pairs": len(both),
            "gain_exceeds_parent_iqr": gain > parent["q3"] - parent["q1"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the parent checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--workloads", nargs="+", choices=known, default=known)
    # a claimed gain needs nine wins in at least ten pairs
    parser.add_argument("--pairs", type=_positive, default=10, help="pairs per workload")
    parser.add_argument("--seconds", type=_positive, default=12,
                        help="run.py --seconds of every run")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    if not (trees["parent"] / "perfbench" / "run.py").is_file():
        parser.error(f"--parent: no perfbench/run.py under {trees['parent']}")
    declared = benchmark["end_to_end"] + [EXTRA]

    runs: list[dict] = []
    for workload in args.workloads:
        for pair in range(args.pairs):
            seed = SEED_BASE + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                record = run_once(trees[side], workload, seed, args.seconds)
                record.update(workload=workload, pair=pair, side=side, seed=seed,
                              first=position == 0)
                runs.append(record)
                m = record["metrics"]
                print(f"{workload} pair {pair + 1}/{args.pairs} {side:6s} "
                      f"{'first ' if position == 0 else 'second'}: "
                      + ", ".join(f"{k} {v:.4g}" for k, v in m.items())
                      + f"; correct {record['correct']}, "
                      f"failed {record['failed']}/{record['attempted']}", flush=True)

    provenance = {"nproc": len(os.sched_getaffinity(0)), "seconds": args.seconds,
                  "seed_base": SEED_BASE}
    for side, tree in trees.items():
        mine = [r for r in runs if r["side"] == side]
        first = next((r for r in mine if "provenance" in r), {})
        provenance[side] = {"commit": _commit(tree),
                            "source": first.get("source"),
                            "run_provenance": first.get("provenance"),
                            "blas_threads": sorted({r["provenance"]["blas_threads"]
                                                    for r in mine if "provenance" in r})}
    report = {
        "provenance": provenance,
        "workloads": {
            name: {"pairs": args.pairs,
                   "all_correct": all(r["correct"] for r in runs if r["workload"] == name),
                   "metrics": summarize([r for r in runs if r["workload"] == name], declared)}
            for name in args.workloads
        },
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"{'workload':18s} {'metric':18s} {'parent':>10s} {'change':>10s} {'ratio':>7s} "
          f"{'wins':>6s} {'>IQR':>5s}")
    for name, w in report["workloads"].items():
        for metric, s in w["metrics"].items():
            ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
            print(f"{name:18s} {metric:18s} {s['parent']['median']:10.4g} "
                  f"{s['change']['median']:10.4g} {ratio:>7s} "
                  f"{s['change_wins']:>3d}/{s['pairs']:<2d} {str(s['gain_exceeds_parent_iqr']):>5s}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
