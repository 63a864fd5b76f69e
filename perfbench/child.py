"""One xxzent run in a fresh interpreter, started by run.py.

    python3 perfbench/child.py RESULT.json MODE [CLI ARGS...]

MODE is one of
  probe     import xxzent and report the time it became ready, plus provenance
  plain     also run xxzent.cli.main(CLI ARGS) untraced
  traced    the same under the tracer, adding per-layer numbers
  selftest  traced 4-site ring scan and spin-wave point (see run.py)

The CLI writes its own output to this process's stdout; the measurements
go to RESULT.json. The BLAS thread settings are inherited untouched.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_cli(cli, argv: list[str]) -> dict:
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "cpu_s": _cpu_s() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_code": code,
    }


def main(argv: list[str]) -> int:
    result_path, mode, cli_args = Path(argv[0]), argv[1], argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    from xxzent import cli

    result = {"ready": time.monotonic(), "package": cli.__file__}
    if mode == "probe":
        result["provenance"] = provenance()
    elif mode == "plain":
        result.update(run_cli(cli, cli_args))
    elif mode in ("traced", "selftest"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["unpatched"] = tracer.unpatched()
        if mode == "traced":
            result.update(run_cli(cli, cli_args))
        else:
            out = result_path.with_suffix(".csv")
            result["exit_codes"] = [
                run_cli(cli, ["scan", "--dim", "1", "--size", "4", "--from", "0.5",
                              "--to", "1.5", "--step", "0.5", "--out", str(out)])["exit_code"],
                run_cli(cli, ["spinwave", "--dim", "2", "--delta", "0.5",
                              "--kgrid", "8"])["exit_code"],
            ]
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        result["observer_errors"] = tracer.observer_errors
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
