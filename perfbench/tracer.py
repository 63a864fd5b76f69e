"""Outside-in tracer for the xxzent package.

Wraps the public functions of each xxzent module from outside the program;
nothing in the package itself changes. Every module-level binding of a
wrapped function is replaced: the module attribute, names imported into
other modules (``from .lattice import build_lattice``), and functions held
in module-level dicts, lists and tuples (``spinwave._BRANCHES``,
``verify.SUITES``). Calls made through any of them are recorded.

Each wrapped call records one span (name, start, end, parent) in memory;
`Tracer.metrics` folds the spans and the counters into per-layer numbers
named ``<module>.<function>.<quantity>`` once the run has ended. A target
missing from the package (renamed or deleted by a later change) is listed
in `Tracer.absent` instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict

PACKAGE = "xxzent"

# (span name, module, attribute path). Several targets may share one span
# name; a call nested directly inside a span of the same name (the
# energy_per_site dispatcher calling a branch) is not counted again.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("lattice.build_lattice", "lattice", "build_lattice"),
    ("ed.enumerate_basis", "ed", "enumerate_basis"),
    ("ed.build_hamiltonian", "ed", "build_hamiltonian"),
    ("ed.lanczos_ground", "ed", "lanczos_ground"),
    ("ed.ground_state_gap", "ed", "ground_state_gap"),
    ("ed.dense", "ed", "dense_ground_oracle"),
    ("ed.dense", "ed", "dense_low_pair"),
    ("ed.matvec", "ed", "SparseHamiltonian.apply"),
    ("ed.index_of_many", "ed", "SectorBasis.index_of_many"),
    ("entanglement.correlators", "entanglement", "correlators"),
    ("entanglement.mean_bond_correlators", "entanglement", "mean_bond_correlators"),
    ("entanglement.two_site_rdm", "entanglement", "two_site_rdm"),
    ("entanglement.wootters_oracle", "entanglement", "wootters_oracle"),
    ("spinwave.gamma_grid", "spinwave", "gamma_grid"),
    ("spinwave.energy_per_site", "spinwave", "energy_per_site"),
    ("spinwave.energy_per_site", "spinwave", "energy_per_site_ising"),
    ("spinwave.energy_per_site", "spinwave", "energy_per_site_planar"),
    ("spinwave.gzz_per_bond", "spinwave", "gzz_per_bond"),
    ("analysis.scan_ed", "analysis", "scan_ed"),
    ("analysis.scan_spinwave", "analysis", "scan_spinwave"),
    ("analysis.hellmann_feynman_residual", "analysis", "hellmann_feynman_residual"),
    ("verify.route-equivalence", "verify", "check_route_equivalence"),
    ("verify.hellmann-feynman", "verify", "check_hellmann_feynman"),
    ("verify.concavity", "verify", "check_concavity"),
    ("verify.argmax", "verify", "check_argmax"),
    ("verify.spinwave", "verify", "check_spinwave"),
)

# Counts the observers below add up, reported as 0 when nothing fed them.
COUNTERS = (
    "ed.basis_states", "ed.nnz", "ed.lanczos_iters", "ed.residual_max", "ed.lanczos_errors",
    "ed.krylov_bytes_computed", "ed.index_lookups", "spinwave.quad_points",
    "verify.checks", "verify.checks_failed",
)


def _freeze(value):
    """Hashable stand-in for a call argument (arrays become float tuples)."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class Tracer:
    """Span recorder plus the counters the observers below fill in."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: defaultdict[str, float] = defaultdict(float, dict.fromkeys(COUNTERS, 0))
        self.absent: list[str] = []
        self.observer_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._undo: list = []
        self._solve_keys: dict[int, tuple] = {}
        self._solves: list = []
        self._grids: list = []
        self._scans: list = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every target and rebind every module-level reference to it."""
        for span, mod, path in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{mod}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(f"{mod}.{path}")
                continue
            wrapper = self._wrap(span, fn)
            self._wrappers[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
        for module in self._modules():
            self._rebind(vars(module), self._set_item)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def unpatched(self) -> list[str]:
        """Module-level references that still point at an unwrapped target."""
        found = []
        for module in self._modules():
            self._rebind(vars(module), lambda c, k, v: found.append(f"{module.__name__}:{k}"))
        return found

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def _substitute(self, value):
        hit = self._wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            return hit[1]
        if type(value) is tuple:
            items = tuple(self._substitute(v) for v in value)
            if any(a is not b for a, b in zip(items, value)):
                return items
        return value

    def _rebind(self, namespace: dict, assign) -> None:
        """Call assign(container, key, new) for every binding to a target:
        namespace entries, and items of the dicts and lists it holds."""
        for key, value in list(namespace.items()):
            new = self._substitute(value)
            if new is not value:
                assign(namespace, key, new)
            elif isinstance(value, (dict, list)):
                keys = value.keys() if isinstance(value, dict) else range(len(value))
                for k in list(keys):
                    new = self._substitute(value[k])
                    if new is not value[k]:
                        assign(value, k, new)

    def _set(self, owner, attr, new) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _set_item(self, container, key, new) -> None:
        old = container[key]
        container[key] = new
        self._undo.append(lambda: container.__setitem__(key, old))

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if observe is not None:
                    self._observe(name, observe, signature, args, kwargs, result, error)

        return wrapper

    def _observe(self, name, observe, signature, args, kwargs, result, error) -> None:
        # An observer reads fields of the program's arguments and results;
        # if a later change renames one, the quantity is reported as
        # unobservable and the traced run carries on.
        try:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            observe(self, call.arguments, result, error)
        except Exception as exc:  # a boundary that must keep running
            self.observer_errors.setdefault(name, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------- metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers: <span>.calls/.s/.self_s plus the counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for span, _, _ in TARGETS:
            out[f"{span}.calls"] = 0
            out[f"{span}.s"] = 0.0
            out[f"{span}.self_s"] = 0.0
        for k, (name, start, end, parent) in enumerate(spans):
            out[f"{name}.self_s"] += end - start - child_time[k]
            if parent >= 0 and spans[parent][0] == name:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
        out.update(self.counts)
        out["ed.matvecs"] = out["ed.matvec.calls"]
        out["ed.distinct_solves_frac"] = _distinct_frac(self._solves)
        out["spinwave.distinct_grids_frac"] = _distinct_frac(self._grids)
        out["analysis.distinct_scans_frac"] = _distinct_frac(self._scans)
        return dict(out)


def _distinct_frac(keys: list) -> float:
    """Distinct keys over all keys; 0 when nothing was recorded."""
    return len(set(keys)) / len(keys) if keys else 0.0


# ---------------------------------------------------------------- observers
# Each receives (tracer, bound arguments with defaults, result, exception).


def _basis(t, call, result, error):
    if error is None:
        t.counts["ed.basis_states"] += len(result)


def _hamiltonian(t, call, result, error):
    if error is None:
        t.counts["ed.nnz"] += result.nnz
        key = (call["lattice"].spec, call["basis"].n_up)
        t._solve_keys[id(result)] = (weakref.ref(result), key)


def _lanczos(t, call, result, error):
    h = call["h"]
    tagged = t._solve_keys.get(id(h))
    lattice_key = tagged[1] if tagged and tagged[0]() is h else (h.dimension, h.nnz)
    t._solves.append((lattice_key, float(h.delta), float(call["m"])))
    if error is not None:
        t.counts["ed.lanczos_errors"] += 1
        gs = getattr(error, "best", None)
    else:
        gs = result[0] if isinstance(result, tuple) else result
    if gs is not None:
        t.counts["ed.lanczos_iters"] += gs.iterations
        t.counts["ed.residual_max"] = max(t.counts["ed.residual_max"], gs.residual)
        t.counts["ed.krylov_bytes_computed"] = max(
            t.counts["ed.krylov_bytes_computed"], gs.iterations * h.dimension * 8
        )


def _index_lookups(t, call, result, error):
    t.counts["ed.index_lookups"] += len(call["configs"])


def _gamma_grid(t, call, result, error):
    t.counts["spinwave.quad_points"] += call["k_points"] ** call["dimension"]
    t._grids.append((call["dimension"], call["k_points"]))


def _scan(t, call, result, error):
    t._scans.append(tuple((k, _freeze(v)) for k, v in call.items()))


def _suite(t, call, result, error):
    if error is None:
        t.counts["verify.checks"] += len(result)
        t.counts["verify.checks_failed"] += sum(not r.passed for r in result)


OBSERVERS = {
    "ed.enumerate_basis": _basis,
    "ed.build_hamiltonian": _hamiltonian,
    "ed.lanczos_ground": _lanczos,
    "ed.index_of_many": _index_lookups,
    "spinwave.gamma_grid": _gamma_grid,
    "analysis.scan_ed": _scan,
    "analysis.scan_spinwave": _scan,
    **{span: _suite for span, mod, _ in TARGETS if mod == "verify"},
}
