"""Spans around entkit's public functions, recorded from outside the package.

`Tracer.install` wraps every public function of each layer module and binds
the wrapper under the same name in every entkit module that imported the
original, because modules call each other's functions through names bound
at import time. `PureState.__post_init__` is wrapped too, so validation of
each constructed state is a span of the states layer.

Spans live in one in-memory list: key, layer, parent span index, start,
end, and a small observation taken from the call (a matrix size, a branch
count). A span's self time is its duration minus the durations of its
direct children; summed per layer, self times plus the time outside every
span add up to the traced wall time exactly.

Names that a metric needs but the package no longer has are reported in
`missing`, and the metrics built on them are left out rather than failing
the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = (
    "linalg",
    "states",
    "entropy",
    "builders",
    "schmidt",
    "reducibility",
    "protocols",
    "mregs",
    "cli",
)

# per-layer metric -> (unit, names it is built on)
METRICS = {
    "linalg.self_s": ("s", ()),
    "linalg.calls": ("count", ("linalg.hermitian_eigensystem", "linalg.hermitian_eigenvalues")),
    "linalg.calls.d_le4": ("count", ("linalg.hermitian_eigensystem", "linalg.hermitian_eigenvalues")),
    "linalg.calls.d_le16": ("count", ("linalg.hermitian_eigensystem", "linalg.hermitian_eigenvalues")),
    "linalg.calls.d_le64": ("count", ("linalg.hermitian_eigensystem", "linalg.hermitian_eigenvalues")),
    "linalg.calls.d_gt64": ("count", ("linalg.hermitian_eigensystem", "linalg.hermitian_eigenvalues")),
    "states.self_s": ("s", ()),
    "states.reduced_gram.calls": ("count", ("states.reduced_gram",)),
    "states.reduced_gram.bytes_computed": ("B", ("states.reduced_gram",)),
    "states.canonical_partitions.calls": ("count", ("states.canonical_partitions",)),
    "states.purestate.constructed": ("count", ("states.PureState",)),
    "entropy.self_s": ("s", ()),
    "entropy.vector.calls": ("count", ("entropy.entropy_vector",)),
    "entropy.cuts": ("count", ("entropy.exact_entropy",)),
    "entropy.exact_ratio": ("ratio", ("entropy.exact_entropy",)),
    "protocols.self_s": ("s", ()),
    "protocols.run.calls": ("count", ("protocols.run",)),
    "protocols.branches": ("count", ("protocols.run",)),
    "protocols.monotonicity_s": ("s", ("protocols.run", "entropy.entropy_vector")),
    "protocols.load_s": ("s", ("protocols.load_protocol",)),
    "protocols.load_bytes": ("B", ("protocols.load_protocol",)),
    "mregs.self_s": ("s", ()),
    "mregs.solve.calls": ("count", ("mregs.solve_coefficients",)),
    "mregs.infeasible": ("count", ("mregs.solve_coefficients",)),
    "mregs.generators_max": ("count", ("mregs.solve_coefficients",)),
    "schmidt.self_s": ("s", ()),
    "schmidt.type_classes": ("count", ("schmidt.concentration_yield_distribution", "schmidt.dilution_retained_types")),
    "reducibility.self_s": ("s", ()),
    "reducibility.classify.calls": ("count", ("reducibility.classify_states",)),
    "reducibility.unknown_ratio": ("ratio", ("reducibility.classify_states",)),
    "builders.self_s": ("s", ()),
    "builders.parse.calls": ("count", ("builders.parse_named_state",)),
    "cli.self_s": ("s", ()),
    "cli.stdout_bytes": ("B", ("cli.main",)),
    "trace.overhead": ("ratio", ()),
    "trace.unattributed_s": ("s", ()),
}


def _matrix_size(args, kwargs, result):
    matrix = args[0] if args else kwargs.get("matrix")
    return len(matrix)


def _state_dim(args, kwargs, result):
    state = args[0] if args else kwargs.get("state")
    return int(getattr(state, "dim", 0))


def _file_size(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path)


# what each span keeps from its call, by key
_OBSERVE = {
    "linalg.hermitian_eigensystem": _matrix_size,
    "linalg.hermitian_eigenvalues": _matrix_size,
    "states.reduced_gram": _state_dim,
    "entropy.exact_entropy": lambda a, k, r: r is not None,
    "protocols.run": lambda a, k, r: len(r.branches),
    "protocols.load_protocol": _file_size,
    "mregs.solve_coefficients": lambda a, k, r: (
        type(r).__name__ == "Infeasible",
        len(getattr(a[0] if a else k.get("gens"), "labels", ())),
    ),
    "schmidt.concentration_yield_distribution": lambda a, k, r: len(r),
    "schmidt.dilution_retained_types": lambda a, k, r: len(r),
    "reducibility.classify_states": lambda a, k, r: str(r.verdict) == "Unknown",
}


class Tracer:
    """Installs span-recording wrappers into a freshly imported entkit."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [key, layer, parent, start, end, observed]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []
        self.missing: list[str] = []

    def _wrap(self, key: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVE.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [key, layer, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, kwargs, result)
            return result

        return wrapper

    def _bind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"entkit.{layer}")
            except ImportError:
                self.missing.append(layer)
        everywhere = [importlib.import_module("entkit")] + list(modules.values())
        for layer, module in modules.items():
            names = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for name in names:
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", layer, fn)
                for other in everywhere:
                    if vars(other).get(name) is fn:
                        self._bind(other, name, wrapper)
                self.wrapped.append(f"{layer}.{name}")
        pure_state = getattr(modules.get("states"), "PureState", None)
        if pure_state is not None and "__post_init__" in vars(pure_state):
            post_init = vars(pure_state)["__post_init__"]
            self._bind(pure_state, "__post_init__", self._wrap("states.PureState", "states", post_init))
            self.wrapped.append("states.PureState")
        needed = {name for _, names in METRICS.values() for name in names}
        self.missing += sorted(needed - set(self.wrapped))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def metrics(self, wall_s: float, untraced_wall_s: float, rounds: int, stdout_bytes: int) -> dict:
        """Per-layer figures per round of the job list."""
        spans = self.spans
        child = [0.0] * len(spans)
        for key, layer, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        count: dict[str, int] = {}
        eigen = {"d_le4": 0, "d_le16": 0, "d_le64": 0, "d_gt64": 0}
        gram_bytes = branches = load_bytes = infeasible = generators_max = 0
        type_classes = exact_hits = unknown = 0
        monotonicity = load_s = 0.0
        for i, (key, layer, parent, start, end, seen) in enumerate(spans):
            self_s[layer] += (end - start) - child[i]
            count[key] = count.get(key, 0) + 1
            parent_key = spans[parent][0] if parent >= 0 else ""
            if layer == "linalg" and not parent_key.startswith("linalg."):
                size = "d_le4" if seen <= 4 else "d_le16" if seen <= 16 else "d_le64" if seen <= 64 else "d_gt64"
                eigen[size] += 1
            elif key == "states.reduced_gram":
                gram_bytes += 16 * seen
            elif key == "entropy.exact_entropy":
                exact_hits += bool(seen)
            elif key == "entropy.entropy_vector" and parent_key == "protocols.run":
                monotonicity += end - start
            elif key == "protocols.run":
                branches += seen
            elif key == "protocols.load_protocol":
                load_s += end - start
                load_bytes += seen
            elif key == "mregs.solve_coefficients":
                infeasible += seen[0]
                generators_max = max(generators_max, seen[1])
            elif key.startswith("schmidt.") and seen is not None:
                type_classes += seen
            elif key == "reducibility.classify_states":
                unknown += seen
        cuts = count.get("entropy.exact_entropy", 0)
        classified = count.get("reducibility.classify_states", 0)
        per_round = {
            "linalg.calls": sum(eigen.values()),
            **{f"linalg.calls.{k}": v for k, v in eigen.items()},
            "states.reduced_gram.calls": count.get("states.reduced_gram", 0),
            "states.reduced_gram.bytes_computed": gram_bytes,
            "states.canonical_partitions.calls": count.get("states.canonical_partitions", 0),
            "states.purestate.constructed": count.get("states.PureState", 0),
            "entropy.vector.calls": count.get("entropy.entropy_vector", 0),
            "entropy.cuts": cuts,
            "protocols.run.calls": count.get("protocols.run", 0),
            "protocols.branches": branches,
            "protocols.monotonicity_s": monotonicity,
            "protocols.load_s": load_s,
            "protocols.load_bytes": load_bytes,
            "mregs.solve.calls": count.get("mregs.solve_coefficients", 0),
            "mregs.infeasible": infeasible,
            "schmidt.type_classes": type_classes,
            "reducibility.classify.calls": classified,
            "builders.parse.calls": count.get("builders.parse_named_state", 0),
            "cli.stdout_bytes": stdout_bytes,
            "trace.unattributed_s": wall_s - sum(self_s.values()),
            **{f"{layer}.self_s": v for layer, v in self_s.items()},
        }
        out = {name: value / rounds for name, value in per_round.items()}
        out["mregs.generators_max"] = generators_max
        out["entropy.exact_ratio"] = exact_hits / cuts if cuts else 0.0
        out["reducibility.unknown_ratio"] = unknown / classified if classified else 0.0
        out["trace.overhead"] = wall_s / untraced_wall_s
        absent = {
            metric
            for metric, (_, names) in METRICS.items()
            if any(name in self.missing for name in names)
        }
        absent |= {f"{layer}.self_s" for layer in self.missing if layer in LAYERS}
        return {
            name: {"value": out[name], "unit": unit}
            for name, (unit, _) in METRICS.items()
            if name not in absent
        }
