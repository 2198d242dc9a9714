"""Outside-in layer tracing for the end-to-end benchmark.

The traced run replaces the module-level names that the pipeline, serve
and fleet code look up at call time (``repro.core.pipeline.preprocess``,
``AnalysisCache.get``, ...) with wrappers that record one
``perf_counter_ns`` span per call.  Nothing inside ``src/`` changes: a
wrapper sits at the *call site's* binding, so a function imported into
three modules is wrapped three times.

Spans are recorded only inside a *root* span, which the benchmark opens
around each timed operation.  Every span of one operation carries the
root's index as its op id.  A layer's *self* time is its spans'
durations minus the time covered by their child spans; the root's self
time is the part of the timed operation no wrapped name accounts for
(``unattributed``).
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable

#: Stem of the root span; its self time is the unattributed remainder.
ROOT_STEM = "unattributed"


@dataclass(frozen=True)
class Wrapped:
    """One wrapped binding: ``module:attr`` or ``module:Class.attr``."""

    target: str
    #: layer metric stem the span's self time is booked to
    stem: str
    #: workloads on which this binding must be called (self-test)
    heavy: tuple[str, ...]
    #: optional ``result -> {count name: increment}`` read after the call
    observe: Callable[[Any], dict[str, int]] | None = None


_ALL = ("cold_factorize", "refactor_stream", "serve_hot", "fleet_drift")
_COLD_ANALYSIS = ("cold_factorize", "fleet_drift")


def _symbolic_counts(res) -> dict[str, int]:
    return {
        "symbolic.iterations": int(res.iterations),
        "symbolic.fill_nnz": int(res.filled.nnz),
    }


def _levelize_counts(res) -> dict[str, int]:
    return {"levelize.levels": int(res.num_levels)}


def _numeric_counts(res) -> dict[str, int]:
    return {"numeric.flops": int(res.stats.total_flops)}


#: Every binding the traced run wraps.  The pipeline names appear once
#: per module that imports them, because each import is its own binding.
WRAPPED: tuple[Wrapped, ...] = (
    Wrapped("repro.core.pipeline:preprocess", "preprocess",
            ("cold_factorize",)),
    Wrapped("repro.core.refactorize:preprocess", "preprocess",
            ("serve_hot", "fleet_drift")),
    Wrapped("repro.serve.scheduler:preprocess", "preprocess",
            ("fleet_drift",)),
    Wrapped("repro.core.pipeline:outofcore_symbolic", "symbolic",
            ("cold_factorize",), _symbolic_counts),
    Wrapped("repro.core.refactorize:outofcore_symbolic", "symbolic",
            ("serve_hot", "fleet_drift"), _symbolic_counts),
    Wrapped("repro.core.pipeline:build_dependency_graph", "graph",
            ("cold_factorize",)),
    Wrapped("repro.core.refactorize:build_dependency_graph", "graph",
            ("serve_hot", "fleet_drift")),
    Wrapped("repro.core.incremental:build_dependency_graph", "graph",
            ("fleet_drift",)),
    Wrapped("repro.core.pipeline:levelize_gpu_dynamic", "levelize",
            ("cold_factorize",), _levelize_counts),
    Wrapped("repro.core.refactorize:levelize_gpu_dynamic", "levelize",
            ("serve_hot", "fleet_drift"), _levelize_counts),
    Wrapped("repro.core.pipeline:numeric_factorize_gpu", "numeric.charge",
            ("cold_factorize",), _numeric_counts),
    Wrapped("repro.core.refactorize:numeric_factorize_gpu",
            "numeric.charge",
            ("refactor_stream", "serve_hot", "fleet_drift"),
            _numeric_counts),
    Wrapped("repro.core.numeric_gpu:factorize_in_place", "numeric.kernel",
            _ALL),
    Wrapped("repro.numeric.vectorized:_build_plan", "numeric.plan",
            _COLD_ANALYSIS),
    Wrapped("repro.core.numeric_gpu:extract_lu", "numeric.extract", _ALL),
    Wrapped("repro.core.pipeline:lu_solve_permuted", "trisolve",
            ("cold_factorize",)),
    Wrapped("repro.core.refactorize:lu_solve_permuted", "trisolve",
            ("refactor_stream", "serve_hot", "fleet_drift")),
    Wrapped("repro.serve.scheduler:analyze", "refactorize.analyze",
            ("serve_hot", "fleet_drift")),
    Wrapped("repro.core.refactorize:ReusableAnalysis.refactorize",
            "refactorize.pass",
            ("refactor_stream", "serve_hot", "fleet_drift")),
    Wrapped("repro.core.refactorize:ReusableAnalysis._build_scatter_map",
            "refactorize.scatter", ("serve_hot", "fleet_drift")),
    Wrapped("repro.serve.scheduler:best_donor", "incremental.probe",
            ("fleet_drift",)),
    Wrapped("repro.serve.scheduler:incremental_analyze_pre",
            "incremental.splice", ("fleet_drift",)),
    Wrapped("repro.serve.scheduler:strip_explicit_zeros", "serve.key",
            ("serve_hot", "fleet_drift")),
    Wrapped("repro.serve.scheduler:pattern_key", "serve.key",
            ("serve_hot", "fleet_drift")),
    Wrapped("repro.serve.scheduler:values_key", "serve.key",
            ("serve_hot", "fleet_drift")),
    Wrapped("repro.fleet.fleet:pattern_key", "serve.key", ("fleet_drift",)),
    Wrapped("repro.serve.cache:AnalysisCache.get", "serve.cache",
            ("serve_hot", "fleet_drift")),
    Wrapped("repro.serve.cache:AnalysisCache.put", "serve.cache",
            ("serve_hot", "fleet_drift")),
    Wrapped("repro.serve.cache:AnalysisCache.peek", "serve.cache",
            ("fleet_drift",)),
    Wrapped("repro.serve.cache:AnalysisCache.family_members",
            "serve.cache", ("fleet_drift",)),
    Wrapped("repro.serve.service:SolverService.submit", "serve.dispatch",
            ("serve_hot", "fleet_drift")),
    Wrapped("repro.serve.scheduler:BatchScheduler.drain", "serve.dispatch",
            ("serve_hot", "fleet_drift")),
    Wrapped("repro.fleet.fleet:Fleet.submit", "fleet.submit",
            ("fleet_drift",)),
    Wrapped("repro.fleet.fleet:Fleet.flush", "fleet.flush",
            ("fleet_drift",)),
    Wrapped("repro.fleet.l2cache:L2Cache.fetch", "fleet.l2",
            ("fleet_drift",)),
    Wrapped("repro.fleet.l2cache:L2Cache.fetch_family", "fleet.l2",
            ("fleet_drift",)),
    Wrapped("repro.fleet.l2cache:L2Cache.put", "fleet.l2",
            ("fleet_drift",)),
)

#: Layer stems in report order (the root's stem last).
STEMS: tuple[str, ...] = tuple(dict.fromkeys(w.stem for w in WRAPPED))
#: Counts the ``observe`` hooks report.
COUNT_NAMES = (
    "symbolic.iterations",
    "symbolic.fill_nnz",
    "levelize.levels",
    "numeric.flops",
)


def resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{target} does not resolve")
    return owner, attr


class Tracer:
    """In-memory span recorder plus the wrapper installer."""

    def __init__(self) -> None:
        #: (name, stem, start_ns, end_ns, parent span index, op id)
        self.spans: list[tuple[str, str, int, int, int, int]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.root_ns = 0
        self.wrapped_calls = 0
        # open frames:
        # [name, stem, start_ns, child_ns, parent, op id, span index]
        self._stack: list[list] = []
        self._next_op = 0
        self._installed: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------
    def _enter(self, name: str, stem: str) -> None:
        if self._stack:
            parent = self._stack[-1]
            op_id = parent[5]
            parent_index = parent[6]
        else:
            op_id = self._next_op
            self._next_op += 1
            parent_index = -1
        index = len(self.spans)
        self.spans.append((name, stem, 0, 0, parent_index, op_id))
        self._stack.append(
            [name, stem, perf_counter_ns(), 0, parent_index, op_id, index]
        )

    def _exit(self) -> None:
        end = perf_counter_ns()
        name, stem, start, child, parent, op_id, index = self._stack.pop()
        duration = end - start
        self.self_ns[stem] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.root_ns += duration
        self.spans[index] = (name, stem, start, end, parent, op_id)
        self.calls[name] += 1

    @contextmanager
    def root(self, name: str):
        """Span around one timed operation; wrapped calls record only
        inside one."""
        self._enter(name, ROOT_STEM)
        try:
            yield
        finally:
            self._exit()

    # -- wrappers ----------------------------------------------------
    def wrap(self, fn: Callable, spec: Wrapped) -> Callable:
        tracer = self
        name = spec.target
        stem = spec.stem
        observe = spec.observe

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            tracer.wrapped_calls += 1
            tracer._enter(name, stem)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if observe is not None:
                tracer.counts.update(observe(result))
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        """Wrap every binding of :data:`WRAPPED`."""
        for spec in WRAPPED:
            owner, attr = resolve(spec.target)
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(original, spec))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reports -----------------------------------------------------
    def chrome_trace(self) -> dict:
        """The spans as a Chrome ``traceEvents`` document (microseconds,
        relative to the first span)."""
        t0 = min((s[2] for s in self.spans), default=0)
        events = [
            {
                "name": name.partition(":")[2] or name,
                "cat": stem,
                "ph": "X",
                "ts": (start - t0) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"op": op_id, "parent": parent, "target": name},
            }
            for name, stem, start, end, parent, op_id in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)


def wrapper_cost_ns(calls: int = 20000) -> float:
    """Calibrated host cost of one wrapped call, in nanoseconds: a
    wrapped no-op inside a root span minus the bare no-op."""

    def noop() -> None:
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, Wrapped("calibration:noop", "noop", ()))
    best = float("inf")
    for _ in range(3):
        with tracer.root("calibration"):
            t0 = perf_counter_ns()
            for _ in range(calls):
                wrapped()
            t1 = perf_counter_ns()
        t2 = perf_counter_ns()
        for _ in range(calls):
            noop()
        t3 = perf_counter_ns()
        tracer.spans.clear()
        best = min(best, ((t1 - t0) - (t3 - t2)) / calls)
    return max(best, 0.0)
