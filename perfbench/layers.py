"""Outside-in per-layer tracing for traced runs.

The benchmark wraps public functions of the program under test where the
callers look them up: callers bind names at import time, so a function
imported into ``repro.analyzer.planner`` is wrapped there as well as in
its defining module.  Nothing under ``src/`` changes.  Untraced runs do
not import this module.

Spans are kept in memory (name, start, end, parent, op id, an optional
note such as a hit flag) and written out when the run ends.  A span's
self time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: (span name, "module:attribute path") of every wrapped function.
TARGETS: tuple[tuple[str, str], ...] = (
    ("estimators.evaluate_layer", "repro.analyzer.planner:evaluate_layer"),
    ("estimators.evaluate_layer", "repro.analyzer.delta:evaluate_layer"),
    ("estimators.evaluate_plans", "repro.estimators.evaluate:evaluate_plans"),
    ("analyzer.select", "repro.analyzer.planner:select_policy"),
    ("analyzer.select", "repro.analyzer.delta:select_policy"),
    ("analyzer.assign", "repro.analyzer.planner:make_assignment"),
    ("analyzer.assign", "repro.analyzer.delta:make_assignment"),
    ("analyzer.interlayer", "repro.analyzer.planner:apply_opportunistic_interlayer"),
    ("analyzer.interlayer", "repro.analyzer.planner:plan_chain_with_interlayer"),
    ("analyzer.plan", "repro.manager:plan_heterogeneous"),
    ("analyzer.plan", "repro.manager:plan_homogeneous"),
    ("analyzer.plan", "repro.analyzer.planner:plan_homogeneous"),
    ("analyzer.plan", "repro.analyzer.delta:SweepPlanner.plan"),
    ("audit", "repro.obs.audit:TrailBuilder.add_layer"),
    ("audit", "repro.obs.audit:TrailBuilder.rechoose"),
    ("audit", "repro.obs.audit:TrailBuilder.build"),
    ("dram.bandwidth", "repro.estimators.latency:dram_effective_bandwidth"),
    ("dram.simulate", "repro.dram.trace:simulate_schedule"),
    ("dram.simulate", "repro.dram.planstats:simulate_schedule"),
    ("dram.schedule", "repro.dram.trace:schedule_accesses"),
    ("dram.replay", "repro.dram.trace:simulate_accesses"),
    ("cache.key", "repro.experiments.cache:plan_cache_key"),
    ("cache.lookup", "repro.experiments.cache:lookup"),
    ("cache.store", "repro.experiments.cache:store"),
    ("cache.prune", "repro.serve.cache_index:CacheIndex.prune"),
    ("export", "repro.serve.handlers:plan_to_dict"),
    ("export", "repro.analyzer.plan:ExecutionPlan.explain"),
    ("serve.execute", "repro.serve.server:execute"),
    ("serve.encode", "repro.serve.server:canonical_json"),
    ("manager.plan_cached", "repro.manager:MemoryManager.plan_cached_detail"),
)

#: Span name -> note taken from the wrapped call's result.
NOTES: dict[str, Callable[[Any], float]] = {
    "cache.lookup": lambda result: 1.0 if result[0] else 0.0,
    "cache.prune": lambda result: float(result.evicted_count),
    "dram.schedule": lambda result: float(len(result)),
}

#: Registry counters read around every timed op.
COUNTERS: tuple[str, ...] = (
    "planner_candidates_count",
    "planner_layers_reused_count",
    "planner_layers_replanned_count",
)

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS: dict[str, str] = {
    "policies.plan_calls": "calls/op",
    "policies.self_ms": "ms/op",
    "estimators.evaluate_layer_calls": "calls/op",
    "estimators.evaluate_plans_calls": "calls/op",
    "estimators.memo_hit_ratio": "ratio",
    "estimators.candidates_count": "count/op",
    "estimators.self_ms": "ms/op",
    "analyzer.select_ms": "ms/op",
    "analyzer.assign_ms": "ms/op",
    "analyzer.interlayer_ms": "ms/op",
    "analyzer.plan_self_ms": "ms/op",
    "analyzer.delta_reuse_ratio": "ratio",
    "audit.self_ms": "ms/op",
    "dram.bandwidth_calls": "calls/op",
    "dram.simulate_calls": "calls/op",
    "dram.memo_hit_ratio": "ratio",
    "dram.requests_replayed": "count/op",
    "dram.self_ms": "ms/op",
    "dram.row_hit_ratio": "ratio",
    "dram_mcycles": "Mcycles",
    "cache.key_ms": "ms/op",
    "cache.lookup_ms": "ms/op",
    "cache.store_ms": "ms/op",
    "cache.prune_ms": "ms/op",
    "cache.hit_ratio": "ratio",
    "cache.evictions_count": "count/op",
    "cache.bytes_per_entry": "bytes",
    "export.self_ms": "ms/op",
    "export.bytes_per_plan": "bytes",
    "serve.execute_ms": "ms/op",
    "serve.encode_ms": "ms/op",
    "serve.transport_ms": "ms/op",
    "manager.plan_cached_self_ms": "ms/op",
    "trace.overhead_ops_per_s": "ops/s",
}

#: Metrics predicted to be exactly zero on a workload ("≡0" in README.md).
PREDICTED_ZERO: dict[str, tuple[str, ...]] = {
    "plan-cold": (
        "dram.bandwidth_calls", "dram.simulate_calls", "dram.requests_replayed",
        "dram.self_ms", "dram_mcycles",
        "serve.execute_ms", "serve.encode_ms", "serve.transport_ms",
    ),
    "plan-dram": (
        "cache.key_ms", "cache.lookup_ms", "cache.store_ms", "cache.prune_ms",
        "cache.evictions_count", "cache.bytes_per_entry",
        "export.self_ms", "export.bytes_per_plan",
        "serve.execute_ms", "serve.encode_ms", "serve.transport_ms",
        "manager.plan_cached_self_ms",
    ),
    "serve-hot": (
        "policies.plan_calls", "policies.self_ms",
        "estimators.evaluate_layer_calls", "estimators.evaluate_plans_calls",
        "estimators.candidates_count", "estimators.self_ms",
        "analyzer.select_ms", "analyzer.assign_ms", "analyzer.interlayer_ms",
        "analyzer.plan_self_ms", "audit.self_ms",
        "dram.bandwidth_calls", "dram.simulate_calls", "dram.requests_replayed",
        "dram.self_ms", "dram_mcycles", "cache.store_ms", "cache.prune_ms",
        "cache.evictions_count",
    ),
}


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        #: (span id, name, start ns, end ns, parent id, op id, note)
        self.spans: list[tuple[int, str, int, int, int | None, int | None, float | None]] = []
        #: Spans are recorded only while active (timed ops, not checks).
        self.active = False
        #: Op id stamped on spans; set by the single-caller workloads.
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per call while the recorder is active."""
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            value: float | None = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    value = note(result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.op, value))

        return traced

    def install(self) -> None:
        """Wrap every target; a missing target is an error, never a silent zero."""
        from repro.policies.registry import FALLBACK_POLICY, NAMED_POLICIES

        owners: list[tuple[str, Any, str]] = [
            ("policies.plan", type(policy), "plan")
            for policy in (*NAMED_POLICIES, FALLBACK_POLICY)
        ]
        for name, target in TARGETS:
            module_name, path = target.split(":")
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            owners.append((name, owner, attr))
        for name, owner, attr in owners:
            original = (
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
            setattr(owner, attr, self.wrap(name, original))

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines of named fields."""
        fields = ("id", "name", "start_ns", "end_ns", "parent", "op", "note")
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def read_counters() -> dict[str, float]:
    """Current values of the registry counters in :data:`COUNTERS`."""
    from repro.obs import metrics_registry

    registry = metrics_registry()
    return {name: float(registry.counter(name).value) for name in COUNTERS}


def fold(spans: list[tuple[Any, ...]]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_ns``, ``total_ns`` and ``note`` sum.

    Also counts ``dram.simulate`` spans whose parent is a bandwidth span
    (``memo_misses``): those are the bandwidth memo's misses.
    """
    child_ns: dict[int, int] = defaultdict(int)
    names: dict[int, str] = {}
    for span_id, name, start, end, parent, _op, _note in spans:
        names[span_id] = name
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_ns": 0, "total_ns": 0, "note": 0.0, "memo_misses": 0}
    )
    for span_id, name, start, end, parent, _op, note in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[span_id]
        entry["note"] += note or 0.0
        if name == "dram.simulate" and names.get(parent) == "dram.bandwidth":
            entry["memo_misses"] += 1
    return out


def per_layer(
    folded: dict[str, dict[str, float]],
    counters: dict[str, float],
    ops: int,
    extra: dict[str, float],
) -> dict[str, float]:
    """The per-layer metrics of one run (``*_ms`` and counts are per op).

    ``extra`` carries the figures the worker measures itself (DRAM row
    hits and cycles, cache bytes per entry, plan bytes, transport time).
    """
    def total(key: str, *names: str) -> float:
        return sum(folded[n][key] for n in names if n in folded)

    def calls(*names: str) -> float:
        return total("calls", *names)

    def self_ms(*names: str) -> float:
        return total("self_ns", *names) / 1e6 / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    layer_calls = calls("estimators.evaluate_layer")
    bandwidth_calls = calls("dram.bandwidth")
    reused = counters.get("planner_layers_reused_count", 0.0)
    replanned = counters.get("planner_layers_replanned_count", 0.0)
    metrics = {
        "policies.plan_calls": calls("policies.plan") / ops,
        "policies.self_ms": self_ms("policies.plan"),
        "estimators.evaluate_layer_calls": layer_calls / ops,
        "estimators.evaluate_plans_calls": calls("estimators.evaluate_plans") / ops,
        "estimators.memo_hit_ratio": (
            1.0 - ratio(calls("estimators.evaluate_plans"), layer_calls) if layer_calls else 0.0
        ),
        "estimators.candidates_count": counters.get("planner_candidates_count", 0.0) / ops,
        "estimators.self_ms": self_ms("estimators.evaluate_layer", "estimators.evaluate_plans"),
        "analyzer.select_ms": self_ms("analyzer.select"),
        "analyzer.assign_ms": self_ms("analyzer.assign"),
        "analyzer.interlayer_ms": self_ms("analyzer.interlayer"),
        "analyzer.plan_self_ms": self_ms("analyzer.plan"),
        "analyzer.delta_reuse_ratio": ratio(reused, reused + replanned),
        "audit.self_ms": self_ms("audit"),
        "dram.bandwidth_calls": bandwidth_calls / ops,
        "dram.simulate_calls": calls("dram.simulate") / ops,
        "dram.memo_hit_ratio": (
            1.0 - ratio(total("memo_misses", "dram.simulate"), bandwidth_calls)
            if bandwidth_calls
            else 0.0
        ),
        "dram.requests_replayed": total("note", "dram.schedule") / ops,
        "dram.self_ms": self_ms("dram.bandwidth", "dram.simulate", "dram.schedule", "dram.replay"),
        "cache.key_ms": self_ms("cache.key"),
        "cache.lookup_ms": self_ms("cache.lookup"),
        "cache.store_ms": self_ms("cache.store"),
        "cache.prune_ms": self_ms("cache.prune"),
        "cache.hit_ratio": ratio(total("note", "cache.lookup"), calls("cache.lookup")),
        "cache.evictions_count": total("note", "cache.prune") / ops,
        "export.self_ms": self_ms("export"),
        "serve.execute_ms": self_ms("serve.execute"),
        "serve.encode_ms": self_ms("serve.encode"),
        "manager.plan_cached_self_ms": self_ms("manager.plan_cached"),
    }
    # Measured by the worker itself, and zero where the workload has none.
    for name in ("dram.row_hit_ratio", "dram_mcycles", "cache.bytes_per_entry",
                 "export.bytes_per_plan", "serve.transport_ms"):
        metrics[name] = extra.get(name, 0.0)
    # The tracing overhead needs an untraced run; run.py adds it.
    wanted = [name for name in PER_LAYER_UNITS if name != "trace.overhead_ops_per_s"]
    missing = set(wanted) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: metrics[name] for name in wanted}
