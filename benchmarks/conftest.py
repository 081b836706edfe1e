"""Benchmark harness helpers.

Each benchmark regenerates one paper artifact end to end.  The experiment
layer memoizes plans at two levels — an in-process ``lru_cache`` and the
persistent on-disk cache (:mod:`repro.experiments.cache`) — which is right
for interactive use but would let measured benchmark rounds hit caches.
The whole benchmark session therefore runs against an isolated temporary
cache directory, and ``fresh`` clears both levels so every measured round
does the full analysis.

Every benchmark session additionally emits two perf-trajectory artifacts
next to the repository root (CI uploads both):

* ``BENCH_experiments.json`` — the experiment engine's smoke subset run
  cold and then warm through the persistent cache with ``--jobs 2``
  semantics, recording per-artifact wall time, cache hits/misses and the
  warm-over-cold speedup (outputs are asserted bit-identical);
* ``BENCH_plan.json`` — cold planning of the zoo smoke suite, checked
  against the golden plan digests, plus the vectorized tile search timed
  against the reference loop of ``tests/reference_tiled.py`` over the
  suite's layers and budgets (CI fails the job if a plan diverges or the
  vectorized search is not faster).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.experiments import cache, common

#: The benchmark session never reads/writes the user's real plan cache.
_BENCH_CACHE_DIR = tempfile.mkdtemp(prefix="repro-bench-cache-")
os.environ[cache.ENV_CACHE_DIR] = _BENCH_CACHE_DIR

#: Fast artifact subset exercised by the engine perf record.
SMOKE_ARTIFACTS = ["table2", "fig1", "fig6", "fig9", "dram-sweep"]


def clear_experiment_caches() -> None:
    common.clear_in_process_caches()
    cache.clear()


@pytest.fixture
def fresh():
    clear_experiment_caches()
    yield
    clear_experiment_caches()


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` once under pytest-benchmark (sweeps are too heavy for
    statistical rounds; one round still yields a timing row)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _experiments_benchmark_record() -> dict:
    """Cold-vs-warm engine run over the smoke subset (2 workers)."""
    from repro.experiments.engine import run_experiments

    clear_experiment_caches()
    cold = run_experiments(SMOKE_ARTIFACTS, jobs=2)
    common.clear_in_process_caches()  # keep the on-disk cache warm
    warm = run_experiments(SMOKE_ARTIFACTS, jobs=2)
    identical = [t.render() for t in cold.tables] == [t.render() for t in warm.tables]
    clear_experiment_caches()
    return {
        "artifacts": SMOKE_ARTIFACTS,
        "bit_identical_warm_rerun": identical,
        "warm_speedup": (
            cold.total_seconds / warm.total_seconds if warm.total_seconds else None
        ),
        "cold": cold.bench_record(),
        "warm": warm.bench_record(),
    }


def _plan_benchmark_record() -> dict:
    """Cold-plan the zoo smoke suite and time the tile search.

    ``vectorized_seconds`` is the suite planned from a cleared evaluation
    memo; ``bit_identical_plans`` says every plan matches its golden
    digest.  ``scalar_seconds`` and ``speedup`` compare the reference
    tile-search loop with ``TiledFallback.plan`` over every layer, budget
    and prefetch flag of the suite, asserting equal plans.
    """
    import gc

    from repro.analyzer import plan_heterogeneous
    from repro.arch import AcceleratorSpec, kib
    from repro.estimators.evaluate import clear_evaluation_memo
    from repro.nn.zoo import PAPER_MODEL_NAMES, get_model
    from repro.policies.tiled import TiledFallback
    from tests.reference_tiled import reference_plan
    from tests.test_plan_golden import (
        DIGESTS_PATH,
        HET_GLB_KB,
        OBJECTIVES,
        plan_digests,
    )

    # The paper zoo × the golden corpus's GLB ladder × objectives.
    combos = [
        (get_model(name), glb_kb, objective)
        for name in PAPER_MODEL_NAMES
        for glb_kb in HET_GLB_KB
        for objective in OBJECTIVES
    ]

    def timed(fn):
        # CPU time, not wall clock: planning is single-threaded CPU-bound
        # work and CI runners are noisy neighbours.  GC is paused during
        # the timed region so heap pressure from earlier benchmarks cannot
        # skew it.
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            result = fn()
            return time.process_time() - start, result
        finally:
            gc.enable()

    def run_suite():
        clear_evaluation_memo()
        return [
            plan_heterogeneous(m, AcceleratorSpec(glb_bytes=kib(k)), o)
            for m, k, o in combos
        ]

    # Untimed warm-up: the first plan in a process pays one-time NumPy
    # internals (ufunc caches etc.) that are not planning work.
    run_suite()
    # Best of two cold passes against scheduler noise.
    vectorized_seconds, plans = timed(run_suite)
    vectorized_seconds = min(vectorized_seconds, timed(run_suite)[0])
    golden = json.loads(DIGESTS_PATH.read_text())
    identical = all(
        plan_digests(plan) == golden[f"het/{m.name}/{k}KiB/{o.value}"]
        for plan, (m, k, o) in zip(plans, combos)
    )
    assert identical, "the smoke suite diverged from the golden plan digests"

    tiled = TiledFallback()
    searches = [
        (layer, AcceleratorSpec(glb_bytes=kib(glb_kb)).glb_elems, prefetch)
        for name in PAPER_MODEL_NAMES
        for layer in get_model(name).layers
        for glb_kb in HET_GLB_KB
        for prefetch in (False, True)
    ]
    scalar_seconds, reference = timed(lambda: [reference_plan(*a) for a in searches])
    search_seconds, vectorized = timed(lambda: [tiled.plan(*a) for a in searches])
    assert reference == vectorized, "tile search diverged from the reference loop"
    return {
        "combos": len(combos),
        "glb_sizes_kb": list(HET_GLB_KB),
        "objectives": [o.value for o in OBJECTIVES],
        "tile_searches": len(searches),
        "scalar_seconds": scalar_seconds,
        "vectorized_seconds": vectorized_seconds,
        "tile_search_seconds": search_seconds,
        "speedup": scalar_seconds / search_seconds if search_seconds else None,
        "bit_identical_plans": identical,
    }


def pytest_sessionfinish(session, exitstatus):
    """Write the perf-trajectory JSONs at the repo root after every run."""
    if exitstatus != 0 or session.config.option.collectonly:
        return
    root = Path(__file__).resolve().parent.parent
    (root / "BENCH_experiments.json").write_text(
        json.dumps(_experiments_benchmark_record(), indent=2) + "\n"
    )
    (root / "BENCH_plan.json").write_text(
        json.dumps(_plan_benchmark_record(), indent=2) + "\n"
    )
