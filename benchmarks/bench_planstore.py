"""Benchmark: warm-from-disk sweeps via the shared plan store.

Locks the cross-process amortization claim of the plan store: a sweep
whose worker processes warm-start from a populated ``PlanStore`` must be
at least 3x faster than the same sweep run cold (empty store, cold
caches), with byte-identical rows and a warm plan-cache miss count of 0.

The grid maximizes planning diversity per scenario (every workload
variant, a large chiplet-count package a la "Chiplets on Wheels", and a
heterogeneous trunk budget), which is exactly the regime the store is
for: every scenario's plans are priced once ever, then served from disk
to every later worker and run.

Results land in ``BENCH_planstore.json`` so the perf trajectory is
machine-readable from this PR onward.
"""

import json
import os
import time

from repro.core import clear_plan_cache
from repro.cost import clear_cache
from repro.sweep import (
    WORKLOAD_VARIANTS,
    ScenarioSweep,
    scenario_grid,
)

#: planning-heavy grid: all variants x a big package x het trunk budgets.
GRID_KWARGS = dict(
    workloads=tuple(sorted(WORKLOAD_VARIANTS)),
    npus=(8,),
    het_ws_budgets=(None, 6),
)
WORKERS = 2


def _cold_process_state() -> None:
    """Reset every per-process memo the sweep workers inherit via fork."""
    clear_cache()
    clear_plan_cache()


def _timed_run(grid, store_path):
    _cold_process_state()
    start = time.perf_counter()
    result = ScenarioSweep(grid, workers=WORKERS,
                           store_path=store_path).run()
    return time.perf_counter() - start, result


def test_warm_from_disk_sweep_is_3x_faster(benchmark, artifact_dir,
                                           tmp_path):
    grid = scenario_grid(**GRID_KWARGS)

    # Cold: empty store, cold caches — every plan priced from scratch.
    # Best-of-2 against separate stores for timer stability; the second
    # cold run populates the store the warm runs read.
    cold1_s, _ = _timed_run(grid, tmp_path / "planstore-scratch")
    store = tmp_path / "planstore"
    cold2_s, cold = _timed_run(grid, store)
    cold_s = min(cold1_s, cold2_s)
    # Warm: same grid, fresh worker processes, plans served from disk.
    warm1_s, warm = _timed_run(grid, store)
    warm2_s, _ = _timed_run(grid, store)
    warm_s = min(warm1_s, warm2_s)
    benchmark.pedantic(lambda: _timed_run(grid, store),
                       rounds=1, iterations=1)

    payload = {
        "grid_scenarios": len(grid),
        "workers": WORKERS,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2),
        "cold_plan_cache": cold.summary()["plan_cache"],
        "warm_plan_cache": warm.summary()["plan_cache"],
        "warm_layer_cost_cache": warm.summary()["layer_cost_cache"],
        "rows_byte_identical": cold.rows_json() == warm.rows_json(),
    }
    (artifact_dir / "BENCH_planstore.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # Work-based invariants hold on any machine: the warm run recomputes
    # nothing (0 misses, all first-touch lookups served from the store)
    # and streams back byte-identical rows.
    assert payload["rows_byte_identical"]
    assert warm.cache_stats.misses == 0
    assert warm.cache_stats.store_hits > 0
    assert cold.cache_stats.misses > 0
    # The wall-clock ratio is asserted strictly by default; CI shared
    # runners set SWEEP_BENCH_STRICT=0 because load noise can eat the
    # margin there — the measured speedup still lands in the artifact.
    if os.environ.get("SWEEP_BENCH_STRICT", "1") != "0":
        assert cold_s >= 3.0 * warm_s, (
            f"warm-from-disk bought only {cold_s / warm_s:.2f}x "
            f"(cold {cold_s:.3f} s, warm {warm_s:.3f} s)")
