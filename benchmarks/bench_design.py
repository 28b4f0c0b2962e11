"""Benchmark: the design search's rank-cheap / materialize-frontier economics.

Locks the tentpole claim of ``chiplet-npu design``: over a joint
package-design space of 200+ candidates, the search materializes full
sweep rows for **at most half** the cross-product (in practice a few
percent — only the proxy-Pareto frontier), and the frontier report is
byte-identical between a cold run and a plan-store-warm rerun.

The space deliberately includes axes the roofline proxy cannot see
(tolerance, NoP and DRAM bandwidth): candidates differing only there
tie on proxy score, all survive to materialization, and the *real*
sweep rows separate them — the economics gate below holds anyway.

Results land in ``BENCH_design.json`` and are gated against the
committed baseline by ``compare_baselines.py``.
"""

import json
import time

from repro.core import clear_plan_cache
from repro.cost import clear_cache
from repro.design import DesignSearch, DesignSpace, DesignTargets
from repro.sweep import clear_trunk_memo

#: 8-axis joint space, 2 values each = 256 candidates.
AXIS_TEXTS = {
    "tolerance": "1.0,1.05",
    "nop_gbps": "25,100",
    "npus": "1,2",
    "workload": "default,lores",
    "dataflow": "os,ws",
    "frequency_ghz": "1.0,2.0",
    "native_tile": "16x16,8x8",
    "dram_gbps": "none,6",
}
TARGETS = DesignTargets(pipe_ms=200.0)


def _cold_process_state() -> None:
    clear_cache()
    clear_plan_cache()
    clear_trunk_memo()


def _timed_search(space, store_path):
    _cold_process_state()
    start = time.perf_counter()
    result = DesignSearch(space, TARGETS, store_path=store_path).run()
    return time.perf_counter() - start, result


def test_design_search_materializes_at_most_half(benchmark, artifact_dir,
                                                 tmp_path):
    space = DesignSpace.from_axis_texts(AXIS_TEXTS)
    store = tmp_path / "planstore"

    # Cold: empty store — the frontier rows are priced from scratch and
    # flushed.  Warm: same search, plans served back from the store.
    cold_s, cold = _timed_search(space, store)
    warm_s, warm = _timed_search(space, store)
    benchmark.pedantic(lambda: _timed_search(space, store),
                       rounds=1, iterations=1)

    cold_doc = json.dumps(cold.report(), indent=2, sort_keys=True)
    warm_doc = json.dumps(warm.report(), indent=2, sort_keys=True)
    stats = cold.stats()
    payload = {
        "candidates": stats["candidates"],
        "pruned": stats["pruned"],
        "dominated": stats["dominated"],
        "frontier": stats["frontier"],
        "materialized": stats["materialized"],
        "materialized_fraction": stats["materialized_fraction"],
        "priced_pairs": stats["priced_pairs"],
        "frontier_byte_identical": cold_doc == warm_doc,
        "warm_plan_cache": warm.sweep.summary()["plan_cache"],
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2),
    }
    (artifact_dir / "BENCH_design.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # Work-based invariants hold on any machine: a 200+-candidate joint
    # space, at most half of it ever reaching the scheduler, and a
    # report that does not care about store temperature.
    assert payload["candidates"] >= 200
    assert payload["frontier_byte_identical"]
    assert 0 < payload["materialized"] <= 0.5 * payload["candidates"]
    assert payload["materialized"] == len(cold.rows) == stats["frontier"]
    assert warm.sweep.cache_stats.misses == 0
    # No wall-clock gate here: the search's claim is the work economics
    # (one pricing pass, frontier-only materialization), and with only
    # a few percent of the space ever reaching the scheduler, the warm
    # delta is too small to assert against shared-runner noise.  The
    # measured times still land in the artifact.
