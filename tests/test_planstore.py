"""Tests for the disk-backed plan store and its cache layering."""

import json
import os
import subprocess
import sys

import pytest

from repro.core import (
    SCHEMA_VERSION,
    PlanCache,
    PlanStore,
    plan_group,
    plan_key_hash,
)
from repro.core.plancache import MODE_BEST
from repro.io import plan_from_record, plan_to_record
from repro.workloads import build_perception_workload


@pytest.fixture
def groups(workload):
    return [workload.find_group("S_FFN"), workload.find_group("T_FFN")]


def _plans(groups, accel):
    entries = {}
    for g in groups:
        for n in (1, 2, 3, 1000):
            plan = plan_group(g, n, accel)
            entries[plan_key_hash(g, n, accel, MODE_BEST)] = plan
    return entries


class TestKeyHash:
    def test_structurally_equal_objects_hash_equal(self, os_accel):
        a = build_perception_workload().find_group("S_FFN")
        b = build_perception_workload().find_group("S_FFN")
        assert a is not b
        assert plan_key_hash(a, 2, os_accel, MODE_BEST) == \
            plan_key_hash(b, 2, os_accel, MODE_BEST)

    def test_every_key_component_separates(self, groups, os_accel, ws_accel):
        g = groups[0]
        base = plan_key_hash(g, 2, os_accel, MODE_BEST)
        assert plan_key_hash(g, 3, os_accel, MODE_BEST) != base
        assert plan_key_hash(g, 2, ws_accel, MODE_BEST) != base
        assert plan_key_hash(g, 2, os_accel, "rows") != base
        assert plan_key_hash(groups[1], 2, os_accel, MODE_BEST) != base

    def test_store_memoized_hash_matches_pure_function(self, tmp_path,
                                                       groups, os_accel):
        store = PlanStore(tmp_path / "store")
        g = groups[0]
        assert store.key_hash(g, 2, os_accel, MODE_BEST) == \
            plan_key_hash(g, 2, os_accel, MODE_BEST)
        # memoized second call returns the same string
        assert store.key_hash(g, 2, os_accel, MODE_BEST) == \
            plan_key_hash(g, 2, os_accel, MODE_BEST)


class TestPlanRecordRoundTrip:
    def test_exact_round_trip(self, groups, os_accel):
        for g in groups:
            plan = plan_group(g, 3, os_accel)
            restored = plan_from_record(
                json.loads(json.dumps(plan_to_record(plan))))
            assert restored == plan  # bit-exact, including floats
            assert restored.per_chiplet_busy == plan.per_chiplet_busy


class TestPlanStore:
    def test_flush_and_load_round_trip(self, tmp_path, groups, os_accel):
        store = PlanStore(tmp_path / "store")
        entries = _plans(groups, os_accel)
        assert any(p is None for p in entries.values())  # infeasible too
        store.flush(entries)
        fresh = PlanStore(tmp_path / "store")
        loaded = fresh.load()
        assert loaded == entries
        assert fresh.skipped_files == []

    def test_flush_is_atomic_and_content_addressed(self, tmp_path, groups,
                                                   os_accel):
        store = PlanStore(tmp_path / "store")
        entries = _plans(groups, os_accel)
        first = store.flush(entries)
        second = store.flush(entries)  # identical content -> same shard
        assert first == second
        assert store.shard_files() == [first]
        assert store.flush({}) is None
        assert not list((tmp_path / "store").glob("*.tmp"))

    def test_fresh_process_loads_identical_plans(self, tmp_path, groups,
                                                 os_accel):
        store = PlanStore(tmp_path / "store")
        entries = _plans(groups, os_accel)
        store.flush(entries)
        code = (
            "import json, sys\n"
            "from repro.core import PlanStore\n"
            "from repro.io import plan_to_record\n"
            "store = PlanStore(sys.argv[1])\n"
            "loaded = store.load()\n"
            "out = {k: None if p is None else plan_to_record(p)\n"
            "       for k, p in loaded.items()}\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "store")],
            capture_output=True, text=True, env=env, check=True)
        remote = json.loads(proc.stdout)
        local = {k: None if p is None else plan_to_record(p)
                 for k, p in entries.items()}
        assert remote == local

    def test_schema_version_mismatch_rejected(self, tmp_path, groups,
                                              os_accel):
        store = PlanStore(tmp_path / "store")
        store.flush(_plans(groups, os_accel))
        stale = PlanStore(tmp_path / "store",
                          schema_version=SCHEMA_VERSION + 1)
        assert stale.load() == {}
        assert [reason for _, reason in stale.skipped_files] == ["schema"]

    def test_corrupted_and_truncated_files_skipped(self, tmp_path, groups,
                                                   os_accel):
        store = PlanStore(tmp_path / "store")
        good = store.flush(_plans(groups, os_accel))
        (tmp_path / "store" / "plans-garbage.json").write_text("{not json")
        truncated = good.read_text()[: len(good.read_text()) // 2]
        (tmp_path / "store" / "plans-truncated.json").write_text(truncated)
        # wrong payload shape (valid JSON, right schema, bad entries)
        (tmp_path / "store" / "plans-badshape.json").write_text(
            json.dumps({"schema": SCHEMA_VERSION, "entries": [1, 2]}))
        fresh = PlanStore(tmp_path / "store")
        assert fresh.load() == _plans(groups, os_accel)
        reasons = sorted(reason for _, reason in fresh.skipped_files)
        assert reasons == ["corrupt", "corrupt", "schema"]

    def test_compact_merges_shards(self, tmp_path, groups, os_accel):
        store = PlanStore(tmp_path / "store")
        entries = _plans(groups, os_accel)
        items = list(entries.items())
        store.flush(dict(items[:3]))
        store.flush(dict(items[3:]))
        assert len(store.shard_files()) == 2
        store.compact()
        assert len(store.shard_files()) == 1
        assert PlanStore(tmp_path / "store").load() == entries


class TestHeteroStoreSharing:
    """Hetero scenarios are served the plans of every quadrant they leave
    as it is from a homogeneous mesh store; an overridden quadrant keys
    by its own accelerator config."""

    @staticmethod
    def _cold():
        from repro.core import clear_plan_cache
        from repro.cost import clear_cache
        clear_cache()
        clear_plan_cache()

    def _against_mesh_store(self, store, grid):
        from repro.sweep import Scenario, ScenarioSweep
        self._cold()
        ScenarioSweep([Scenario(tolerance=1.0)], store_path=store).run()
        mesh_shards = {p.name: p.read_bytes()
                       for p in store.glob("plans-*.json")}
        self._cold()
        cold = ScenarioSweep(grid).run()
        self._cold()
        warm = ScenarioSweep(grid, store_path=store).run()
        assert warm.rows_json() == cold.rows_json()
        # flushes add shards beside the mesh ones, never rewrite them
        for name, data in mesh_shards.items():
            assert (store / name).read_bytes() == data
        return warm

    def test_noop_override_runs_warm_from_mesh_store(self, tmp_path):
        # trunk:os@2 spells out the seed trunk hardware: same plans.
        from repro.sweep import Scenario
        warm = self._against_mesh_store(
            tmp_path / "store", [Scenario(tolerance=1.0, hetero="trunk:os@2")])
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.store_hits > 0

    def test_real_override_misses_only_its_trunk_groups(self, tmp_path):
        # Only the trunk groups, now on WS chiplets, are planned again
        # (9 probes across the 3 trunk models); every other quadrant's
        # plan comes from the mesh shards.
        from repro.sweep import Scenario, ScenarioSweep
        store = tmp_path / "store"
        grid = [Scenario(tolerance=1.0, hetero="trunk:ws")]
        warm = self._against_mesh_store(store, grid)
        assert warm.cache_stats.misses == 9
        assert warm.cache_stats.store_hits == 27
        # the flushed trunk plans then serve worker processes too
        self._cold()
        pooled = ScenarioSweep(grid, workers=2, store_path=store).run()
        assert pooled.cache_stats.misses == 0
        assert pooled.rows_json() == warm.rows_json()


class TestCacheStoreLayering:
    def test_store_hit_skips_compute(self, tmp_path, groups, os_accel):
        g = groups[0]
        plan = plan_group(g, 2, os_accel)
        store = PlanStore(tmp_path / "store")
        store.flush({store.key_hash(g, 2, os_accel, MODE_BEST): plan})

        cache = PlanCache()
        assert cache.attach_store(PlanStore(tmp_path / "store")) == 1

        def explode():
            raise AssertionError("compute ran despite a store entry")

        served = cache.get_or_compute(g, 2, os_accel, MODE_BEST, explode)
        assert served == plan
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.store_hits) == (1, 0, 1)
        # promoted to the in-memory table: second hit is not a store hit
        cache.get_or_compute(g, 2, os_accel, MODE_BEST, explode)
        assert cache.stats().store_hits == 1
        assert cache.stats().hits == 2

    def test_misses_are_staged_and_flushed(self, tmp_path, groups,
                                           os_accel):
        g = groups[0]
        cache = PlanCache()
        cache.attach_store(PlanStore(tmp_path / "store"))
        computed = cache.get_or_compute(
            g, 2, os_accel, MODE_BEST,
            lambda: plan_group(g, 2, os_accel))
        assert cache.stats().misses == 1
        assert cache.flush_to_store() == 1
        assert cache.flush_to_store() == 0  # nothing new since
        loaded = PlanStore(tmp_path / "store").load()
        assert list(loaded.values()) == [computed]

    def test_detach_restores_plain_cache(self, tmp_path, groups, os_accel):
        cache = PlanCache()
        store = PlanStore(tmp_path / "store")
        cache.attach_store(store)
        assert cache.detach_store() is store
        assert cache.store is None
        calls = []
        cache.get_or_compute(groups[0], 2, os_accel, MODE_BEST,
                             lambda: calls.append(1))
        assert calls == [1]

    def test_stats_arithmetic_with_store_hits(self):
        from repro.core import CacheStats
        a = CacheStats(hits=10, misses=4, entries=4, store_hits=3)
        b = CacheStats(hits=3, misses=1, entries=4, store_hits=1)
        assert (a - b).store_hits == 2
        assert (a + b).store_hits == 4
        assert "store_hits" in a.to_dict()
