"""Tests for the process-wide plan cache."""

import dataclasses

import pytest

import repro.core.sharding as sharding
from repro.core import (
    GroupPlan,
    PlanCache,
    TrunkDSE,
    clear_plan_cache,
    get_plan_cache,
    next_shard_step,
    plan_cache_stats,
    plan_group,
)
from repro.core.sharding import GroupCosts, _compute_plan_group


@pytest.fixture
def group(workload):
    return workload.find_group("S_FFN")


class TestPlanCache:
    def test_hit_and_miss_counting(self, group, os_accel, monkeypatch):
        compute = sharding._compute_plan_group
        calls = []

        def counting(costs, n):
            calls.append(n)
            return compute(costs, n)

        monkeypatch.setattr(sharding, "_compute_plan_group", counting)
        cache = PlanCache()
        family = cache.family(group, os_accel)
        n_bad = 10_000  # no shard mode can use this many chiplets
        assert cache.plan(family, n_bad) is None
        assert cache.plan(family, n_bad) is None
        assert calls == [n_bad]  # second lookup served from the family
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == 0.5
        # an equal group object reaches the same family
        twin = dataclasses.replace(group)
        assert twin is not group
        assert cache.family(twin, os_accel) is family

    def test_clear_resets_everything(self, group, os_accel):
        cache = PlanCache()
        family = cache.family(group, os_accel)
        cache.plan(family, 2)
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)
        # the families go too, so the same objects reach an empty one
        fresh = cache.family(group, os_accel)
        assert fresh is not family
        assert (fresh.costs, fresh.plans) == (None, {})

    def test_stats_delta_and_merge(self):
        from repro.core import CacheStats
        a = CacheStats(hits=10, misses=4, entries=4)
        b = CacheStats(hits=3, misses=1, entries=4)
        assert (a - b).hits == 7
        merged = a + b
        assert (merged.hits, merged.misses) == (13, 5)


class TestSharedPlanGroupCache:
    def test_plan_group_is_served_from_shared_cache(self, group, os_accel):
        clear_plan_cache()
        first = plan_group(group, 2, os_accel)
        before = plan_cache_stats()
        second = plan_group(group, 2, os_accel)
        after = plan_cache_stats()
        assert second is first  # identical object, not a recompute
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_infeasible_plans_are_cached_too(self, group, os_accel):
        clear_plan_cache()
        n_bad = 10_000  # no shard mode can use this many chiplets
        assert plan_group(group, n_bad, os_accel) is None
        before = plan_cache_stats()
        assert plan_group(group, n_bad, os_accel) is None
        assert plan_cache_stats().hits == before.hits + 1

    def test_a_count_below_the_largest_probed_is_a_miss(self, group,
                                                        os_accel):
        # A family keys its plans by count: planning 8 chiplets fills no
        # slot below it, so 3 is computed on its own first lookup.
        clear_plan_cache()
        plan_group(group, 8, os_accel)
        before = plan_cache_stats()
        plan = plan_group(group, 3, os_accel)
        after = plan_cache_stats()
        assert (after.hits, after.misses) == (before.hits,
                                              before.misses + 1)
        assert after.entries == before.entries + 1
        expected = _compute_plan_group(GroupCosts.price(group, os_accel), 3)
        assert plan is not None
        for field in dataclasses.fields(GroupPlan):
            assert (getattr(plan, field.name)
                    == getattr(expected, field.name)), field.name

    def test_trunk_dse_shares_cache_across_instances(self):
        clear_plan_cache()
        TrunkDSE().table()
        misses_after_first = plan_cache_stats().misses
        TrunkDSE().table()  # a fresh instance must not recompute plans
        assert plan_cache_stats().misses == misses_after_first

    def test_global_cache_is_a_singleton(self):
        assert get_plan_cache() is get_plan_cache()


class TestNextShardStepCurrentPlan:
    def test_current_plan_short_circuits_replanning(self, group, os_accel):
        current = plan_group(group, 1, os_accel)
        with_current = next_shard_step(group, 1, 4, os_accel,
                                       current=current)
        without = next_shard_step(group, 1, 4, os_accel)
        assert with_current == without

    def test_mismatched_current_plan_rejected(self, group, os_accel):
        wrong = plan_group(group, 2, os_accel)
        with pytest.raises(ValueError):
            next_shard_step(group, 1, 4, os_accel, current=wrong)

    def test_matcher_results_unchanged_by_wiring(self, schedule36):
        # The matcher passes its held plans into next_shard_step; the
        # resulting schedule must equal the from-scratch fixture numbers.
        assert schedule36.pipe_latency_s * 1e3 == pytest.approx(89.24,
                                                                rel=0.01)
