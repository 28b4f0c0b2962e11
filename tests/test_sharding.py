"""Unit tests for sharding transforms and group planning."""

import pytest

from repro.core.sharding import (
    MODE_INSTANCES,
    MODE_PIPELINE,
    MODE_ROWS,
    MODE_SINGLE,
    _balanced_segments,
    max_row_shards,
    next_shard_step,
    plan_group,
    split_plane,
)
from repro.cost import chain_latency_s
from repro.workloads import conv, dense
from repro.workloads.graph import LayerGroup


def _group(instances=1, rows=True, pipeline=False, layers=None):
    layers = layers or (dense("l0", (40, 80), 128, 128),
                        dense("l1", (40, 80), 128, 128))
    return LayerGroup(name="g", layers=tuple(layers), stage="S",
                      instances=instances, row_shardable=rows,
                      pipeline_splittable=pipeline)


class TestSplitPlane:
    def test_2d_splits_rows(self):
        layer = conv("c", (20, 80), 64, 64)
        parts = [split_plane(layer, 4, i) for i in range(4)]
        assert sum(p.out_h for p in parts) == 20

    def test_1d_splits_tokens(self):
        layer = dense("d", (1, 1000), 64, 64)
        parts = [split_plane(layer, 3, i) for i in range(3)]
        assert sum(p.out_w for p in parts) == 1000
        assert all(p.out_h == 1 for p in parts)

    def test_rejects_oversplit(self):
        with pytest.raises(ValueError):
            split_plane(dense("d", (1, 4), 8, 8), 5, 0)

    @pytest.mark.parametrize("index", [-1, 4, 7])
    def test_rejects_band_index_out_of_range(self, index):
        # 1D token planes reject it exactly like 2D row splits.
        for layer in (conv("c", (8, 8), 4, 4), dense("t", (1, 8), 4, 4)):
            with pytest.raises(ValueError, match=(
                    rf"^shard index {index} out of range for n=4$")):
                split_plane(layer, 4, index)


class TestBalancedSegments:
    def test_two_way_split_balances(self):
        bounds = _balanced_segments([1.0, 1.0, 1.0, 1.0], 2)
        assert bounds == [0, 2]

    def test_heavy_tail_isolated(self):
        # A dominant last layer should sit alone in its segment.
        bounds = _balanced_segments([1.0, 1.0, 1.0, 10.0], 2)
        assert bounds == [0, 3]

    def test_matches_bruteforce_minmax(self):
        import itertools
        lats = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        k = 3
        bounds = _balanced_segments(lats, k)
        segs = [sum(lats[a:b]) for a, b in
                zip(bounds, bounds[1:] + [len(lats)])]
        best = min(
            max(sum(lats[a:b]) for a, b in
                zip((0,) + cuts, cuts + (len(lats),)))
            for cuts in itertools.combinations(range(1, len(lats)), k - 1))
        assert max(segs) == pytest.approx(best)

    def test_always_k_nonempty_segments_at_optimal_minmax(self):
        # The binary search must deliver exactly k non-empty segments
        # whose max equals the brute-force optimum on random chains.
        import itertools
        import random
        rng = random.Random(7)
        for trial in range(25):
            n = rng.randint(2, 9)
            lats = [rng.uniform(0.1, 10.0) for _ in range(n)]
            k = rng.randint(1, n)
            bounds = _balanced_segments(lats, k)
            assert bounds[0] == 0 and len(bounds) == k
            assert bounds == sorted(set(bounds))
            segs = [sum(lats[a:b]) for a, b in
                    zip(bounds, bounds[1:] + [n])]
            assert all(s > 0 for s in segs)
            best = min(
                max(sum(lats[a:b]) for a, b in
                    zip((0,) + cuts, cuts + (n,)))
                for cuts in itertools.combinations(range(1, n), k - 1))
            assert max(segs) == pytest.approx(best, rel=1e-12)

    def test_degenerate_k(self):
        assert _balanced_segments([2.0, 3.0], 1) == [0]
        assert _balanced_segments([2.0, 3.0, 4.0], 3) == [0, 1, 2]
        assert _balanced_segments([2.0], 5) == [0]


class TestPlanGroup:
    def test_single_plan(self, os_accel):
        g = _group()
        plan = plan_group(g, 1, os_accel)
        assert plan.mode == MODE_SINGLE
        assert plan.span_s == pytest.approx(
            chain_latency_s(g.layers, os_accel))

    def test_instances_distribution(self, os_accel):
        g = _group(instances=8)
        plan = plan_group(g, 3, os_accel)
        assert plan.mode == MODE_INSTANCES
        per = chain_latency_s(g.layers, os_accel)
        assert plan.per_chiplet_busy == pytest.approx(
            (3 * per, 3 * per, 2 * per))
        assert plan.pipe_latency_s == pytest.approx(3 * per)

    def test_rows_reduce_pipe_sublinearly(self, os_accel):
        g = _group()
        single = plan_group(g, 1, os_accel)
        rows = plan_group(g, 4, os_accel)
        assert rows.mode == MODE_ROWS
        assert rows.pipe_latency_s < single.pipe_latency_s
        # Quantization makes the speedup sub-linear, never super-linear.
        assert rows.pipe_latency_s >= single.pipe_latency_s / 4 - 1e-12

    def test_pipeline_plan_span_equals_chain(self, os_accel):
        g = _group(rows=False, pipeline=True)
        plan = plan_group(g, 2, os_accel)
        assert plan.mode == MODE_PIPELINE
        assert plan.segments == 2
        assert plan.span_s == pytest.approx(
            chain_latency_s(g.layers, os_accel))
        assert plan.pipe_latency_s < plan.span_s

    def test_pipeline_with_instances_multiplies_chiplets(self, os_accel):
        g = _group(instances=4, rows=False, pipeline=True)
        assert plan_group(g, 8, os_accel).segments == 2
        assert plan_group(g, 6, os_accel) is None  # 6 % 4 != 0

    def test_macs_preserved_by_every_mode(self, os_accel):
        for g, n in ((_group(), 4), (_group(instances=8), 4),
                     (_group(rows=False, pipeline=True), 2)):
            plan = plan_group(g, n, os_accel)
            assert plan.macs == g.total_macs

    def test_infeasible_n_returns_none(self, os_accel):
        g = _group(instances=1, rows=False, pipeline=False)
        assert plan_group(g, 2, os_accel) is None

    def test_max_row_shards_bounded_by_narrowest_layer(self):
        g = _group(layers=(dense("a", (40, 80), 8, 8),
                           dense("b", (10, 80), 8, 8)))
        assert max_row_shards(g) == 10


class TestRowPlanFastPath:
    """_plan_rows prices <= 2 band shapes per layer, not all n chains."""

    def _reference_rows_plan(self, group, n, accel):
        """The seed implementation: price every shard chain."""
        from repro.cost import chain_energy_j, chain_latency_s
        busy = []
        energy = 0.0
        for idx in range(n):
            shard = [split_plane(l, n, idx) for l in group.layers]
            busy.append(chain_latency_s(shard, accel))
            energy += chain_energy_j(shard, accel)
        return tuple(busy), energy

    def test_plans_numerically_identical_to_seed(self, os_accel):
        from repro.core.sharding import _plan_rows
        groups = [
            _group(),
            _group(layers=(dense("t", (1, 1000), 64, 64),)),  # 1D tokens
            _group(layers=(conv("c", (37, 80), 64, 64),
                           dense("d", (10, 80), 32, 32))),
        ]
        for g in groups:
            for n in (2, 3, 5, 7):
                if n > max_row_shards(g):
                    continue
                plan = _plan_rows(g, n, os_accel)
                busy, energy = self._reference_rows_plan(g, n, os_accel)
                assert plan.per_chiplet_busy == busy  # bit-exact
                assert plan.energy_j == energy
                assert plan.span_s == max(busy)

    def test_chain_pricings_constant_in_n(self, os_accel, monkeypatch):
        from repro.core import sharding as sharding_mod
        g = _group(layers=(dense("a", (40, 80), 64, 64),
                           dense("b", (40, 80), 64, 64)))
        counts = {"calls": 0}
        real_evaluate_shape = sharding_mod.evaluate_shape

        def counting_evaluate_shape(shape, accel):
            counts["calls"] += 1
            return real_evaluate_shape(shape, accel)

        monkeypatch.setattr(sharding_mod, "evaluate_shape",
                            counting_evaluate_shape)
        calls_per_n = {}
        for n in (4, 13, 37):
            counts["calls"] = 0
            sharding_mod._plan_rows(g, n, os_accel)
            calls_per_n[n] = counts["calls"]
        # <= 2 pricings per layer, independent of the shard count (an
        # even split needs just one band shape per layer).
        assert all(c <= 2 * len(g.layers) for c in calls_per_n.values())
        assert calls_per_n[4] == 1 * len(g.layers)   # 40 % 4 == 0
        assert calls_per_n[13] == calls_per_n[37] == 2 * len(g.layers)


class TestNextShardStep:
    def test_skips_useless_chiplet_counts(self, os_accel):
        # 8 instances on 4 chiplets = 2 each; 5..7 chiplets change nothing,
        # the next useful step is 8.
        g = _group(instances=8)
        plan = next_shard_step(g, 4, 8, os_accel)
        assert plan is not None
        assert plan.n_chiplets == 8

    def test_respects_budget(self, os_accel):
        g = _group(instances=8)
        assert next_shard_step(g, 4, 7, os_accel) is None

    def test_unshardable_returns_none(self, os_accel):
        g = _group(instances=1, rows=False, pipeline=False)
        assert next_shard_step(g, 1, 9, os_accel) is None
