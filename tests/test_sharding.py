"""Unit tests for sharding transforms and group planning."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import split_plane

from repro.core import clear_plan_cache, plan_cache_stats
from repro.core import sharding as sharding_mod
from repro.core.sharding import (
    MODE_INSTANCES,
    MODE_PIPELINE,
    MODE_ROWS,
    MODE_SINGLE,
    GroupCosts,
    GroupPlan,
    _balanced_segments,
    _plan_rows,
    max_row_shards,
    next_shard_step,
    plan_group,
)
from repro.cost import chain_energy_j, chain_latency_s, evaluate
from repro.workloads import conv, dense
from repro.workloads.graph import LayerGroup


def _group(instances=1, rows=True, pipeline=False, layers=None):
    layers = layers or (dense("l0", (40, 80), 128, 128),
                        dense("l1", (40, 80), 128, 128))
    return LayerGroup(name="g", layers=tuple(layers), stage="S",
                      instances=instances, row_shardable=rows,
                      pipeline_splittable=pipeline)


def _reference_rows_plan(group, n, accel):
    """The seed implementation: price every shard chain."""
    busy = []
    energy = 0.0
    for idx in range(n):
        shard = [split_plane(l, n, idx) for l in group.layers]
        busy.append(chain_latency_s(shard, accel))
        energy += chain_energy_j(shard, accel)
    return tuple(busy), energy


def _reference_plan(group, n, accel):
    """``plan_group`` recomputed chain by chain, with no cost table.

    Every layer is priced through ``evaluate`` and every row band is cut
    by ``split_plane``; chains are summed by ``chain_latency_s`` and
    ``chain_energy_j``.
    """
    def plan(mode, busy, span, energy, segments=1):
        return GroupPlan(group.name, n, mode, tuple(busy), span, energy,
                         group.total_macs, segments)

    chain_s = chain_latency_s(group.layers, accel)
    energy = chain_energy_j(group.layers, accel) * group.instances
    if n == 1:
        busy = chain_s * group.instances
        return plan(MODE_SINGLE, [busy], busy, energy)
    candidates = []
    if 2 <= group.instances and n <= group.instances:
        base, extra = divmod(group.instances, n)
        busy = [(base + (j < extra)) * chain_s for j in range(n)]
        candidates.append(plan(MODE_INSTANCES, busy, busy[0], energy))
    if (group.row_shardable and group.instances == 1
            and n <= max_row_shards(group)):
        busy, rows_energy = _reference_rows_plan(group, n, accel)
        candidates.append(plan(MODE_ROWS, busy, max(busy), rows_energy))
    k = n // group.instances
    if (group.pipeline_splittable and n % group.instances == 0
            and 2 <= k <= len(group.layers)):
        lats = [evaluate(l, accel).latency_s for l in group.layers]
        cuts = _balanced_segments(lats, k) + [len(lats)]
        segs = [chain_latency_s(group.layers[a:b], accel)
                for a, b in zip(cuts, cuts[1:])]
        span = 0.0
        for seg in segs:
            span += seg
        candidates.append(plan(MODE_PIPELINE, segs * group.instances, span,
                               energy, segments=k))
    return min(candidates, key=lambda p: (p.pipe_latency_s, p.span_s),
               default=None)


def _bisected_segments(latencies, k):
    """The float bisection ``_balanced_segments`` replaced: the oracle.

    Bisects the max-segment bound over [max, sum] down to adjacent
    floats (about 37 greedy passes a call on the sweep grids' chains),
    then re-packs greedily under the smallest feasible bound.
    """
    n = len(latencies)
    if k >= n:
        return list(range(n))

    def segments_needed(bound):
        count, acc = 1, 0.0
        for lat in latencies:
            if acc + lat > bound:
                count += 1
                acc = lat
            else:
                acc += lat
        return count

    lo, hi = max(latencies), 0.0
    for lat in latencies:
        hi += lat
    if segments_needed(lo) <= k:
        best = lo
    else:
        while True:
            mid = (lo + hi) / 2
            if not lo < mid < hi:
                break
            if segments_needed(mid) <= k:
                hi = mid
            else:
                lo = mid
        best = hi
    bounds = [0]
    acc = 0.0
    for i, lat in enumerate(latencies):
        if i > 0 and len(bounds) < k and (
                n - i == k - len(bounds) or acc + lat > best):
            bounds.append(i)
            acc = lat
        else:
            acc += lat
    return bounds


@st.composite
def _latency_chains(draw):
    """A latency chain and a segment count, ties and wide ranges too."""
    lats = draw(st.lists(
        st.one_of(st.floats(min_value=1e-9, max_value=1e3),
                  st.sampled_from([1e-3, 2e-3, 3e-3, 0.1])),
        min_size=1, max_size=40))
    return lats, draw(st.integers(min_value=1, max_value=len(lats) + 1))


@st.composite
def _layer_shapes(draw):
    """A 2-D dense/conv layer or a 1-D token layer, without its name."""
    out_h = draw(st.sampled_from([1, 3, 5, 7, 12]))
    out_w = draw(st.sampled_from([4, 9, 13] if out_h == 1 else [6, 20]))
    k = draw(st.sampled_from([16, 48]))
    c = draw(st.sampled_from([8, 32]))
    r = draw(st.sampled_from([0, 1, 3]))  # 0 draws a dense layer
    if not r:
        return lambda name: dense(name, (out_h, out_w), k, c)
    return lambda name: conv(name, (out_h, out_w), k, c, r=r)


@st.composite
def _plan_groups(draw):
    """Groups with repeated shapes, mixed row counts and token layers."""
    shapes = draw(st.lists(_layer_shapes(), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(shapes) - 1),
                          min_size=1, max_size=5))
    return LayerGroup(
        name="g", stage="S",
        layers=tuple(shapes[i](f"l{j}") for j, i in enumerate(picks)),
        instances=draw(st.sampled_from([1, 1, 2, 3])),
        row_shardable=draw(st.booleans()),
        pipeline_splittable=draw(st.booleans()))


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

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(chain=_latency_chains())
    @example(chain=([1.0, 1.0, 1.0, 10.0], 2))
    @example(chain=([0.1] * 10 + [0.3], 4))
    def test_jump_search_equals_float_bisection(self, chain):
        # The optimal bound is a segment sum the greedy forms, so jumping
        # between such sums lands on the bound bisection reaches by
        # halving down to adjacent floats: the same cuts, bit for bit.
        lats, k = chain
        assert _balanced_segments(lats, k) == _bisected_segments(lats, k)

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
    """_plan_rows prices <= 2 band shapes per distinct layer shape."""

    def test_plans_numerically_identical_to_seed(self, os_accel):
        groups = [
            _group(),
            _group(layers=(dense("t", (1, 1000), 64, 64),)),  # 1D tokens
            _group(layers=(conv("c", (37, 80), 64, 64),
                           dense("d", (10, 80), 32, 32))),
        ]
        for g in groups:
            costs = GroupCosts.price(g, os_accel)
            for n in (2, 3, 5, 7):
                if n > max_row_shards(g):
                    continue
                plan = _plan_rows(costs, n)
                busy, energy = _reference_rows_plan(g, n, os_accel)
                assert plan.per_chiplet_busy == busy  # bit-exact
                assert plan.energy_j == energy
                assert plan.span_s == max(busy)

    def test_chain_pricings_constant_in_n(self, os_accel, monkeypatch):
        g = _group(layers=(dense("a", (40, 80), 64, 64),
                           dense("b", (40, 80), 64, 64)))
        costs = GroupCosts.price(g, os_accel)
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
            sharding_mod._plan_rows(costs, n)
            calls_per_n[n] = counts["calls"]
        # <= 2 pricings per distinct layer shape, independent of the
        # shard count and of how many layers share the shape (an even
        # split needs just one band shape).
        assert len(costs.shape_layers) == 1
        assert calls_per_n == {4: 1, 13: 2, 37: 2}   # 40 % 4 == 0


class TestPlanAssembly:
    """Plans built from the cost table equal plans priced chain by chain."""

    @settings(max_examples=40, deadline=None)
    @given(group=_plan_groups())
    @example(group=_group(  # extras 3, 0, 1 at n=4: three band patterns
        pipeline=True,
        layers=(conv("a", (7, 20), 16, 8), dense("b", (12, 6), 48, 32),
                conv("c", (5, 20), 16, 8), conv("d", (7, 20), 16, 8))))
    def test_every_chiplet_count_matches_the_reference(self, os_accel,
                                                       group):
        limit = max(group.instances * len(group.layers),
                    max_row_shards(group))
        for n in range(1, limit + 2):
            plan = plan_group(group, n, os_accel)
            want = _reference_plan(group, n, os_accel)
            if want is None:
                assert plan is None, n
                continue
            assert (plan.mode, plan.segments, plan.per_chiplet_busy,
                    plan.span_s, plan.energy_j, plan.macs) == (
                want.mode, want.segments, want.per_chiplet_busy,
                want.span_s, want.energy_j, want.macs), n


class TestGroupCosts:
    """The plan cache prices each (group, accel) chain once."""

    def _count_chain_probes(self, monkeypatch, group):
        """Count shape-memo probes of ``group``'s own layer shapes.

        Row plans probe the same memo for their band shapes, which are
        never a whole layer's; only pricing the chain probes these.
        """
        calls = []
        chain_shapes = {layer.shape for layer in group.layers}
        real_evaluate_shape = sharding_mod.evaluate_shape

        def counting_evaluate_shape(shape, accel):
            if shape in chain_shapes:
                calls.append(shape)
            return real_evaluate_shape(shape, accel)

        monkeypatch.setattr(sharding_mod, "evaluate_shape",
                            counting_evaluate_shape)
        return calls

    def test_miss_for_a_seen_pair_calls_evaluate_zero_times(
            self, os_accel, monkeypatch):
        clear_plan_cache()
        g = _group(pipeline=True)
        calls = self._count_chain_probes(monkeypatch, g)
        plan_group(g, 1, os_accel)
        assert len(calls) == len(g.layers)
        calls.clear()
        before = plan_cache_stats().misses
        for n in (2, 3, 4):  # an equal group object shares the table
            plan_group(_group(pipeline=True), n, os_accel)
        assert plan_cache_stats().misses == before + 3
        assert calls == []

    def test_clear_plan_cache_empties_the_tables(self, os_accel,
                                                 monkeypatch):
        clear_plan_cache()
        g = _group()
        calls = self._count_chain_probes(monkeypatch, g)
        plan_group(g, 2, os_accel)
        clear_plan_cache()
        calls.clear()
        plan_group(g, 3, os_accel)
        assert len(calls) == len(g.layers)


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
