"""Property-based tests (hypothesis) for core invariants."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import split_plane

from repro.arch import transfer_cost
from repro.core.sharding import _balanced_segments, plan_group
from repro.cost import evaluate, nvdla_chiplet, shidiannao_chiplet
from repro.workloads import conv, dense
from repro.workloads.graph import LayerGroup

OS = shidiannao_chiplet()
WS = nvdla_chiplet()

dims = st.integers(min_value=1, max_value=64)
planes = st.integers(min_value=1, max_value=300)
kernels = st.sampled_from([1, 3, 5, 7])


@st.composite
def conv_layers(draw):
    return conv(
        "c",
        (draw(planes), draw(planes)),
        draw(dims) * 4,
        draw(dims),
        r=draw(kernels),
        stride=draw(st.sampled_from([1, 2])),
    )


@st.composite
def dense_layers(draw):
    return dense("d", (draw(planes), draw(planes)), draw(dims) * 4,
                 draw(dims) * 4)


class TestCostInvariants:
    @given(layer=st.one_of(conv_layers(), dense_layers()))
    @settings(max_examples=60, deadline=None)
    def test_cycles_lower_bounded_by_ideal(self, layer):
        # No dataflow can beat MACs / native PEs cycles.
        for accel in (OS, WS):
            cost = evaluate(layer, accel)
            assert cost.cycles * accel.native_pes >= layer.macs

    @given(layer=st.one_of(conv_layers(), dense_layers()))
    @settings(max_examples=60, deadline=None)
    def test_energy_exceeds_mac_floor(self, layer):
        for accel in (OS, WS):
            floor = layer.macs * accel.energy.mac_pj * 1e-12
            assert evaluate(layer, accel).energy_j >= floor

    @given(layer=st.one_of(conv_layers(), dense_layers()))
    @settings(max_examples=60, deadline=None)
    def test_utilization_and_engagement_bounded(self, layer):
        for accel in (OS, WS):
            cost = evaluate(layer, accel)
            assert 0.0 < cost.utilization <= 1.0
            assert 0.0 < cost.engagement <= 1.0


class TestShardingInvariants:
    @given(layer=st.one_of(conv_layers(), dense_layers()),
           n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_split_plane_partitions_work(self, layer, n):
        limit = layer.out_h if layer.out_h > 1 else layer.out_w
        if n > limit:
            return
        shards = [split_plane(layer, n, i) for i in range(n)]
        assert sum(s.out_h * s.out_w for s in shards) \
            == layer.out_h * layer.out_w
        assert sum(s.macs for s in shards) == layer.macs

    @given(rows=st.integers(min_value=16, max_value=200),
           n=st.integers(min_value=2, max_value=6),
           instances=st.sampled_from([1, 4, 8, 12]))
    @settings(max_examples=40, deadline=None)
    def test_plans_preserve_macs_and_never_slow_span(self, rows, n,
                                                     instances):
        group = LayerGroup(
            name="g",
            layers=(dense("l", (rows, 64), 128, 128),),
            stage="S",
            instances=instances,
            row_shardable=True,
            pipeline_splittable=False,
        )
        single = plan_group(group, 1, OS)
        plan = plan_group(group, n, OS)
        if plan is None:
            return
        assert plan.macs == group.total_macs
        assert plan.span_s <= single.span_s + 1e-12
        assert plan.pipe_latency_s <= single.pipe_latency_s + 1e-12
        assert len(plan.per_chiplet_busy) == plan.n_chiplets


class TestSegmentsInvariants:
    @given(lats=st.lists(st.floats(min_value=0.01, max_value=10.0),
                         min_size=2, max_size=10),
           k=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_balanced_segments_optimal_minmax(self, lats, k):
        k = min(k, len(lats))
        bounds = _balanced_segments(lats, k)
        assert bounds[0] == 0
        assert len(bounds) == k
        segs = [sum(lats[a:b])
                for a, b in zip(bounds, bounds[1:] + [len(lats)])]
        best = min(
            max(sum(lats[a:b]) for a, b in
                zip((0,) + cuts, cuts + (len(lats),)))
            for cuts in itertools.combinations(range(1, len(lats)), k - 1)
        ) if k > 1 else sum(lats)
        assert max(segs) <= best + 1e-9


class TestNoPInvariants:
    @given(payload=st.integers(min_value=0, max_value=10**9),
           hops=st.integers(min_value=0, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_transfer_monotone(self, payload, hops):
        t = transfer_cost(payload, hops)
        assert t.latency_s >= 0 and t.energy_j >= 0
        bigger = transfer_cost(payload + 1024, hops)
        assert bigger.latency_s >= t.latency_s
        assert bigger.energy_j >= t.energy_j
        if payload > 0:
            further = transfer_cost(payload, hops + 1)
            assert further.latency_s >= t.latency_s
            assert further.energy_j >= t.energy_j
