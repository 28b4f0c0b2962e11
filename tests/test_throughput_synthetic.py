"""Algorithm 1 behaviour on controlled synthetic workloads.

The real perception pipeline exercises the matcher end to end; these tests
pin the *mechanics* — base-latency selection, stage-local matching, budget
exhaustion, colocation, and surplus absorption — on workloads small enough
to verify by hand.
"""

import pytest

from repro.arch import simba_package
from repro.core import ThroughputMatcher
from repro.cost import chain_latency_s, shidiannao_chiplet
from repro.workloads import dense
from repro.workloads.graph import LayerGroup, PerceptionWorkload, Stage


def _dense_ms(target_ms: float) -> dense:
    """A dense layer whose OS single-chiplet latency is ~target_ms.

    The token-plane height is scaled to hit the requested latency, which
    keeps the layer compute-bound and row-shardable to fine granularity.
    """
    accel = shidiannao_chiplet()
    base = dense("probe", (16, 256), 256, 256)
    base_ms = chain_latency_s([base], accel) * 1e3
    rows = max(16, 16 * round(target_ms / base_ms))
    return dense(f"unit{target_ms}", (rows, 256), 256, 256)


def _make_workload(spec) -> PerceptionWorkload:
    """spec: list of (stage, [(name, ms, instances, row_shardable)])."""
    stages = []
    for stage_name, groups in spec:
        stage = Stage(stage_name)
        for name, ms, instances, rows in groups:
            stage.add(LayerGroup(
                name=name,
                layers=(_dense_ms(ms),),
                stage=stage_name,
                instances=instances,
                row_shardable=rows,
            ))
        stages.append(stage)
    return PerceptionWorkload(stages=stages)


class TestBaseLatency:
    def test_base_comes_from_first_stage(self):
        wl = _make_workload([
            ("A", [("a", 50.0, 4, False)]),
            ("B", [("b", 20.0, 1, True)]),
        ])
        schedule = ThroughputMatcher(wl, simba_package()).run()
        a_pipe = schedule.groups["a"].plan.pipe_latency_s * 1e3
        assert schedule.base_latency_s * 1e3 == pytest.approx(a_pipe)

    def test_first_stage_gets_one_chiplet_per_instance(self):
        wl = _make_workload([
            ("A", [("a", 50.0, 7, False)]),
            ("B", [("b", 20.0, 1, True)]),
        ])
        schedule = ThroughputMatcher(wl, simba_package()).run()
        assert schedule.groups["a"].plan.n_chiplets == 7


class TestMatchingPhase:
    def test_bottleneck_sharded_to_target(self):
        # Stage B is 6x over the base: needs >= 6 row shards.
        wl = _make_workload([
            ("A", [("a", 50.0, 1, False)]),
            ("B", [("b", 300.0, 1, True)]),
        ])
        schedule = ThroughputMatcher(wl, simba_package(),
                                     tolerance=1.05).run()
        plan = schedule.groups["b"].plan
        assert plan.pipe_latency_s <= 1.06 * schedule.base_latency_s
        assert plan.n_chiplets >= 6

    def test_budget_exhaustion_stops_matching(self):
        # 20x over base cannot be matched inside a 9-chiplet quadrant:
        # the matcher must stop at the budget, not loop forever.
        wl = _make_workload([
            ("A", [("a", 20.0, 1, False)]),
            ("B", [("b", 400.0, 1, True)]),
        ])
        schedule = ThroughputMatcher(wl, simba_package()).run()
        assert schedule.groups["b"].plan.n_chiplets == 9
        assert schedule.pipe_latency_s > schedule.base_latency_s

    def test_instances_capped_at_count(self):
        wl = _make_workload([
            ("A", [("a", 30.0, 1, False)]),
            ("B", [("b", 60.0, 3, False)]),  # not row shardable
        ])
        schedule = ThroughputMatcher(wl, simba_package()).run()
        # 3 instances max 3 chiplets, leaving per-chiplet 60 ms > base.
        assert schedule.groups["b"].plan.n_chiplets == 3
        assert schedule.pipe_latency_s * 1e3 == pytest.approx(60.0,
                                                              rel=0.06)


class TestColocation:
    def test_tiny_group_rides_consumer(self):
        wl = _make_workload([
            ("A", [("a", 30.0, 1, False)]),
            ("B", [("tiny", 1.0, 1, False), ("big", 30.0, 1, True)]),
        ])
        # Make 'big' depend on 'tiny' so it qualifies as a consumer host.
        groups = wl.stage("B").groups
        big = groups[1]
        groups[1] = LayerGroup(name="big", layers=big.layers, stage="B",
                               row_shardable=True, depends_on=("tiny",))
        schedule = ThroughputMatcher(wl, simba_package()).run()
        assert schedule.groups["tiny"].host == "big"
        assert schedule.chiplets_of("tiny") == \
            schedule.groups["big"].chiplet_ids[:1]


class TestAbsorption:
    def test_surplus_spent_on_stage_bottleneck(self):
        wl = _make_workload([
            ("A", [("a", 80.0, 1, False)]),
            ("B", [("b", 60.0, 1, True)]),
        ])
        schedule = ThroughputMatcher(wl, simba_package()).run()
        # B met the target at n=1 but the quadrant has 9 chiplets; the
        # absorb phase should still spread it out.
        assert schedule.groups["b"].plan.n_chiplets > 1

    def test_two_stage_workload_uses_two_quadrants(self):
        wl = _make_workload([
            ("A", [("a", 40.0, 2, False)]),
            ("B", [("b", 40.0, 1, True)]),
        ])
        schedule = ThroughputMatcher(wl, simba_package()).run()
        quads_a = {simba_package().chiplet(c).quadrant
                   for c in schedule.groups["a"].chiplet_ids}
        quads_b = {simba_package().chiplet(c).quadrant
                   for c in schedule.groups["b"].chiplet_ids}
        assert quads_a == {0}
        assert quads_b == {1}
