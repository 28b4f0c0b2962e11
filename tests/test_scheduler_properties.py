"""Property-based tests: scheduler invariants over random workloads.

Hypothesis generates small random pipelines (random group latencies,
instance counts, shardability flags) and checks that Algorithm 1 always
produces a *valid* schedule: budgets hold, no chiplet is double-booked,
sharding never makes the pipeline slower than the unsharded mapping, and
the accounting identities between plans and the busy map are preserved.
Each trace step's pipe latency and remaining budget must also replay
exactly from freshly priced plans.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    QUADRANT_NAMES,
    DramBudget,
    QuadrantOverride,
    QuadrantOverrides,
    simba_package,
    transfer_cost,
)
from repro.core import ThroughputMatcher, clear_plan_cache
from repro.core.sharding import plan_group
from repro.workloads import dense
from repro.workloads.graph import LayerGroup, PerceptionWorkload, Stage


@st.composite
def small_workloads(draw):
    """A 2-4 stage pipeline of dense groups with random attributes."""
    n_stages = draw(st.integers(min_value=2, max_value=4))
    stages = []
    for si in range(n_stages):
        stage = Stage(f"ST{si}")
        n_groups = draw(st.integers(min_value=1, max_value=3))
        prev_name = None
        for gi in range(n_groups):
            rows = draw(st.sampled_from([16, 48, 160, 320]))
            k = draw(st.sampled_from([64, 128, 256]))
            instances = draw(st.sampled_from([1, 1, 2, 4, 8]))
            layer = dense(f"st{si}g{gi}", (rows, 128), k, 128)
            deps = (prev_name,) if (prev_name is not None
                                    and draw(st.booleans())) else ()
            name = f"G{si}_{gi}"
            stage.add(LayerGroup(
                name=name,
                layers=(layer,),
                stage=f"ST{si}",
                instances=instances,
                row_shardable=(instances == 1 and draw(st.booleans())),
                depends_on=deps,
            ))
            prev_name = name
        stages.append(stage)
    return PerceptionWorkload(stages=stages)


class TestMatcherInvariants:
    @given(workload=small_workloads())
    @settings(max_examples=25, deadline=None)
    def test_schedule_is_always_valid(self, workload):
        package = simba_package()
        schedule = ThroughputMatcher(workload, package).run()

        # 1. All groups scheduled.
        assert set(schedule.groups) == {g.name
                                        for g in workload.all_groups()}

        # 2. No chiplet double-booked across non-colocated groups.
        seen: set[int] = set()
        for name, gs in schedule.groups.items():
            if gs.host is not None:
                continue
            ids = set(gs.chiplet_ids)
            assert not ids & seen
            seen |= ids

        # 3. Stage quadrant budgets hold.
        for stage in workload.stages:
            used = sum(schedule.groups[g.name].plan.n_chiplets
                       for g in stage.groups
                       if schedule.groups[g.name].host is None)
            capacity = sum(package.quadrant_capacity(q)
                           for q in schedule.stage_quadrants[stage.name])
            assert used <= capacity

        # 4. Accounting identity: busy map totals equal plan totals.
        busy_total = sum(schedule.chiplet_busy().values())
        plan_total = sum(
            (gs.plan.span_s if gs.host is not None
             else sum(gs.plan.per_chiplet_busy))
            for gs in schedule.groups.values())
        assert busy_total == plan_total or abs(
            busy_total - plan_total) < 1e-9

    @given(workload=small_workloads())
    @settings(max_examples=25, deadline=None)
    def test_sharding_never_hurts_pipe_latency(self, workload):
        package = simba_package()
        matcher = ThroughputMatcher(workload, package)
        schedule = matcher.run()
        # Unsharded reference: every group on one chiplet.  Colocated tiny
        # groups legally stack on a host chiplet, so the bound allows one
        # colocation threshold per hosted group.
        accel = package.engine(package.chiplets[0].quadrant)
        unsharded = max(plan_group(g, 1, accel).pipe_latency_s
                        for g in workload.all_groups())
        hosted = sum(1 for gs in schedule.groups.values()
                     if gs.host is not None)
        slack = hosted * matcher.colocate_threshold_s
        assert schedule.pipe_latency_s <= unsharded + slack + 1e-9

    @given(workload=small_workloads())
    @settings(max_examples=15, deadline=None)
    def test_metrics_are_finite_and_ordered(self, workload):
        schedule = ThroughputMatcher(workload, simba_package()).run()
        assert 0 < schedule.pipe_latency_s < 10
        assert schedule.e2e_latency_s >= schedule.pipe_latency_s - 1e-12
        assert schedule.energy_j > 0
        assert 0 < schedule.utilization <= 1


@st.composite
def quadrant_override_specs(draw):
    """A random per-quadrant override spec (>= 1 quadrant touched)."""
    names = draw(st.sets(st.sampled_from(QUADRANT_NAMES),
                         min_size=1, max_size=len(QUADRANT_NAMES)))
    overrides = []
    for name in sorted(names, key=QUADRANT_NAMES.index):
        dataflow = draw(st.sampled_from([None, "os", "ws", "rs"]))
        ghz = draw(st.sampled_from([None, 0.5, 1.0, 1.6, 2.0]))
        tile = draw(st.sampled_from([None, (8, 8), (16, 16)]))
        if dataflow is None and ghz is None and tile is None:
            dataflow = "ws"
        overrides.append((name, QuadrantOverride(
            dataflow=dataflow, frequency_ghz=ghz, native_tile=tile)))
    return QuadrantOverrides(tuple(overrides))


class TestHeterogeneousPackageInvariants:
    """Scheduler invariants under randomized quadrant overrides.

    The PR 1 heterogeneous-utilization fix (each chiplet contributes
    PE-cycles at its *own* clock) and the per-instance hand-off energy
    accounting had no hetero-axis coverage: every prior property test
    ran on a homogeneous package.  These drive Algorithm 1 over random
    mixed-chiplet packages — random dataflows, clocks, and tiles per
    quadrant — with and without a DRAM budget attached.
    """

    @given(workload=small_workloads(), spec=quadrant_override_specs(),
           dram_gbps=st.sampled_from([None, 2.0, 50.0]))
    @settings(max_examples=25, deadline=None)
    def test_hetero_schedule_invariants(self, workload, spec, dram_gbps):
        package = spec.apply(simba_package())
        dram = (DramBudget(bandwidth_bytes_per_s=dram_gbps * 1e9)
                if dram_gbps is not None else None)
        dram_bytes = 50_000_000 if dram is not None else 0
        schedule = ThroughputMatcher(
            workload, package,
            dram=dram, dram_bytes_per_frame=dram_bytes).run()

        # 1. Energy stays additive: the total is exactly the sum of its
        #    per-group compute, NoP, and DRAM components...
        component_sum = (schedule.compute_energy_j + schedule.nop_energy_j
                         + schedule.dram_energy_j)
        assert schedule.energy_j == component_sum
        plan_sum = sum(gs.plan.energy_j for gs in schedule.groups.values())
        assert abs(schedule.compute_energy_j - plan_sum) <= 1e-12 * max(
            1.0, plan_sum)
        # ... and pipeline hand-off energy scales with the instance
        # count (the PR 1 fix: latency is per instance, energy is not).
        for edge in schedule.nop_edges():
            if edge.src_group != edge.dst_group:
                continue
            group = workload.find_group(edge.src_group)
            segments = schedule.groups[edge.src_group].plan.segments
            per_hop = transfer_cost(group.output_bytes_per_instance, 1,
                                    package.nop)
            expected = per_hop.energy_j * (segments - 1) * group.instances
            assert edge.energy_j == expected

        # 2. The steady-state pipe is never faster than either resource:
        #    the busiest chiplet or the per-frame DRAM stream.
        assert schedule.pipe_latency_s >= \
            schedule.compute_pipe_latency_s - 1e-15
        assert schedule.pipe_latency_s >= schedule.dram_time_s - 1e-15
        assert schedule.pipe_latency_s == max(
            schedule.compute_pipe_latency_s, schedule.dram_time_s)

        # 3. Per-chiplet-frequency utilization stays a fraction: each
        #    chiplet's PE-cycles are priced at its own clock, so mixed
        #    frequencies must never push utilization outside (0, 1] —
        #    package-wide and per stage quadrant alike.
        assert 0 < schedule.utilization <= 1
        for util in schedule.stage_utilization().values():
            assert 0 < util <= 1


def replay_trace(schedule):
    """Each trace step's ``(pipe_latency_ms, chiplets_remaining)``,
    re-derived from plans priced afresh and capacities read from the
    package: the allocation after each step, with colocated spans added
    to their hosts in workload order as the matcher adds them."""
    package = schedule.package
    accel, capacity = {}, 0
    for stage in schedule.workload.stages:
        quads = schedule.stage_quadrants[stage.name]
        accel[stage.name] = package.engine(
            package.quadrant(quads[0])[0].quadrant)
        capacity += sum(package.quadrant_capacity(q) for q in quads)
    groups = {g.name: g for g in schedule.workload.all_groups()}
    extra: dict[str, float] = {}
    for name, gs in schedule.groups.items():
        if gs.host is not None:
            span = plan_group(groups[name], 1, accel[groups[name].stage])
            extra[gs.host] = extra.get(gs.host, 0.0) + span.span_s
    # The matcher records its init steps after allocating every group.
    alloc = {t.group: t.n_chiplets for t in schedule.trace
             if t.phase == "init"}
    out = []
    for step in schedule.trace:
        alloc[step.group] = step.n_chiplets
        pipes = []
        for name, n in alloc.items():
            group = groups[name]
            pipe = plan_group(group, n, accel[group.stage]).pipe_latency_s
            pipes.append(pipe + extra[name] if name in extra else pipe)
        out.append((max(pipes) * 1e3, capacity - sum(alloc.values())))
    return out


class TestTraceReplay:
    @given(workload=small_workloads(),
           spec=st.none() | quadrant_override_specs())
    @settings(max_examples=25, deadline=None)
    def test_trace_replays_from_scratch(self, workload, spec):
        package = simba_package()
        if spec is not None:
            package = spec.apply(package)
        schedule = ThroughputMatcher(workload, package).run()
        clear_plan_cache()
        assert replay_trace(schedule) == [
            (t.pipe_latency_ms, t.chiplets_remaining)
            for t in schedule.trace]
