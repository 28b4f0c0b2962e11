"""Integration tests for Algorithm 1 (throughput matching)."""

import dataclasses
import json
import pathlib

import pytest

from repro.arch import MCMPackage, NoPConfig, simba_package
from repro.arch.topology import chiplet_grid
from repro.core import ThroughputMatcher
from repro.core.schedule import TraceStep
from repro.sweep import Scenario, scenario_grid

TRACES = (pathlib.Path(__file__).parent / "data"
          / "frozen_matcher_traces.json")

#: scenarios whose full Algorithm-1 traces are frozen in TRACES.
TRACE_SCENARIOS = (
    [Scenario(tolerance=tol, npus=n, topology=topo)
     for n in (1, 2, 4) for topo in ("mesh", "torus")
     for tol in (1.0, 1.05)]
    + [Scenario(hetero="trunk:ws"), Scenario(dram_gbps=2.0)])


#: axes that reach the allocation (tolerance, package size, the trunk
#: quadrant's accelerator, an explicit grid's quadrant capacity) crossed
#: with an axis that reaches placement (topology) and axes that reach
#: only the schedule (NoP bandwidth, DRAM), which share a placement.
ALLOCATION_GRID = (
    scenario_grid(tolerances=(1.0, 1.5), nop_gbps=(None, 25.0, 200.0),
                  npus=(1, 2), topologies=(None, "torus"),
                  heteros=(None, "trunk:ws"), dram_gbps=(None, 6.0))
    + scenario_grid(tolerances=(1.0, 1.5), topologies=("mesh-8x8",)))


def schedule_view(schedule) -> dict:
    """What a schedule was allocated, placed and priced as."""
    return {
        "trace": [dataclasses.asdict(step) for step in schedule.trace],
        "base_latency_s": schedule.base_latency_s,
        "groups": {name: (gs.plan, gs.chiplet_ids, gs.host)
                   for name, gs in schedule.groups.items()},
        "summary": schedule.summary(),
        "nop_edges": schedule.nop_edges(),
        "nop_avg_hops": schedule.nop_avg_hops,
        "nop_max_hops": schedule.nop_max_hops,
    }


def trace_doc() -> dict:
    """Every TraceStep field of each scenario's trace, floats as hex."""
    traces = {}
    for scenario in TRACE_SCENARIOS:
        schedule = scenario.build().schedule()
        traces[scenario.key] = [
            [v.hex() if isinstance(v, float) else v
             for v in dataclasses.astuple(step)]
            for step in schedule.trace]
    return {"fields": [f.name for f in dataclasses.fields(TraceStep)],
            "traces": traces}


class TestScheduleShape36:
    def test_pipe_latency_matches_base(self, schedule36):
        # The FE stage defines Lat_base; nothing should exceed it after
        # matching (FE itself cannot split within a 9-chiplet quadrant).
        assert schedule36.pipe_latency_s == pytest.approx(
            schedule36.base_latency_s)

    def test_base_latency_band(self, schedule36):
        assert 0.080 < schedule36.base_latency_s < 0.100  # paper: 82.7 ms

    def test_quadrant_budgets_respected(self, schedule36):
        for stage in schedule36.workload.stages:
            used = set()
            for g in stage.groups:
                used.update(schedule36.chiplets_of(g.name))
            capacity = sum(
                schedule36.package.quadrant_capacity(q)
                for q in schedule36.stage_quadrants[stage.name])
            assert len(used) <= capacity

    def test_chiplets_not_shared_across_groups(self, schedule36):
        seen = {}
        for name, gs in schedule36.groups.items():
            if gs.host is not None:
                continue
            for cid in gs.chiplet_ids:
                assert cid not in seen, f"{name} and {seen.get(cid)} share"
                seen[cid] = name

    def test_paper_shard_counts(self, schedule36):
        # Fig. 6: spatial FFN four-folded; Fig. 7: temporal FFN across 6.
        assert schedule36.groups["S_FFN"].plan.n_chiplets == 4
        assert schedule36.groups["T_FFN"].plan.n_chiplets == 6
        assert schedule36.groups["T_KV_PROJ"].plan.n_chiplets == 2

    def test_tiny_groups_colocated(self, schedule36):
        assert schedule36.groups["S_LIFT"].host == "S_KV_PROJ"
        assert schedule36.groups["S_Q_PROJ"].host == "S_ATTN"
        assert schedule36.groups["T_POOL"].host == "T_FFN"

    def test_e2e_exceeds_pipe(self, schedule36):
        assert schedule36.e2e_latency_s > schedule36.pipe_latency_s

    def test_e2e_band(self, schedule36):
        assert 0.40 < schedule36.e2e_latency_s < 0.55  # paper: 0.5 s

    def test_utilization_band(self, schedule36):
        assert 0.45 < schedule36.utilization < 0.62  # paper: 54.19%

    def test_nop_well_below_compute(self, schedule36):
        assert schedule36.nop_latency_s < 0.05 * schedule36.e2e_latency_s

    def test_trace_records_all_phases(self, schedule36):
        phases = {t.phase for t in schedule36.trace}
        assert {"init", "match", "absorb"} <= phases

    def test_summary_keys(self, schedule36):
        summary = schedule36.summary()
        for key in ("e2e_ms", "pipe_ms", "energy_j", "edp_j_ms",
                    "utilization"):
            assert key in summary


class TestScheduleShape72:
    def test_dual_npu_nearly_halves_pipe(self, schedule36, schedule72):
        speedup = schedule36.pipe_latency_s / schedule72.pipe_latency_s
        assert 1.7 < speedup < 2.3  # paper: 87 ms -> 41.1 ms (~2x)

    def test_fe_pipeline_partitioned(self, schedule72):
        fe = schedule72.groups["FE_BFPN"].plan
        assert fe.mode == "pipeline"
        assert fe.segments == 2  # paper: two equivalent FE partitions

    def test_t_ffn_sharding_exhausted(self, schedule72):
        # "each temporal frame is processed independently on a separate
        # chiplet" — 12 chiplets for 12 frames.
        assert schedule72.groups["T_FFN"].plan.n_chiplets == 12


class TestMatcherValidation:
    def test_tolerance_below_one_rejected(self):
        with pytest.raises(ValueError):
            ThroughputMatcher(tolerance=0.9)
        with pytest.raises(ValueError):
            ThroughputMatcher(tolerance=float("nan"))

    def test_custom_tolerance_loosens_target(self):
        tight = ThroughputMatcher(tolerance=1.0,
                                  package=simba_package()).run()
        loose = ThroughputMatcher(tolerance=1.3,
                                  package=simba_package()).run()
        assert loose.pipe_latency_s <= tight.pipe_latency_s * 1.3 + 1e-9


class TestAllocationTable:
    def test_table_served_schedules_equal_fresh_ones(self):
        # Rows alone would not catch a key that drops the tolerance: it
        # changes the trace but no row field.  Schedules served one
        # allocation share its placement across NoP bandwidths and DRAM
        # budgets, and each topology gets its own; stage placements and
        # NoP edges come from tables shared by every allocation.
        table: dict = {}
        placements: dict = {}
        edges: dict = {}
        workloads: dict = {}
        for scenario in ALLOCATION_GRID:
            built = scenario.build(workloads)
            assert schedule_view(built.schedule(table, placements, edges)) \
                == schedule_view(built.schedule()), scenario.key
        # 2 tolerances x 2 package sizes x 2 trunk accelerators, plus the
        # 8x8 grid's larger quadrants at each tolerance; one placement
        # per topology of each.
        assert len(table) == 10 < len(ALLOCATION_GRID)
        assert sum(len(a.assignments) for a in table.values()) == 2 * 8 + 2
        assert len(placements) < 4 * (2 * 8 + 2)

    def test_each_cell_and_quadrant_keys_a_placement(self):
        # Placement reads the package's chiplet grid (every chiplet's
        # cell and quadrant), one per (topology, npus) shape.  Packages
        # of one shape share one grid and one placement, even with a
        # grid built apart from the memo (grids compare by shape); the
        # torus shares their allocation but gets a placement of its own.
        base = simba_package()
        slower = simba_package(topology="mesh",
                               nop=NoPConfig(bandwidth_bytes_per_s=25e9))
        apart = MCMPackage(base.name,
                           chiplet_grid.__wrapped__(base.topology, 1),
                           base.engines)
        torus = simba_package(topology="torus")
        assert slower.grid is base.grid
        assert apart.grid is not base.grid and apart.grid == base.grid
        assert torus.grid != base.grid
        table: dict = {}
        workload = Scenario().build().workload
        for package in (base, slower, apart, torus):
            assert schedule_view(
                ThroughputMatcher(workload, package).run(table)) \
                == schedule_view(ThroughputMatcher(workload, package).run())
        (allocation,) = table.values()
        assert list(allocation.assignments) == [base.grid, torus.grid]

    def test_schedules_served_one_allocation_own_their_traces(self):
        table: dict = {}
        mesh = Scenario(topology="mesh").build().schedule(table)
        torus = Scenario(topology="torus").build().schedule(table)
        (allocation,) = table.values()
        assert mesh.trace == torus.trace == list(allocation.trace)
        assert mesh.trace is not torus.trace
        mesh.trace.append(mesh.trace[0])
        assert len(torus.trace) == len(allocation.trace) \
            == len(mesh.trace) - 1


    def test_dram_twins_share_their_nop_edges(self):
        # An edge reads the source's payload, both groups' chiplets, the
        # grid and the link, so the caller's edge tables hold one table
        # per (grid, link): schedules that differ only in DRAM share
        # every NoPEdge object, the pipelined FE group's internal edge
        # included (two NPUs), and a slower link prices edges of its own.
        from repro.sweep.runner import RunTables, run_scenario
        scenarios = [Scenario(npus=2), Scenario(npus=2, dram_gbps=6.0),
                     Scenario(npus=2, nop_gbps=25.0)]
        tables = RunTables()
        plain, dram, slower = (
            s.build(tables.workloads).schedule(
                tables.allocations, tables.placements, tables.edges)
            for s in scenarios)
        assert plain.dram is None and dram.dram is not None
        edges = plain.nop_edges()
        assert any(e.src_group == e.dst_group for e in edges)
        assert all(a is b for a, b in zip(edges, dram.nop_edges()))
        assert not any(a is b for a, b in zip(edges, slower.nop_edges()))
        grid = plain.package.grid
        assert list(tables.edges) == [(grid, plain.package.nop),
                                      (grid, slower.package.nop)]
        # A schedule built without the tables, or copied outside the
        # matcher, prices its own edges.
        alone = scenarios[1].build(tables.workloads).schedule(
            tables.allocations, tables.placements)
        assert not any(a is b for a, b in zip(edges, alone.nop_edges()))
        assert alone.nop_edges() == edges
        moved = dataclasses.replace(plain, package=slower.package)
        assert moved.edges is not plain.edges
        assert moved.nop_latency_s == slower.nop_latency_s \
            != plain.nop_latency_s
        # Rows through one set of run tables equal lone rows.
        tables = RunTables()
        assert json.dumps([run_scenario(s, tables) for s in scenarios]) \
            == json.dumps([run_scenario(s) for s in scenarios])


class TestFrozenTraces:
    def test_traces_match_frozen_fixture(self):
        # Per-step pipe latency and remaining budget, bit for bit: rows
        # carry only the step count, so this is what locks the matcher's
        # running state.
        assert trace_doc() == json.loads(TRACES.read_text())

    def test_fixture_covers_a_dram_throttled_scenario(self):
        assert Scenario(dram_gbps=2.0).build().schedule().dram_throttled
