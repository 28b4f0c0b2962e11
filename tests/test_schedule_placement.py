"""Tests for schedule metrics accounting and NoP-aware placement."""

import pytest

from repro.core.placement import default_stage_quadrants, place


class TestChipletBusy:
    def test_busy_covers_all_chiplets(self, schedule36):
        busy = schedule36.chiplet_busy()
        assert set(busy) == {c.chiplet_id
                             for c in schedule36.package.chiplets}

    def test_pipe_is_max_busy(self, schedule36):
        busy = schedule36.chiplet_busy()
        assert schedule36.pipe_latency_s == pytest.approx(max(busy.values()))

    def test_colocated_span_lands_on_host_chiplet(self, schedule36):
        host_id = schedule36.chiplets_of("S_Q_PROJ")[0]
        attn_ids = schedule36.groups["S_ATTN"].chiplet_ids
        assert host_id == attn_ids[0]
        busy = schedule36.chiplet_busy()
        attn_plan = schedule36.groups["S_ATTN"].plan
        q_plan = schedule36.groups["S_Q_PROJ"].plan
        assert busy[host_id] == pytest.approx(
            attn_plan.per_chiplet_busy[0] + q_plan.span_s)


class TestNoPAccounting:
    def test_edges_cover_stage_boundaries(self, schedule36):
        pairs = {(e.src_group, e.dst_group)
                 for e in schedule36.nop_edges()}
        assert ("FE_BFPN", "S_LIFT") in pairs
        assert ("S_KV_PROJ", "S_ATTN") in pairs
        assert ("T_FFN", "T_POOL") in pairs

    def test_energy_includes_nop(self, schedule36):
        assert schedule36.energy_j == pytest.approx(
            schedule36.compute_energy_j + schedule36.nop_energy_j)

    def test_stage_span_at_least_longest_group(self, schedule36):
        for stage in schedule36.workload.stages:
            span = schedule36.stage_span_s(stage.name)
            for g in stage.groups:
                assert span >= schedule36.groups[g.name].plan.span_s - 1e-12

    def test_e2e_at_least_sum_of_stage_spans(self, schedule36):
        total = sum(schedule36.stage_span_s(s.name)
                    for s in schedule36.workload.stages)
        assert schedule36.e2e_latency_s >= total - 1e-12


class TestPlacement:
    def test_default_quadrant_map(self, workload):
        from repro.arch import simba_package
        mapping = default_stage_quadrants(workload, simba_package())
        assert mapping == {"FE_BFPN": (0,), "S_FUSE": (1,),
                           "T_FUSE": (2,), "TRUNKS": (3,)}
        dual = default_stage_quadrants(workload, simba_package(npus=2))
        assert dual["S_FUSE"] == (1, 5)

    def test_groups_stay_inside_their_quadrants(self, schedule36):
        for stage in schedule36.workload.stages:
            allowed = {c.chiplet_id
                       for q in schedule36.stage_quadrants[stage.name]
                       for c in schedule36.package.quadrant(q)}
            for g in stage.groups:
                gs = schedule36.groups[g.name]
                if gs.host is None:
                    assert set(gs.chiplet_ids) <= allowed

    def test_place_rejects_overflow(self, workload):
        from repro.arch import simba_package
        pkg = simba_package()
        quadrants = default_stage_quadrants(workload, pkg)
        alloc = {g.name: 5 for g in workload.all_groups()}
        with pytest.raises(ValueError):
            place(workload, pkg, alloc, quadrants, colocated={})

    def test_stage_table_keys_by_the_anchoring_chiplets(
            self, cross_stage_workload):
        # A stage places from the chiplets that anchor it: the previous
        # stage's, and those of a producer stages back (OCC_TR reads
        # S_KV_PROJ across T_FUSE).  Allocations that differ only there
        # place every stage through one table exactly as alone, and
        # share the stages they place alike.
        from repro.arch import simba_package
        from repro.core import ThroughputMatcher
        workload = cross_stage_workload
        pkg = simba_package(npus=2)
        groups = ThroughputMatcher(workload, pkg).run().groups
        colocated = {name: gs.host for name, gs in groups.items()
                     if gs.host is not None}
        alloc = {name: gs.plan.n_chiplets for name, gs in groups.items()
                 if gs.host is None}
        spatial = alloc["S_KV_PROJ"] + alloc["S_FFN"]
        allocs = (alloc,
                  dict(alloc, FE_BFPN=4),
                  dict(alloc, S_KV_PROJ=2, S_FFN=spatial - 2))
        quadrants = default_stage_quadrants(workload, pkg)
        table: dict = {}
        placed = [place(workload, pkg, a, quadrants, colocated, table)
                  for a in allocs]
        assert placed == [place(workload, pkg, a, quadrants, colocated)
                          for a in allocs]
        # Fewer FE chiplets move every spatial group; fewer S_KV_PROJ
        # chiplets move the trunk groups, but not T_FUSE.
        assert placed[1]["S_ATTN"] != placed[0]["S_ATTN"]
        assert placed[2]["T_FFN"] == placed[0]["T_FFN"]
        assert placed[2]["OCC_TR"] != placed[0]["OCC_TR"]
        assert len(table) < 4 * len(allocs)

    def test_placement_prefers_proximity_to_producers(self, schedule36):
        # The consumer of the biggest fusion tensors (S_ATTN) must sit
        # adjacent to at least one of its KV producer chiplets.
        pkg = schedule36.package
        attn = schedule36.chiplets_of("S_ATTN")[0]
        kv = schedule36.chiplets_of("S_KV_PROJ")
        assert min(pkg.hops(attn, k) for k in kv) <= 2
