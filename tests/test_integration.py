"""Cross-module integration tests: the full flow, end to end.

These tie the subsystems together the way a user would: build -> validate
-> schedule -> stream -> visualize, asserting the views stay mutually
consistent.
"""

import pytest
from oracles import check_workload, stream_validate

from repro.arch import DramBudget, simba_package, workload_dram_bytes
from repro.core import match_throughput
from repro.viz import chiplet_labels, render_floorplan
from repro.workloads import PipelineConfig, build_perception_workload


class TestFullFlow:
    def test_build_validate_schedule_stream(self):
        config = PipelineConfig(cameras=4, t_frames=6)
        workload = build_perception_workload(config)
        check_workload(workload)
        schedule = match_throughput(workload, simba_package())
        result = stream_validate(schedule, n_frames=16)
        assert result.prediction_error < 0.05
        # The FSD's LPDDR4 streams a frame's DRAM bytes within one
        # camera period.
        stream_s = DramBudget().stream_time_s(
            workload_dram_bytes(workload, config))
        assert stream_s * config.fps <= 1.0

    def test_floorplan_consistent_with_busy_map(self, schedule36):
        labels = chiplet_labels(schedule36)
        busy = schedule36.chiplet_busy()
        idle = [cid for cid, b in busy.items() if b == 0.0]
        for cid in idle:
            assert cid not in labels
        text = render_floorplan(schedule36)
        assert text.count("idle") == len(idle)

    def test_dual_package_flow(self):
        workload = build_perception_workload()
        schedule = match_throughput(workload, simba_package(npus=2))
        text = render_floorplan(schedule)
        # 12-wide mesh renders 12 columns of cells.
        first_border = text.splitlines()[0]
        assert first_border.count("+") == 13
        result = stream_validate(schedule, n_frames=8)
        assert result.measured_pipe_s < 0.06  # ~46 ms

    def test_stream_energy_independent_path(self, schedule36):
        # Energy is per-frame and schedule-derived; the DES must not
        # change what a frame costs.
        before = schedule36.energy_j
        stream_validate(schedule36, n_frames=8)
        assert schedule36.energy_j == before


class TestConfigVariants:
    @pytest.mark.parametrize("cams,frames", [(4, 6), (6, 12), (8, 24)])
    def test_matcher_succeeds_across_configs(self, cams, frames):
        config = PipelineConfig(cameras=cams, t_frames=frames)
        workload = build_perception_workload(config)
        schedule = match_throughput(workload, simba_package())
        assert schedule.pipe_latency_s > 0
        assert schedule.e2e_latency_s >= schedule.pipe_latency_s
        assert 0 < schedule.utilization <= 1

    def test_occ_stage_variants_schedule(self):
        for stages in (1, 2, 4):
            config = PipelineConfig(occ_stages=stages)
            workload = build_perception_workload(config)
            schedule = match_throughput(workload, simba_package())
            assert schedule.pipe_latency_s > 0
