"""Regression tests for the PR 1 schedule/stream accounting fixes."""

from dataclasses import replace

import pytest
from oracles import StreamSimulator

from repro.arch import QuadrantOverrides, simba_package, transfer_cost


class TestHeterogeneousUtilization:
    """utilization must use each chiplet's own clock, not chiplet 0's."""

    def test_homogeneous_matches_single_frequency_formula(self, schedule36):
        pkg = schedule36.package
        freq = pkg.engine(pkg.chiplets[0].quadrant).frequency_hz
        expected = schedule36.workload.total_macs / (
            pkg.total_pes * schedule36.pipe_latency_s * freq)
        assert schedule36.utilization == pytest.approx(expected)

    def test_mixed_frequencies_use_per_chiplet_clocks(self, schedule36):
        # Halve the clock of the quadrant holding chiplet 0: the old
        # formula read chiplet 0's frequency for the *whole* package and
        # would halve the reported PE-cycles; the fix halves only that
        # quadrant's own contribution.
        het_pkg = QuadrantOverrides.parse("fe:@1").apply(simba_package())
        accels = [het_pkg.engine(c.quadrant) for c in het_pkg.chiplets]
        assert accels[0].frequency_hz == 1.0e9
        het = replace(schedule36, package=het_pkg)

        window = het.pipe_latency_s
        expected_cycles = sum(
            a.pe_count * a.frequency_hz * window for a in accels)
        assert het.utilization == pytest.approx(
            het.workload.total_macs / expected_cycles)

        buggy = het.workload.total_macs / (
            het_pkg.total_pes * window * accels[0].frequency_hz)
        assert het.utilization != pytest.approx(buggy)
        # Slowing one quadrant shrinks available PE-cycles -> higher util.
        assert het.utilization > schedule36.utilization


class TestPipelineInternalEdge:
    """Per-segment hand-off prices one instance's tensor, not the group's."""

    def test_dual_npu_fe_is_pipeline_partitioned(self, schedule72):
        plan = schedule72.groups["FE_BFPN"].plan
        assert plan.segments >= 2  # the paper's two pipelining stages

    def test_handoff_latency_per_instance_energy_additive(self, schedule72):
        group = schedule72.workload.find_group("FE_BFPN")
        assert group.instances > 1  # the over-counting factor at stake
        plan = schedule72.groups["FE_BFPN"].plan
        edge = schedule72._pipeline_internal_edge("FE_BFPN")

        per_instance = group.output_bytes_per_instance
        hops = plan.segments - 1
        t = transfer_cost(per_instance, 1, schedule72.package.nop)
        # Latency: instances overlap, one instance's tensor per hop.
        assert edge.latency_s == pytest.approx(t.latency_s * hops)
        # Energy and total bytes: the concurrent transfers are additive.
        assert edge.payload_bytes == per_instance * hops * group.instances
        assert edge.energy_j == pytest.approx(
            t.energy_j * hops * group.instances)

        # The pre-fix pricing serialized the whole group's output per hop.
        buggy = transfer_cost(per_instance * group.instances, 1,
                              schedule72.package.nop)
        assert edge.latency_s < buggy.latency_s * hops

    def test_unsegmented_groups_have_no_internal_edge(self, schedule36):
        for name, gs in schedule36.groups.items():
            if gs.plan.segments < 2:
                assert schedule36._pipeline_internal_edge(name) is None


class TestStreamPeriodAndSteadyWindow:
    def test_explicit_zero_period_equals_default(self, schedule36):
        sim = StreamSimulator(schedule36)
        by_none = sim.run(n_frames=8, arrival_period_s=None)
        by_zero = sim.run(n_frames=8, arrival_period_s=0.0)
        assert by_zero.measured_pipe_s == by_none.measured_pipe_s
        assert by_zero.frames == by_none.frames

    def test_negative_period_rejected(self, schedule36):
        with pytest.raises(ValueError):
            StreamSimulator(schedule36).run(n_frames=4,
                                            arrival_period_s=-1.0)

    def test_two_frames_measure_nonzero_pipe(self, schedule36):
        # n_frames=2 used to leave the steady window with a single frame,
        # silently reporting a 0.0 pipe latency and infinite FPS.
        result = StreamSimulator(schedule36).run(n_frames=2)
        assert result.measured_pipe_s > 0.0
        assert result.sustainable_fps < float("inf")

    def test_two_frame_pipe_is_sane(self, schedule36):
        result = StreamSimulator(schedule36).run(n_frames=2)
        # One inter-departure sample: within 2x of the steady prediction.
        assert result.measured_pipe_s == pytest.approx(
            schedule36.pipe_latency_s, rel=1.0)
