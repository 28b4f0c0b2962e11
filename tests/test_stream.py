"""Tests for the discrete-event stream simulator."""

import pytest

from oracles import StreamSimulator, stream_validate


class TestStreamValidation:
    def test_measured_pipe_matches_analytical(self, schedule36):
        result = stream_validate(schedule36, n_frames=32)
        # The DES must confirm the analytical steady-state prediction.
        assert result.prediction_error < 0.02

    def test_dual_npu_throughput_also_validates(self, schedule72):
        result = stream_validate(schedule72, n_frames=32)
        assert result.prediction_error < 0.05

    def test_first_frame_latency_near_e2e(self, schedule36):
        result = stream_validate(schedule36, n_frames=8)
        # An empty pipeline processes frame 0 in about the analytical E2E
        # (the DES omits only second-order NoP terms).
        assert result.first_frame_latency_s == pytest.approx(
            schedule36.e2e_latency_s, rel=0.05)

    def test_departures_monotone(self, schedule36):
        result = stream_validate(schedule36, n_frames=16)
        deps = [f.departure_s for f in result.frames]
        assert all(a < b for a, b in zip(deps, deps[1:]))

    def test_bottleneck_chiplet_saturates(self, schedule36):
        result = stream_validate(schedule36, n_frames=32)
        assert max(result.chiplet_occupancy.values()) > 0.85

    def test_paced_admission_keeps_latency_bounded(self, schedule36):
        sim = StreamSimulator(schedule36)
        paced = sim.run(n_frames=32,
                        arrival_period_s=schedule36.pipe_latency_s * 1.01)
        # At or below the sustainable rate, frame latency stays near E2E
        # instead of growing with queue depth.
        assert paced.steady_latency_s < 1.5 * schedule36.e2e_latency_s

    def test_saturated_admission_grows_queues(self, schedule36):
        flooded = stream_validate(schedule36, n_frames=32)
        assert flooded.steady_latency_s > flooded.first_frame_latency_s

    def test_perception_pipeline_misses_30fps_on_one_npu(self, schedule36):
        # ~89 ms pipe latency sustains ~11 FPS; the 30 FPS camera rate
        # needs further scaling (the paper's dual-NPU motivation).
        result = stream_validate(schedule36, n_frames=16)
        assert not result.meets_target_fps
        assert 9 < result.sustainable_fps < 14

    def test_validation_errors(self, schedule36):
        with pytest.raises(ValueError):
            StreamSimulator(schedule36, target_fps=0)
        with pytest.raises(ValueError):
            StreamSimulator(schedule36).run(n_frames=1)
