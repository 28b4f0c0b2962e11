"""Tests for the workload knobs, swept through the workload variants.

``sweep --workloads`` varies the paper's fixed workload (8 cameras,
720p, a 12-frame queue) one knob at a time and re-runs the full
scheduler: where the FE-bound base latency moves, when the fusion
stages reclaim the bottleneck, and how energy follows the work.
"""

import pytest

from repro.sweep import ScenarioSweep, scenario_grid

#: every variant that moves one knob of the default workload
VARIANTS = ("lores", "default", "hires", "quad-camera", "six-camera",
            "shallow-queue", "deep-queue")


@pytest.fixture(scope="module")
def rows():
    grid = scenario_grid(workloads=VARIANTS)
    return {r["workload"]: r for r in ScenarioSweep(grid).run().rows}


class TestResolutionSweep:
    def test_base_latency_monotone_in_resolution(self, rows):
        base = [rows[v]["base_ms"] for v in ("lores", "default", "hires")]
        assert base == sorted(base)
        assert base[0] < base[-1]

    def test_low_resolution_moves_bottleneck_off_fe(self, rows):
        # With a light FE, the fusion stages set the pipe latency.
        assert rows["lores"]["pipe_ms"] > rows["lores"]["base_ms"]


class TestCameraSweep:
    def test_energy_scales_with_cameras(self, rows):
        assert rows["quad-camera"]["energy_j"] \
            < rows["six-camera"]["energy_j"] < rows["default"]["energy_j"]

    def test_labels_present(self, rows):
        assert set(rows) == set(VARIANTS)
        assert rows["quad-camera"]["pipe_ms"] > 0


class TestFrameQueueSweep:
    def test_deep_queues_outgrow_the_quadrant(self, rows):
        # At 12 frames the FE bounds the pipe; at 24 the T_FUSE quadrant
        # runs out of sharding room and takes over the bottleneck.
        default, deep = rows["default"], rows["deep-queue"]
        assert default["pipe_ms"] <= default["base_ms"] + 1e-6
        assert deep["pipe_ms"] > deep["base_ms"]

    def test_energy_monotone_in_queue_depth(self, rows):
        assert rows["shallow-queue"]["energy_j"] \
            < rows["default"]["energy_j"] < rows["deep-queue"]["energy_j"]
