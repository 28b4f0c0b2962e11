"""Tests for heterogeneous end-to-end scheduling and DRAM accounting."""

import pytest

from repro.arch import (
    DramBudget,
    camera_input_bytes,
    dram_report,
    weight_stream_bytes,
)
from repro.core import schedule_heterogeneous


class TestHeterogeneousFlow:
    @pytest.fixture(scope="class")
    def het2(self):
        return schedule_heterogeneous(ws_chiplets=2)

    def test_het_saves_energy_end_to_end(self, het2):
        assert het2.energy_saving_j > 0
        assert het2.energy_j < het2.schedule.energy_j

    def test_pipe_latency_not_degraded(self, het2):
        # The DSE enforces the latency constraint, so the FE-bound pipe
        # latency must survive heterogeneous integration.
        assert het2.pipe_latency_s == pytest.approx(
            het2.schedule.pipe_latency_s)

    def test_os_only_variant_keeps_homogeneous_package(self):
        result = schedule_heterogeneous(ws_chiplets=0)
        package = result.schedule.package
        assert all(package.engine(c.quadrant).dataflow == "os"
                   for c in package.chiplets)
        assert {style for _, style in result.trunk_config.alloc.values()} \
            == {"os"}
        assert result.trunk_config.ws_chiplets == 0

    def test_detection_lands_on_ws(self, het2):
        assert het2.trunk_config.alloc["DET_TR"][1] == "ws"


class TestDram:
    def test_camera_bytes(self):
        # 8 cameras x 3 x 720 x 1280 x 2 bytes.
        assert camera_input_bytes() == 8 * 3 * 720 * 1280 * 2

    def test_weight_stream_excludes_attention_operands(self, workload):
        total = weight_stream_bytes(workload)
        assert total > 0
        # Attention score/context matrices are produced on package and
        # never hit DRAM: removing them from the count changes nothing.
        matmul_words = sum(
            l.weight_words * g.instances
            for g in workload.all_groups() for l in g.layers
            if l.weights_are_activations)
        assert matmul_words > 0  # they exist...
        # ...but were already excluded from the DRAM stream.

    def test_fsd_lpddr4_sustains_30fps(self, workload):
        report = dram_report(workload)
        assert report.sustainable
        assert report.bandwidth_utilization < 0.5
        assert report.max_fps > 60

    def test_tight_budget_fails(self, workload):
        report = dram_report(workload,
                             budget=DramBudget(bandwidth_bytes_per_s=5e9))
        assert not report.sustainable

    def test_energy_positive_and_scaled(self, workload):
        report = dram_report(workload)
        assert report.energy_j > 0
        # DRAM energy stays a small fraction of the ~0.8 J compute budget.
        assert report.energy_j < 0.2

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            DramBudget(bandwidth_bytes_per_s=0)
