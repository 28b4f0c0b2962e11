"""Unit tests for accelerator configs and energy tables."""

import dataclasses

import pytest

from repro.arch import transfer_cost
from repro.cost import (
    ENERGY_28NM,
    AcceleratorConfig,
    monolithic,
    nvdla_chiplet,
    shidiannao_chiplet,
    simba_chiplet,
)
from repro.workloads import BYTES_PER_WORD


class TestEnergyTable:
    def test_nop_word_energy(self):
        # The paper's 2.04 pJ/bit: one fp16 word over one hop.
        word = transfer_cost(BYTES_PER_WORD, 1)
        assert word.energy_j == pytest.approx(2.04 * 16 * 1e-12)

    def test_scaled_uniform(self):
        half = ENERGY_28NM.scaled(0.5)
        assert half.mac_pj == pytest.approx(ENERGY_28NM.mac_pj * 0.5)
        assert half.dram_pj_word == pytest.approx(
            ENERGY_28NM.dram_pj_word * 0.5)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ENERGY_28NM.scaled(0)


class TestAcceleratorConfig:
    def test_simba_chiplet_matches_paper_setup(self):
        accel = simba_chiplet()
        assert accel.pe_count == 256  # Sec. III: 256 PEs per chiplet
        assert accel.frequency_hz == 2.0e9  # Sec. III: 2 GHz
        assert accel.native_tile == (16, 16)

    def test_peak_throughput(self, schedule36):
        # Utilization is the schedule's MACs over the package's peak in
        # one pipe window: 36 chiplets of 256 PEs, each busy every cycle
        # at 2 GHz.
        peak_macs_per_s = 36 * 256 * 2.0e9
        assert schedule36.utilization == pytest.approx(
            schedule36.workload.total_macs
            / (peak_macs_per_s * schedule36.pipe_latency_s))

    def test_dataflow_presets(self):
        assert shidiannao_chiplet().dataflow == "os"
        assert nvdla_chiplet().dataflow == "ws"

    def test_with_dataflow_swaps_style(self):
        os_accel = shidiannao_chiplet()
        ws = os_accel.with_overrides(dataflow="ws")
        assert ws.dataflow == "ws"
        assert ws == dataclasses.replace(os_accel, dataflow="ws")

    def test_unknown_dataflow_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(name="x", pe_count=256, dataflow="systolic")

    def test_pe_count_must_cover_native_tile(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(name="x", pe_count=64)

    def test_monolithic_scales_buffer_and_port(self):
        big = monolithic(9216)
        assert big.pe_count == 9216
        assert big.gb_words_per_cycle == 32 * 36
        assert big.gb_bytes == 2 * 1024 * 1024 * 36
        # Native dataflow tile does NOT scale — the paper's baseline story.
        assert big.native_tile == (16, 16)
