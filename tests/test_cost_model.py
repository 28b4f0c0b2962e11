"""Unit tests for layer/group cost evaluation (repro.cost.model)."""

import dataclasses

import pytest

from repro.cost import (
    chain_energy_j,
    chain_latency_s,
    evaluate,
    shidiannao_chiplet,
    simba_chiplet,
)
from repro.workloads import conv, dense, pool, softmax


class TestComputeLayers:
    def test_latency_is_cycles_over_frequency(self, os_accel):
        layer = conv("c", (64, 64), 64, 64)
        cost = evaluate(layer, os_accel)
        assert cost.latency_s == pytest.approx(
            cost.cycles / os_accel.frequency_hz)

    def test_energy_at_least_mac_energy(self, os_accel, ws_accel):
        layer = dense("d", (100, 100), 128, 128)
        floor = layer.macs * os_accel.energy.mac_pj * 1e-12
        assert evaluate(layer, os_accel).energy_j > floor
        assert evaluate(layer, ws_accel).energy_j > floor

    def test_utilization_definitions(self, os_accel):
        layer = conv("c", (160, 160), 64, 64)
        cost = evaluate(layer, os_accel)
        assert 0 < cost.utilization <= 1
        assert 0 < cost.engagement <= 1
        assert cost.utilization == pytest.approx(
            layer.macs / (cost.cycles * os_accel.pe_count))

    def test_monolithic_utilization_collapses(self):
        from repro.cost import monolithic
        layer = dense("d", (200, 80), 384, 384)
        chiplet = evaluate(layer, shidiannao_chiplet())
        big = evaluate(layer, monolithic(9216))
        # Same cycles (fixed native dataflow tile), 36x more idle PEs.
        assert big.cycles == chiplet.cycles
        assert big.utilization == pytest.approx(chiplet.utilization / 36)

    def test_dram_words_zero_for_activation_weights(self, os_accel):
        from repro.workloads import matmul
        scores = matmul("m", (200, 80), 800, 384)
        proj = dense("d", (200, 80), 800, 384)
        assert evaluate(scores, os_accel).dram_words == 0
        assert evaluate(proj, os_accel).dram_words == proj.weight_words

    def test_bandwidth_bound_detected_when_port_is_narrow(self):
        starved = dataclasses.replace(simba_chiplet("os"),
                                      gb_words_per_cycle=1,
                                      name="starved")
        layer = conv("c", (64, 64), 64, 64)
        cost = evaluate(layer, starved)
        assert cost.bound == "bandwidth"
        wide = evaluate(layer, shidiannao_chiplet())
        assert wide.bound == "compute"
        assert cost.cycles > wide.cycles


class TestVectorLayers:
    def test_vector_latency_uses_simd_lanes(self, os_accel):
        layer = pool("p", (20, 80), 64)
        cost = evaluate(layer, os_accel)
        expected = -(-layer.vector_elems // os_accel.vector_lanes)
        assert cost.cycles == expected
        assert cost.bound == "vector"
        assert cost.macs == 0

    def test_softmax_energy_positive(self, os_accel):
        cost = evaluate(softmax("s", (200, 80), 800), os_accel)
        assert cost.energy_j > 0


class TestChains:
    def test_chain_helpers_sum_layers(self, os_accel):
        layers = [conv("a", (32, 32), 32, 32), dense("b", (32, 32), 64, 32)]
        assert chain_latency_s(layers, os_accel) == pytest.approx(
            sum(evaluate(l, os_accel).latency_s for l in layers))
        assert chain_energy_j(layers, os_accel) == pytest.approx(
            sum(evaluate(l, os_accel).energy_j for l in layers))

    def test_evaluation_is_memoized(self, os_accel):
        layer = conv("memo", (32, 32), 32, 32)
        assert evaluate(layer, os_accel) is evaluate(layer, os_accel)


class TestCalibration:
    """The DESIGN.md Sec. 3 calibration bands (paper-facing anchors)."""

    def test_fe_bfpn_single_chiplet_near_latbase(self, workload, os_accel):
        fe = workload.find_group("FE_BFPN")
        lat_ms = chain_latency_s(fe.layers, os_accel) * 1e3
        assert 80 < lat_ms < 100  # paper: 82.7 ms

    def test_s_attn_matches_paper(self, workload, os_accel):
        attn = workload.find_group("S_ATTN")
        lat_ms = chain_latency_s(attn.layers, os_accel) * 1e3
        assert 18 < lat_ms < 23  # paper: 20.5 ms

    def test_t_ffn_dominates_fusion(self, workload, os_accel):
        t_ffn = workload.find_group("T_FFN")
        total_ms = (chain_latency_s(t_ffn.layers, os_accel)
                    * t_ffn.instances * 1e3)
        assert 400 < total_ms < 520  # paper: 490.2 ms

    def test_os_ws_latency_ratio_band(self, workload, os_accel, ws_accel):
        lat_os = sum(chain_latency_s(g.layers, os_accel) * g.instances
                     for g in workload.all_groups())
        lat_ws = sum(chain_latency_s(g.layers, ws_accel) * g.instances
                     for g in workload.all_groups())
        assert 5.5 < lat_ws / lat_os < 8.5  # paper: 6.85x

    def test_ws_wins_fe_energy_os_wins_fusion_energy(self, workload,
                                                     os_accel, ws_accel):
        fe = workload.find_group("FE_BFPN")
        assert (chain_energy_j(fe.layers, ws_accel)
                < chain_energy_j(fe.layers, os_accel))
        ffn = workload.find_group("T_FFN")
        assert (chain_energy_j(ffn.layers, os_accel)
                < chain_energy_j(ffn.layers, ws_accel))
