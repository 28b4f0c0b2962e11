"""Unit tests for the dataflow mapping analysis (hand-computed expectations)."""

import pytest

from repro.cost import map_layer, nvdla_chiplet, shidiannao_chiplet
from repro.workloads import conv, dense, dwconv, pool


@pytest.fixture(scope="module")
def os_acc():
    return shidiannao_chiplet()


@pytest.fixture(scope="module")
def ws_acc():
    return nvdla_chiplet()


class TestOutputStationary:
    def test_resnet_conv_cycles(self, os_acc):
        # 64->64 3x3 @ 180x320 on a 16x16 tile: 12*20 positions, each
        # iterating k*c*r*s = 36864 cycles.
        layer = conv("c", (180, 320), 64, 64, r=3)
        m = map_layer(layer, os_acc)
        assert m.passes == 240
        assert m.compute_cycles == 240 * 36864

    def test_engagement_with_edge_tiles(self, os_acc):
        # 23x40 plane: ceil(23/16)*ceil(40/16) = 2*3 = 6 positions.
        layer = conv("c", (23, 40), 512, 512, r=3)
        m = map_layer(layer, os_acc)
        assert m.passes == 6
        assert m.engagement == pytest.approx(920 / (6 * 256))

    def test_token_grid_dense(self, os_acc):
        layer = dense("d", (200, 80), 384, 384)
        m = map_layer(layer, os_acc)
        assert m.passes == 13 * 5
        assert m.compute_cycles == 65 * 384 * 384

    def test_1d_token_set_folds_flat(self, os_acc):
        layer = dense("d", (1, 1000), 16, 16)
        m = map_layer(layer, os_acc)
        assert m.passes == 4  # ceil(1000/256)
        assert m.engagement == pytest.approx(1000 / (4 * 256))

    def test_weights_refetched_per_position(self, os_acc):
        layer = conv("c", (180, 320), 64, 64, r=3)
        m = map_layer(layer, os_acc)
        assert m.weight_gb_words == layer.weight_words * 240

    def test_input_cached_when_footprint_fits(self, os_acc):
        # c*r*s = 64*9 = 576 <= 1024-word PE cache: inputs read once.
        layer = conv("c", (180, 320), 64, 64, r=3)
        m = map_layer(layer, os_acc)
        assert m.input_gb_words == layer.input_words

    def test_input_rereads_when_footprint_overflows(self, os_acc):
        # c = 1536 > 1024: ceil(1536/1024) = 2 rereads.
        layer = dense("d", (200, 80), 384, 1536)
        m = map_layer(layer, os_acc)
        assert m.input_gb_words == layer.input_words * 2

    def test_no_psum_traffic(self, os_acc):
        layer = conv("c", (64, 64), 64, 64)
        assert map_layer(layer, os_acc).accum_words == 0


class TestWeightStationary:
    def test_resnet_conv_cycles_include_drain(self, ws_acc):
        # k/c tiles: 4*4 = 16 passes; per pass: plane * (9 + drain).
        layer = conv("c", (180, 320), 64, 64, r=3)
        m = map_layer(layer, ws_acc)
        drain = ws_acc.reduction_drain_cycles
        assert m.passes == 16
        assert m.compute_cycles == 16 * 57600 * (9 + drain)

    def test_attention_layer_drain_dominates(self, ws_acc):
        # r=s=1: per-pass cost is 1 + drain, so the WS penalty is largest
        # exactly on the fusion layers (the paper's Fig. 4 affinity).
        layer = dense("d", (200, 80), 384, 384)
        m = map_layer(layer, ws_acc)
        assert m.passes == 24 * 24
        assert m.compute_cycles == 576 * 16000 * (
            1 + ws_acc.reduction_drain_cycles)

    def test_weights_fetched_once(self, ws_acc):
        layer = conv("c", (180, 320), 64, 64, r=3)
        m = map_layer(layer, ws_acc)
        assert m.weight_gb_words == layer.weight_words

    def test_psum_spill_per_extra_c_tile(self, ws_acc):
        layer = dense("d", (200, 80), 384, 384)
        m = map_layer(layer, ws_acc)
        # ceil(384/16) - 1 = 23 extra C tiles.
        assert m.accum_words == 2 * layer.output_words * 23

    def test_depthwise_has_no_drain_or_spill(self, ws_acc):
        layer = dwconv("dw", (90, 160), 256, r=3)
        m = map_layer(layer, ws_acc)
        assert m.passes == 1  # 256 channels across 256 PEs
        assert m.compute_cycles == 14400 * 9
        assert m.accum_words == 0


class TestDispatch:
    def test_map_layer_dispatches_by_style(self, os_acc, ws_acc):
        layer = conv("c", (32, 32), 32, 32)
        # OS: 2*2 tile positions, each iterating k*c*r*s = 9216 cycles.
        assert map_layer(layer, os_acc).compute_cycles == 4 * 9216
        # WS: 2*2 (K, C) tiles, each streaming 1024 pixels * (9 + drain).
        assert (map_layer(layer, ws_acc).compute_cycles
                == 4 * 1024 * (9 + ws_acc.reduction_drain_cycles))

    def test_vector_layers_rejected(self, os_acc):
        with pytest.raises(ValueError):
            map_layer(pool("p", (8, 8), 16), os_acc)

    def test_os_faster_on_attention_ws_competitive_on_dwconv(self, os_acc,
                                                             ws_acc):
        attn = dense("d", (200, 80), 384, 384)
        assert (map_layer(attn, ws_acc).compute_cycles
                > 5 * map_layer(attn, os_acc).compute_cycles)
