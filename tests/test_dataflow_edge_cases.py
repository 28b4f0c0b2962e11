"""Edge-case tests for the dataflow mappers and cost model."""

import pytest

from repro.cost import evaluate, map_layer
from repro.workloads import conv, dense, dwconv, matmul


class TestTinyPlanes:
    def test_plane_smaller_than_tile(self, os_accel):
        layer = conv("tiny", (3, 5), 64, 64, r=3)
        m = map_layer(layer, os_accel)
        assert m.passes == 1
        assert m.engagement == pytest.approx(15 / 256)

    def test_single_pixel_output(self, os_accel, ws_accel):
        layer = conv("pixel", (1, 1), 128, 128, r=1)
        for accel in (os_accel, ws_accel):
            cost = evaluate(layer, accel)
            assert cost.cycles > 0
            assert cost.energy_j > 0

    def test_single_output_channel(self, os_accel, ws_accel):
        layer = conv("k1", (64, 64), 1, 256, r=3)
        os_cost = evaluate(layer, os_accel)
        ws_cost = evaluate(layer, ws_accel)
        # WS wastes 15/16 of its K lanes; OS keeps the plane full.
        assert map_layer(layer, ws_accel).engagement <= 1 / 16 + 1e-9
        assert os_cost.utilization > ws_cost.utilization

    def test_single_input_channel(self, ws_accel):
        layer = conv("c1", (64, 64), 256, 1, r=3)
        m = map_layer(layer, ws_accel)
        assert m.accum_words == 0  # one C tile: no spills


class TestExtremeKernels:
    def test_large_kernel_stride(self, os_accel):
        layer = conv("stem", (180, 320), 64, 3, r=7, stride=4)
        cost = evaluate(layer, os_accel)
        assert cost.macs == 180 * 320 * 64 * 3 * 49
        assert cost.bound == "compute"

    def test_1x1_conv_equals_dense_shape(self, os_accel):
        c1 = conv("c1x1", (20, 80), 256, 300, r=1)
        d = dense("d", (20, 80), 256, 300)
        assert evaluate(c1, os_accel).cycles == evaluate(d, os_accel).cycles

    def test_wide_depthwise(self, os_accel, ws_accel):
        layer = dwconv("dw", (8, 8), 1024, r=3)
        for accel in (os_accel, ws_accel):
            cost = evaluate(layer, accel)
            assert cost.macs == 64 * 1024 * 9
            assert cost.cycles >= cost.macs // accel.native_pes


class TestMatmulSemantics:
    def test_matmul_never_pays_dram(self, os_accel):
        layer = matmul("scores", (200, 80), 4096, 64)
        assert evaluate(layer, os_accel).dram_words == 0

    def test_huge_window_scores(self, os_accel):
        layer = matmul("scores", (200, 80), 16000, 384)
        cost = evaluate(layer, os_accel)
        assert cost.macs == 16000 * 384 * 16000
        assert 0 < cost.utilization <= 1
