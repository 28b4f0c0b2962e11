"""Unit tests for the layer IR (repro.workloads.layers)."""

import pytest
from oracles import split_plane

from repro.workloads.layers import (
    BYTES_PER_WORD,
    Layer,
    LayerKind,
    concat,
    conv,
    deconv,
    dense,
    dwconv,
    eltwise,
    matmul,
    move,
    pool,
    softmax,
    total_macs,
)


class TestConstruction:
    def test_conv_constructor_fields(self):
        layer = conv("c", (180, 320), 64, 3, r=7, stride=4)
        assert layer.kind is LayerKind.CONV
        assert (layer.out_h, layer.out_w) == (180, 320)
        assert (layer.k, layer.c, layer.r, layer.s) == (64, 3, 7, 7)
        assert layer.stride == 4

    def test_tags_are_stored_but_not_part_of_identity(self):
        a = conv("c", (8, 8), 4, 4, stage="X")
        b = conv("c", (8, 8), 4, 4, stage="Y")
        assert a.tags["stage"] == "X"
        assert a == b  # tags excluded from equality
        assert hash(a) == hash(b)

    def test_rejects_nonpositive_plane(self):
        with pytest.raises(ValueError):
            Layer("bad", LayerKind.CONV, 0, 10, 4, 4)

    def test_rejects_nonpositive_channels(self):
        with pytest.raises(ValueError):
            Layer("bad", LayerKind.CONV, 4, 4, 0, 4)

    def test_depthwise_requires_c_equal_one(self):
        with pytest.raises(ValueError):
            Layer("bad", LayerKind.DWCONV, 4, 4, 16, 3)

    def test_matmul_weights_are_activations(self):
        layer = matmul("m", (10, 10), 64, 32)
        assert layer.weights_are_activations
        assert not dense("d", (10, 10), 64, 32).weights_are_activations


class TestDerivedSizes:
    def test_conv_macs(self):
        layer = conv("c", (180, 320), 64, 64, r=3)
        assert layer.macs == 180 * 320 * 64 * 64 * 9

    def test_dense_macs(self):
        layer = dense("d", (200, 80), 384, 384)
        assert layer.macs == 200 * 80 * 384 * 384

    def test_dwconv_macs_has_no_channel_reduction(self):
        layer = dwconv("dw", (90, 160), 256, r=3)
        assert layer.macs == 90 * 160 * 256 * 9

    def test_deconv_uses_zero_insertion_model(self):
        # r*s MACs per output pixel, including inserted zeros.
        layer = deconv("d", (40, 160), 90, 90, r=3, stride=2)
        assert layer.macs == 40 * 160 * 90 * 90 * 9

    def test_vector_ops_have_no_macs(self):
        for layer in (pool("p", (10, 10), 64), eltwise("e", (10, 10), 64),
                      softmax("s", (10, 10), 64), concat("c", (10, 10), 64),
                      move("m", (10, 10), 64)):
            assert layer.macs == 0
            assert layer.vector_elems == 100 * 64

    def test_weight_words(self):
        assert conv("c", (8, 8), 64, 32, r=3).weight_words == 64 * 32 * 9
        assert dwconv("dw", (8, 8), 64, r=3).weight_words == 64 * 9
        assert dense("d", (8, 8), 64, 32).weight_words == 64 * 32
        assert pool("p", (8, 8), 64).weight_words == 0

    def test_input_plane_accounts_for_stride_and_kernel(self):
        layer = conv("c", (90, 160), 128, 64, r=3, stride=2)
        assert layer.in_h == 89 * 2 + 3
        assert layer.in_w == 159 * 2 + 3

    def test_deconv_input_plane_is_downsampled(self):
        layer = deconv("d", (40, 160), 90, 90, stride=2)
        assert (layer.in_h, layer.in_w) == (20, 80)

    def test_output_bytes_fp16(self):
        layer = dense("d", (20, 80), 256, 300)
        assert layer.output_bytes == 20 * 80 * 256 * BYTES_PER_WORD

    def test_total_macs_helper(self):
        layers = [conv("a", (8, 8), 4, 4), dense("b", (8, 8), 4, 4)]
        assert total_macs(layers) == sum(l.macs for l in layers)


class TestShardTransforms:
    def test_split_rows_partitions_height(self):
        layer = conv("c", (20, 80), 64, 64)
        shards = [split_plane(layer, 3, i) for i in range(3)]
        assert sum(s.out_h for s in shards) == 20
        assert {s.out_w for s in shards} == {80}

    def test_split_rows_validates_bounds(self):
        layer = conv("c", (4, 4), 4, 4)
        with pytest.raises(ValueError):
            split_plane(layer, 5, 0)
        with pytest.raises(ValueError):
            split_plane(layer, 2, 2)
