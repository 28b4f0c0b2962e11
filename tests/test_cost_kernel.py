"""The flat pricing kernel against a reference copy of the Layer-based model.

``repro.cost`` prices a ``(shape, engine)`` pair with one flat function
per dataflow (:mod:`repro.cost.dataflow`) and one roofline
(:func:`repro.cost.model._price`), reading the operand sizes from
:func:`repro.workloads.layers.operand_words`.  The reference below is the
Layer-based model those replaced, kept verbatim: the three mappers,
``_price``, ``_evaluate_compute`` and ``_evaluate_vector``, over a
stand-in layer that carries the old size properties, so it shares no
formula with the kernel.  ``evaluate``, ``evaluate_shape`` and
``map_layer`` must equal it on every field, compared with ``==``: every
float keeps its expression and operand order.

Malformed shapes are locked here too: :class:`Layer` and
``evaluate_shape`` reject them through one validator, with one message.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cost import (
    DATAFLOW_STYLES,
    LayerCost,
    MappingAnalysis,
    evaluate,
    evaluate_shape,
    eyeriss_chiplet,
    map_layer,
    monolithic,
    nvdla_chiplet,
    shidiannao_chiplet,
    simba_chiplet,
)
from repro.cost.accelerator import (
    OUTPUT_STATIONARY,
    ROW_STATIONARY,
    WEIGHT_STATIONARY,
    AcceleratorConfig,
)
from repro.cost.energy import ENERGY_28NM, PJ_TO_J
from repro.workloads import Layer, LayerKind

# ----------------------------------------------------------------------
# Reference: the Layer-based cost model, verbatim
# ----------------------------------------------------------------------


class _RefLayer:
    """A layer's fields with its size properties as the reference reads
    them (the bodies ``Layer`` had before ``operand_words``)."""

    def __init__(self, name, kind, out_h, out_w, k, c, r=1, s=1, stride=1,
                 weights_are_activations=False):
        self.name = name
        self.kind = kind
        self.out_h = out_h
        self.out_w = out_w
        self.k = k
        self.c = c
        self.r = r
        self.s = s
        self.stride = stride
        self.weights_are_activations = weights_are_activations

    @property
    def out_plane(self) -> int:
        return self.out_h * self.out_w

    @property
    def macs(self) -> int:
        if not self.kind.is_compute:
            return 0
        return self.out_plane * self.k * self.c * self.r * self.s

    @property
    def vector_elems(self) -> int:
        if self.kind.is_compute:
            return 0
        return self.out_plane * self.k

    @property
    def weight_words(self) -> int:
        if not self.kind.is_compute:
            return 0
        if self.kind is LayerKind.DWCONV:
            return self.k * self.r * self.s
        return self.k * self.c * self.r * self.s

    @property
    def in_h(self) -> int:
        if self.kind is LayerKind.DECONV:
            return max(1, math.ceil(self.out_h / self.stride))
        return (self.out_h - 1) * self.stride + self.r

    @property
    def in_w(self) -> int:
        if self.kind is LayerKind.DECONV:
            return max(1, math.ceil(self.out_w / self.stride))
        return (self.out_w - 1) * self.stride + self.s

    @property
    def input_words(self) -> int:
        if self.kind in (LayerKind.DENSE, LayerKind.MATMUL):
            return self.out_plane * self.c
        if self.kind in (LayerKind.CONV, LayerKind.DECONV):
            return self.c * self.in_h * self.in_w
        if self.kind is LayerKind.DWCONV:
            return self.k * self.in_h * self.in_w
        return self.out_plane * self.k

    @property
    def output_words(self) -> int:
        return self.out_plane * self.k


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _plane_tiles(layer, tile: tuple[int, int]) -> tuple[int, float]:
    th, tw = tile
    pes = th * tw
    if layer.out_h == 1:
        positions = _ceil_div(layer.out_w, pes)
    else:
        positions = _ceil_div(layer.out_h, th) * _ceil_div(layer.out_w, tw)
    engagement = layer.out_plane / (positions * pes)
    return positions, engagement


def map_output_stationary(layer,
                          accel: AcceleratorConfig) -> MappingAnalysis:
    positions, engagement = _plane_tiles(layer, accel.native_tile)
    work_per_pixel = layer.k * layer.c * layer.r * layer.s
    compute_cycles = positions * work_per_pixel

    weight_gb = layer.weight_words * positions

    footprint = layer.c * layer.r * layer.s
    if layer.kind is LayerKind.DWCONV:
        rereads = 1
    else:
        rereads = min(layer.k, _ceil_div(footprint, accel.pe_cache_words))
    input_gb = layer.input_words * rereads

    return MappingAnalysis(
        passes=positions,
        compute_cycles=compute_cycles,
        engagement=engagement,
        weight_gb_words=weight_gb,
        input_gb_words=input_gb,
        output_gb_words=layer.output_words,
        accum_words=0,
    )


def map_weight_stationary(layer,
                          accel: AcceleratorConfig) -> MappingAnalysis:
    th, tw = accel.native_tile
    pes = th * tw
    if layer.kind is LayerKind.DWCONV:
        passes = _ceil_div(layer.k, pes)
        engagement = layer.k / (passes * pes)
        c_tiles = 1
        drain = 0
    else:
        k_tiles = _ceil_div(layer.k, th)
        c_tiles = _ceil_div(layer.c, tw)
        passes = k_tiles * c_tiles
        engagement = (layer.k * layer.c) / (passes * pes)
        drain = accel.reduction_drain_cycles

    work_per_pass = layer.out_plane * (layer.r * layer.s + drain)
    compute_cycles = passes * work_per_pass

    accum = 2 * layer.output_words * (c_tiles - 1)

    return MappingAnalysis(
        passes=passes,
        compute_cycles=compute_cycles,
        engagement=engagement,
        weight_gb_words=layer.weight_words,
        input_gb_words=layer.input_words,
        output_gb_words=layer.output_words,
        accum_words=accum,
    )


def map_row_stationary(layer,
                       accel: AcceleratorConfig) -> MappingAnalysis:
    th, tw = accel.native_tile
    if layer.kind is LayerKind.DWCONV:
        folds = max(1, th // layer.r)
        k_groups = _ceil_div(layer.k, folds)
        passes = _ceil_div(layer.out_h, tw) * k_groups
        work_per_pass = layer.out_w * layer.s
        engaged = (layer.k * layer.r * min(layer.out_h, tw)
                   / (passes * th * tw / _ceil_div(layer.out_h, tw)))
        engagement = min(1.0, engaged / max(1, k_groups))
        accum = 2 * layer.output_words * (layer.r - 1)
        compute = passes * work_per_pass
    else:
        folds = max(1, th // layer.r)
        k_groups = _ceil_div(layer.k, folds)
        row_tiles = _ceil_div(layer.out_h, tw)
        passes = row_tiles * k_groups
        work_per_pass = layer.out_w * layer.s * layer.c
        compute = passes * work_per_pass
        useful = layer.macs
        engagement = min(1.0, useful / (compute * th * tw))
        accum = 2 * layer.output_words * (layer.r - 1)

    weight_rereads = _ceil_div(layer.out_h, tw)
    return MappingAnalysis(
        passes=passes,
        compute_cycles=compute,
        engagement=max(engagement, 1e-9),
        weight_gb_words=layer.weight_words * weight_rereads,
        input_gb_words=layer.input_words * max(1, k_groups // 4),
        output_gb_words=layer.output_words,
        accum_words=accum,
    )


_MAPPERS = {
    OUTPUT_STATIONARY: map_output_stationary,
    WEIGHT_STATIONARY: map_weight_stationary,
    ROW_STATIONARY: map_row_stationary,
}


def ref_map_layer(layer, accel: AcceleratorConfig) -> MappingAnalysis:
    if not layer.kind.is_compute:
        raise ValueError(
            f"{layer.name}: {layer.kind} is not a MAC-array layer")
    return _MAPPERS[accel.dataflow](layer, accel)


def _price(layer, accel: AcceleratorConfig) -> LayerCost:
    if layer.kind.is_compute:
        return _evaluate_compute(layer, accel)
    return _evaluate_vector(layer, accel)


def _evaluate_compute(layer, accel: AcceleratorConfig) -> LayerCost:
    mapping: MappingAnalysis = ref_map_layer(layer, accel)
    e = accel.energy

    traffic_cycles = -(-mapping.gb_words // accel.gb_words_per_cycle)
    cycles = max(mapping.compute_cycles, traffic_cycles)
    bound = "compute" if cycles == mapping.compute_cycles else "bandwidth"

    dram_words = 0 if layer.weights_are_activations else layer.weight_words

    energy_pj = (
        layer.macs * e.mac_pj
        + mapping.gb_words * e.gb_pj_word
        + mapping.accum_words * e.accum_pj_word
        + dram_words * e.dram_pj_word
    )

    latency = cycles / accel.frequency_hz
    return LayerCost(
        layer_name=layer.name,
        cycles=cycles,
        latency_s=latency,
        energy_j=energy_pj * PJ_TO_J,
        macs=layer.macs,
        utilization=layer.macs / (cycles * accel.pe_count),
        engagement=mapping.engagement,
        bound=bound,
        gb_words=mapping.gb_words,
        accum_words=mapping.accum_words,
        dram_words=dram_words,
    )


def _evaluate_vector(layer, accel: AcceleratorConfig) -> LayerCost:
    e = accel.energy
    elems = layer.vector_elems
    cycles = max(1, -(-elems // accel.vector_lanes))
    gb_words = layer.input_words + layer.output_words
    energy_pj = elems * e.vector_pj + gb_words * e.gb_pj_word
    return LayerCost(
        layer_name=layer.name,
        cycles=cycles,
        latency_s=cycles / accel.frequency_hz,
        energy_j=energy_pj * PJ_TO_J,
        macs=0,
        utilization=0.0,
        engagement=0.0,
        bound="vector",
        gb_words=gb_words,
        accum_words=0,
        dram_words=0,
    )


# ----------------------------------------------------------------------
# The kernel equals the reference
# ----------------------------------------------------------------------

@st.composite
def shapes(draw):
    """A valid layer shape of any kind: 2D planes, 1-row token planes
    and 1-row bands, DECONV at strides 2-4, DWCONV with ``c == 1``."""
    kind = draw(st.sampled_from(LayerKind))
    out_h = draw(st.one_of(st.just(1), st.integers(2, 200)))
    r = draw(st.sampled_from([1, 2, 3, 4, 5, 7]))
    stride = draw(st.integers(2, 4) if kind is LayerKind.DECONV
                  else st.integers(1, 3))
    return (kind, out_h, draw(st.integers(1, 400)),
            draw(st.integers(1, 1024)),
            1 if kind is LayerKind.DWCONV else draw(st.integers(1, 1024)),
            r, draw(st.sampled_from([1, r])), stride, draw(st.booleans()))


@st.composite
def engines(draw):
    """Every dataflow on a chiplet or a monolithic die, with square and
    non-square tiles, three clocks, PE-cache and drain variants, and an
    energy table whose every per-access cost is inexact in binary, so a
    reordered energy sum rounds differently."""
    dataflow = draw(st.sampled_from(DATAFLOW_STYLES))
    base = draw(st.sampled_from([simba_chiplet(dataflow),
                                 monolithic(9216, dataflow)]))
    return dataclasses.replace(
        base,
        frequency_hz=draw(st.sampled_from([0.8e9, 1.5e9, 2.0e9])),
        native_tile=draw(st.sampled_from(
            [(16, 16), (8, 8), (8, 32), (32, 8), (4, 16)])),
        pe_cache_words=draw(st.sampled_from([1024, 64, 7])),
        reduction_drain_cycles=draw(st.sampled_from([10, 0, 3])),
        vector_lanes=draw(st.sampled_from([16, 5])),
        energy=draw(st.sampled_from([ENERGY_28NM,
                                     ENERGY_28NM.scaled(0.37)])))


def _kernel_matches_reference(shape, accel: AcceleratorConfig) -> None:
    layer = Layer("layer", *shape)
    ref = _RefLayer("layer", *shape)
    want = _price(ref, accel)
    assert evaluate(layer, accel) == want
    assert evaluate_shape(shape, accel) == dataclasses.replace(
        want, layer_name="")
    if layer.kind.is_compute:
        assert map_layer(layer, accel) == ref_map_layer(ref, accel)
    else:
        with pytest.raises(ValueError, match="is not a MAC-array layer"):
            map_layer(layer, accel)


class TestKernelMatchesReference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(shape=shapes(), accel=engines())
    @example(shape=(LayerKind.DENSE, 1, 197, 768, 768, 1, 1, 1, False),
             accel=shidiannao_chiplet())
    @example(shape=(LayerKind.MATMUL, 1, 197, 197, 64, 1, 1, 1, True),
             accel=nvdla_chiplet())
    @example(shape=(LayerKind.CONV, 1, 56, 64, 32, 3, 3, 1, False),
             accel=eyeriss_chiplet())
    @example(shape=(LayerKind.DECONV, 12, 56, 32, 64, 4, 4, 4, False),
             accel=nvdla_chiplet())
    @example(shape=(LayerKind.DWCONV, 1, 28, 96, 1, 3, 3, 2, False),
             accel=eyeriss_chiplet())
    @example(shape=(LayerKind.SOFTMAX, 1, 197, 197, 1, 1, 1, 1, False),
             accel=monolithic(9216))
    def test_every_field_equals_the_reference(self, shape, accel):
        _kernel_matches_reference(shape, accel)

    @pytest.mark.parametrize("accel", [
        shidiannao_chiplet(), nvdla_chiplet(), eyeriss_chiplet(),
        monolithic(9216, "ws")], ids=lambda a: a.name)
    @pytest.mark.parametrize("kind", list(LayerKind), ids=lambda k: k.value)
    def test_every_kind_on_every_preset(self, kind, accel):
        c = 1 if kind is LayerKind.DWCONV else 48
        for out_h in (1, 2, 56):
            _kernel_matches_reference(
                (kind, out_h, 40, 96, c, 3, 3, 2, False), accel)


# ----------------------------------------------------------------------
# Malformed shapes
# ----------------------------------------------------------------------

#: one valid conv shape; each case below breaks one field of it.
VALID = (LayerKind.CONV, 8, 8, 16, 16, 3, 3, 1, False)

REJECTED = {
    "out_h": (1, 0, "output plane must be positive"),
    "out_w": (2, -1, "output plane must be positive"),
    "k": (3, 0, "k and c must be positive"),
    "c": (4, 0, "k and c must be positive"),
    "r": (5, 0, "kernel/stride must be positive"),
    "s": (6, 0, "kernel/stride must be positive"),
    "stride": (7, 0, "kernel/stride must be positive"),
}


def _broken(index: int, value: int, kind: LayerKind = LayerKind.CONV):
    shape = list(VALID)
    shape[0] = kind
    shape[index] = value
    return tuple(shape)


CASES = [pytest.param(_broken(index, value), message, id=field)
         for field, (index, value, message) in REJECTED.items()]
CASES.append(pytest.param(_broken(4, 2, LayerKind.DWCONV),
                          "depthwise conv requires c == 1",
                          id="dwconv-c"))


class TestMalformedShapes:
    @pytest.mark.parametrize("shape,message", CASES)
    def test_layer_and_shape_memo_reject_alike(self, shape, message):
        with pytest.raises(ValueError) as built:
            Layer("conv", *shape)
        assert str(built.value) == f"conv: {message}"
        with pytest.raises(ValueError) as priced:
            evaluate_shape(shape, shidiannao_chiplet())
        assert str(priced.value) == f": {message}"

    def test_the_valid_shape_prices(self):
        assert evaluate_shape(VALID, shidiannao_chiplet()).macs \
            == 64 * 16 * 16 * 9
