"""Layer and group cost evaluation (latency, energy, utilization).

``evaluate(layer, accel)`` is the single entry point the rest of the system
uses; results are memoized process-wide (``functools.lru_cache``) since
the scheduler re-prices layers many times while sharding.  Row bands are
priced by shape instead (``evaluate_shape(layer.shape, accel)``, a second
memo): a band's cost depends only on its dimensions, so every band of the
same shape shares one entry whatever layer it was cut from.  Latency
follows a roofline:

``cycles = max(compute_cycles, gb_words / gb_words_per_cycle)``

Energy sums per-access costs over the operand traffic derived by the
dataflow mapper, plus DRAM energy for streaming true (non-activation) filter
weights once per frame.

Two utilization views are reported, and the distinction carries the paper's
Table II argument:

* ``utilization`` — useful MACs over *all* PE-cycles of the engine.  A
  monolithic 9,216-PE die running a 256-wide dataflow collapses here.
* ``engagement`` — useful MACs over the *native tile's* PE-cycles, i.e. how
  well the layer fills the dataflow's own extent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from ..workloads.layers import Layer, LayerShape
from .accelerator import AcceleratorConfig
from .dataflow import MappingAnalysis, map_layer
from .energy import PJ_TO_J


@dataclass(frozen=True)
class LayerCost:
    """Performance of one layer on one engine."""

    layer_name: str
    cycles: int
    latency_s: float
    energy_j: float
    macs: int
    utilization: float
    engagement: float
    bound: str  # "compute" | "bandwidth" | "vector"
    gb_words: int
    accum_words: int
    dram_words: int

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


@functools.lru_cache(maxsize=None)
def evaluate(layer: Layer, accel: AcceleratorConfig) -> LayerCost:
    """Price one layer on one engine (memoized process-wide)."""
    return _price(layer, accel)


@functools.lru_cache(maxsize=None)
def evaluate_shape(shape: LayerShape, accel: AcceleratorConfig) -> LayerCost:
    """Price an unnamed layer of ``shape`` (:attr:`Layer.shape`).

    Memoized process-wide by shape, so layers that differ only in name
    share one entry.  Costs equal :func:`evaluate`'s on every field but
    ``layer_name``, which is empty.
    """
    return _price(Layer("", *shape), accel)


def _price(layer: Layer, accel: AcceleratorConfig) -> LayerCost:
    if layer.kind.is_compute:
        return _evaluate_compute(layer, accel)
    return _evaluate_vector(layer, accel)


def _evaluate_compute(layer: Layer, accel: AcceleratorConfig) -> LayerCost:
    mapping: MappingAnalysis = map_layer(layer, accel)
    e = accel.energy

    traffic_cycles = -(-mapping.gb_words // accel.gb_words_per_cycle)
    cycles = max(mapping.compute_cycles, traffic_cycles)
    bound = "compute" if cycles == mapping.compute_cycles else "bandwidth"

    # True filter weights stream from DRAM once per frame; activation
    # "weights" (attention matmuls) are produced on-package.
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


def _evaluate_vector(layer: Layer, accel: AcceleratorConfig) -> LayerCost:
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
# Aggregates used throughout the scheduler and simulator
# ----------------------------------------------------------------------

# Float totals are left folds, not ``sum()``: from Python 3.12 on
# ``sum()`` of floats is compensated, and rows must carry the same bits
# on every interpreter.

def chain_latency_s(layers: Iterable[Layer],
                    accel: AcceleratorConfig) -> float:
    """Serial latency of a layer chain on one engine."""
    total = 0.0
    for layer in layers:
        total += evaluate(layer, accel).latency_s
    return total


def chain_energy_j(layers: Iterable[Layer],
                   accel: AcceleratorConfig) -> float:
    """Total energy of a layer chain on one engine."""
    total = 0.0
    for layer in layers:
        total += evaluate(layer, accel).energy_j
    return total


def chain_cycles(layers: Iterable[Layer],
                 accel: AcceleratorConfig) -> int:
    """Serial cycle count of a layer chain on one engine."""
    return sum(evaluate(layer, accel).cycles for layer in layers)


def clear_cache() -> None:
    """Drop both memoized cost tables (mainly for tests/ablations)."""
    evaluate.cache_clear()
    evaluate_shape.cache_clear()
