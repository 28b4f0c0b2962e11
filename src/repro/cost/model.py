"""Layer and group cost evaluation (latency, energy, utilization).

One pricing kernel, :func:`_price`, prices a layer shape
(:data:`~repro.workloads.layers.LayerShape`) on one engine and returns its
:class:`LayerCost`.  It reads only the shape tuple and the engine: the
operand sizes come once from :func:`~repro.workloads.layers.operand_words`,
a compute layer's mapping comes from the engine's dataflow mapper
(:data:`~repro.cost.dataflow.MAPPERS`) as a plain tuple, and a vector op
takes the kernel's other branch.  No :class:`~repro.workloads.Layer` or
:class:`~repro.cost.dataflow.MappingAnalysis` is built.  Every float
keeps the expression and operand order of the Layer-based model the
kernel replaced, so costs are bit-identical to it
(``tests/test_cost_kernel.py`` keeps that model as the reference).

Two memoized wrappers call the kernel, each a process-wide
``functools.lru_cache`` since the scheduler re-prices layers many times
while sharding:

* ``evaluate(layer, accel)``, the entry point the rest of the system
  uses, prices ``layer.shape`` under ``layer.name``;
* ``evaluate_shape(shape, accel)`` prices row bands and design-search
  layers by shape: a band's cost depends only on its dimensions, so every
  band of the same shape shares one entry whatever layer it was cut
  from.  It validates the shape with the check :class:`Layer` runs.

Latency follows a roofline:

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

from ..workloads.layers import Layer, LayerShape, check_shape, operand_words
from .accelerator import AcceleratorConfig
from .dataflow import MAPPERS
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
    return _price(layer.name, layer.shape, accel)


@functools.lru_cache(maxsize=None)
def evaluate_shape(shape: LayerShape, accel: AcceleratorConfig) -> LayerCost:
    """Price an unnamed layer of ``shape`` (:attr:`Layer.shape`).

    Memoized process-wide by shape, so layers that differ only in name
    share one entry.  Costs equal :func:`evaluate`'s on every field but
    ``layer_name``, which is empty.  A shape no :class:`Layer` could have
    raises the ``ValueError`` its constructor would.
    """
    check_shape("", shape)
    return _price("", shape, accel)


def _price(name: str, shape: LayerShape,
           accel: AcceleratorConfig) -> LayerCost:
    """The pricing kernel behind both memos (see the module docstring).

    Builds each :class:`LayerCost` positionally, in field order: on
    CPython 3.11 keyword arguments make a price ~20% slower.
    """
    words = operand_words(shape)
    macs, weight_words, input_words, output_words = words
    e = accel.energy

    if macs == 0:
        # Vector path: only MAC-array kinds have MACs (a valid shape's
        # dimensions are positive), and a vector op processes one element
        # per output word.
        cycles = max(1, -(-output_words // accel.vector_lanes))
        gb_words = input_words + output_words
        energy_pj = output_words * e.vector_pj + gb_words * e.gb_pj_word
        return LayerCost(name, cycles, cycles / accel.frequency_hz,
                         energy_pj * PJ_TO_J, 0, 0.0, 0.0, "vector",
                         gb_words, 0, 0)

    (_, compute_cycles, engagement, weight_gb, input_gb, output_gb,
     accum_words) = MAPPERS[accel.dataflow](shape, words, accel)
    gb_words = weight_gb + input_gb + output_gb
    traffic_cycles = -(-gb_words // accel.gb_words_per_cycle)
    if compute_cycles >= traffic_cycles:
        cycles, bound = compute_cycles, "compute"
    else:
        cycles, bound = traffic_cycles, "bandwidth"

    # True filter weights stream from DRAM once per frame; activation
    # "weights" (attention matmuls, ``weights_are_activations``, the
    # shape's last field) are produced on-package.
    dram_words = 0 if shape[8] else weight_words

    energy_pj = (
        macs * e.mac_pj
        + gb_words * e.gb_pj_word
        + accum_words * e.accum_pj_word
        + dram_words * e.dram_pj_word
    )

    return LayerCost(name, cycles, cycles / accel.frequency_hz,
                     energy_pj * PJ_TO_J, macs,
                     macs / (cycles * accel.pe_count), engagement, bound,
                     gb_words, accum_words, dram_words)


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


def clear_cache() -> None:
    """Drop both memoized cost tables (mainly for tests/ablations)."""
    evaluate.cache_clear()
    evaluate_shape.cache_clear()
