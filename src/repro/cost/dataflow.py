"""Dataflow mapping analysis: spatial engagement, cycles, and buffer traffic.

This is the data-centric core of the MAESTRO stand-in.  For each (layer
shape, accelerator) pair a mapper derives:

* how the dataflow tiles the layer onto its native spatial extent,
* how many compute cycles the temporal loops take,
* how many words each operand moves at the global buffer (reuse analysis).

Two dataflow styles are implemented, matching the paper's Sec. III setup:

**Output stationary (ShiDianNao-like).**  The output plane is tiled 2D onto
the array; each PE owns one output pixel and temporally accumulates over
``k * c * r * s``.  Partial sums never move.  The filter operand is
re-fetched from the global buffer once per tile position; input activations
are cached in the PE register file across the output-channel loop when they
fit.  Pure 1D token sets (plane height 1) fold across the whole array.

**Weight stationary (NVDLA-like).**  The (K, C) filter face is tiled onto
the array; the output plane streams temporally.  Weights are fetched once;
input activations are served once from the conv buffer (NVDLA CBUF semantics:
reuse across the full K loop); partial sums traverse PEs and pay a
sequential accumulation drain per output vector pass
(:attr:`AcceleratorConfig.reduction_drain_cycles`) plus spill traffic to the
accumulation buffer whenever the reduction spans multiple C tiles.

The drain term is the calibrated mechanism behind the paper's Fig. 3/4
observation that the OS dataflow is uniformly faster (6.85x geomean): with
``r*s = 9`` convolutions it costs ~(9+8)/9 = 1.9x, while attention layers
(``r = s = 1``) degrade to ~9x — which is exactly the affinity split the
paper reports.

Each style is one flat function of a layer shape
(:data:`~repro.workloads.layers.LayerShape`) and its
:func:`~repro.workloads.layers.operand_words`, returning a plain
:data:`MappingFields` tuple; no :class:`~repro.workloads.Layer` is read.
The pricing kernel in :mod:`repro.cost.model` calls them through
:data:`MAPPERS` and reads the tuple directly.  :func:`map_layer` is the
thin wrapper that packs the same tuple into a :class:`MappingAnalysis`
for callers that want the fields by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..workloads.layers import (
    Layer,
    LayerKind,
    LayerShape,
    OperandWords,
    operand_words,
)
from .accelerator import (
    OUTPUT_STATIONARY,
    ROW_STATIONARY,
    WEIGHT_STATIONARY,
    AcceleratorConfig,
)

#: A mapper's result, in :class:`MappingAnalysis` field order:
#: ``(passes, compute_cycles, engagement, weight_gb_words,
#: input_gb_words, output_gb_words, accum_words)``.
MappingFields = tuple[int, int, float, int, int, int, int]


@dataclass(frozen=True)
class MappingAnalysis:
    """Result of mapping one compute layer onto one engine."""

    #: number of sequential spatial passes (tile positions / filter tiles)
    passes: int
    #: compute cycles for the whole layer (excludes bandwidth stalls)
    compute_cycles: int
    #: average fraction of the native tile's PEs doing useful work
    engagement: float
    #: global-buffer words moved per operand
    weight_gb_words: int
    input_gb_words: int
    output_gb_words: int
    #: psum spill words at the accumulation buffer (WS only)
    accum_words: int

    @property
    def gb_words(self) -> int:
        return self.weight_gb_words + self.input_gb_words + self.output_gb_words


# The mappers run once per priced (shape, engine) pair, so ceiling
# divisions are written inline as ``-(-a // b)`` (a helper call costs
# more than the arithmetic) and kinds are compared against a module
# global (an enum class lookup costs ~10x more on Python 3.11).
_DWCONV = LayerKind.DWCONV


def _output_stationary(shape: LayerShape, words: OperandWords,
                       accel: AcceleratorConfig) -> MappingFields:
    """ShiDianNao-like mapping of a compute layer."""
    kind, out_h, out_w, k, c, r, s, _, _ = shape
    _, weight_words, input_words, output_words = words
    th, tw = accel.native_tile
    pes = th * tw
    # 2D planes tile as ceil(h/th) * ceil(w/tw); 1D token rows (h == 1)
    # fold across the full native extent since they carry no 2D
    # adjacency to preserve.
    if out_h == 1:
        positions = -(-out_w // pes)
    else:
        positions = (-(-out_h // th)) * (-(-out_w // tw))
    engagement = out_h * out_w / (positions * pes)

    # Inputs cached per-PE across the K loop when the per-pixel receptive
    # field fits the PE register file; otherwise re-fetched per K chunk.
    if kind is _DWCONV:
        rereads = 1
    else:
        rereads = min(k, -(-(c * r * s) // accel.pe_cache_words))

    # The filter operand is re-fetched once per tile position.
    return (positions, positions * (k * c * r * s), engagement,
            weight_words * positions, input_words * rereads, output_words,
            0)


def _weight_stationary(shape: LayerShape, words: OperandWords,
                       accel: AcceleratorConfig) -> MappingFields:
    """NVDLA-like mapping of a compute layer."""
    kind, out_h, out_w, k, c, r, s, _, _ = shape
    _, weight_words, input_words, output_words = words
    th, tw = accel.native_tile
    pes = th * tw
    if kind is _DWCONV:
        # No cross-channel reduction: K channels spread over the whole array.
        passes = -(-k // pes)
        engagement = k / (passes * pes)
        c_tiles = 1
        drain = 0  # each PE accumulates privately; nothing crosses PEs
    else:
        c_tiles = -(-c // tw)
        passes = (-(-k // th)) * c_tiles
        engagement = (k * c) / (passes * pes)
        drain = accel.reduction_drain_cycles

    # Weights loaded once; inputs served once from the conv buffer (reused
    # across the K loop and the r*s window); outputs written once.  Partial
    # sums spill to the accumulation buffer for every extra C tile.
    return (passes, passes * (out_h * out_w * (r * s + drain)), engagement,
            weight_words, input_words, output_words,
            2 * output_words * (c_tiles - 1))


def _row_stationary(shape: LayerShape, words: OperandWords,
                    accel: AcceleratorConfig) -> MappingFields:
    """Eyeriss-like mapping (extension beyond the paper's OS/WS pair).

    Each PE performs a 1D row convolution: the array's row axis holds the
    ``r`` filter rows (folded across output channels when ``r`` is small),
    the column axis holds a tile of output rows.  Partial sums accumulate
    vertically across the ``r`` rows of a fold.

    With ``r = s = 1`` (attention/linear layers) the row dimension carries
    no reuse and the mapping degenerates to an output-tiled scheme with
    extra weight re-fetches — which is exactly why the paper's workload
    mix favours the OS/WS pair.
    """
    kind, out_h, out_w, k, c, r, s, _, _ = shape
    macs, weight_words, input_words, output_words = words
    th, tw = accel.native_tile
    folds = max(1, th // r)
    k_groups = -(-k // folds)
    row_tiles = -(-out_h // tw)
    passes = row_tiles * k_groups
    if kind is _DWCONV:
        # One channel behaves like k-fold rows of an ordinary conv.
        compute = passes * (out_w * s)
        engaged = (k * r * min(out_h, tw)
                   / (passes * th * tw / row_tiles))
        engagement = min(1.0, engaged / max(1, k_groups))
    else:
        # Per pass: every output column, kernel column, input channel.
        compute = passes * (out_w * s * c)
        engagement = min(1.0, macs / (compute * th * tw))

    return (passes, compute, max(engagement, 1e-9),
            weight_words * row_tiles, input_words * max(1, k_groups // 4),
            output_words, 2 * output_words * (r - 1))


#: the mapper of each dataflow style.
MAPPERS: dict[str, Callable[[LayerShape, OperandWords, AcceleratorConfig],
                            MappingFields]] = {
    OUTPUT_STATIONARY: _output_stationary,
    WEIGHT_STATIONARY: _weight_stationary,
    ROW_STATIONARY: _row_stationary,
}


def map_layer(layer: Layer, accel: AcceleratorConfig) -> MappingAnalysis:
    """The engine's dataflow mapping of a compute layer, by field name.

    Packs the pricing kernel's :data:`MappingFields` (the same mapper
    :func:`repro.cost.evaluate` reads) into a :class:`MappingAnalysis`.
    """
    if not layer.kind.is_compute:
        raise ValueError(
            f"{layer.name}: {layer.kind} is not a MAC-array layer")
    shape = layer.shape
    return MappingAnalysis(
        *MAPPERS[accel.dataflow](shape, operand_words(shape), accel))
