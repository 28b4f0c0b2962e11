"""Analytical DNN accelerator cost model (MAESTRO stand-in)."""

from .accelerator import (
    DATAFLOW_STYLES,
    OUTPUT_STATIONARY,
    WEIGHT_STATIONARY,
    AcceleratorConfig,
    eyeriss_chiplet,
    monolithic,
    nvdla_chiplet,
    shidiannao_chiplet,
    simba_chiplet,
)
from .dataflow import MappingAnalysis, map_layer
from .energy import ENERGY_28NM, EnergyTable
from .model import (
    LayerCost,
    chain_cycles,
    chain_energy_j,
    chain_latency_s,
    clear_cache,
    evaluate,
    evaluate_shape,
)

__all__ = [
    "DATAFLOW_STYLES",
    "OUTPUT_STATIONARY",
    "WEIGHT_STATIONARY",
    "AcceleratorConfig",
    "eyeriss_chiplet",
    "monolithic",
    "nvdla_chiplet",
    "shidiannao_chiplet",
    "simba_chiplet",
    "MappingAnalysis",
    "map_layer",
    "ENERGY_28NM",
    "EnergyTable",
    "LayerCost",
    "chain_cycles",
    "chain_energy_j",
    "chain_latency_s",
    "clear_cache",
    "evaluate",
    "evaluate_shape",
]
