"""Analytical DNN accelerator cost model (MAESTRO stand-in)."""

from typing import TYPE_CHECKING

from .. import lazy_exports

# Bound eagerly: perfbench's ``layers.clear_memos`` finds this reset with
# ``inspect.getattr_static``, which never calls a module ``__getattr__``.
from .model import clear_cache

if TYPE_CHECKING:
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
        chain_energy_j,
        chain_latency_s,
        evaluate,
        evaluate_shape,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    accelerator=("DATAFLOW_STYLES", "OUTPUT_STATIONARY",
                 "WEIGHT_STATIONARY", "AcceleratorConfig",
                 "eyeriss_chiplet", "monolithic", "nvdla_chiplet",
                 "shidiannao_chiplet", "simba_chiplet"),
    dataflow=("MappingAnalysis", "map_layer"),
    energy=("ENERGY_28NM", "EnergyTable"),
    model=("LayerCost", "chain_energy_j", "chain_latency_s", "evaluate",
           "evaluate_shape"),
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
    "chain_energy_j",
    "chain_latency_s",
    "clear_cache",
    "evaluate",
    "evaluate_shape",
]
