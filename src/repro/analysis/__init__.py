"""Workload/dataflow analyses backing the paper's Sec. III figures."""

from typing import TYPE_CHECKING

from .. import lazy_exports

if TYPE_CHECKING:
    from .affinity import FIG4_BLOCKS, LayerAffinity, affinity_blocks, \
        layer_affinity
    from .breakdown import ComponentCost, component_breakdown, \
        fusion_latency_share
    from .frontier import design_frontier_report, design_frontier_rows, \
        design_frontier_table
    from .scaling import chiplet_scaling_report, chiplet_scaling_rows

__getattr__, __dir__ = lazy_exports(
    __name__,
    affinity=("FIG4_BLOCKS", "LayerAffinity", "affinity_blocks",
              "layer_affinity"),
    breakdown=("ComponentCost", "component_breakdown",
               "fusion_latency_share"),
    frontier=("design_frontier_report", "design_frontier_rows",
              "design_frontier_table"),
    scaling=("chiplet_scaling_report", "chiplet_scaling_rows"),
)

__all__ = [
    "chiplet_scaling_report",
    "chiplet_scaling_rows",
    "design_frontier_report",
    "design_frontier_rows",
    "design_frontier_table",
    "FIG4_BLOCKS",
    "LayerAffinity",
    "affinity_blocks",
    "layer_affinity",
    "ComponentCost",
    "component_breakdown",
    "fusion_latency_share",
]
